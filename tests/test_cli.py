"""End-to-end tests of the command-line interface."""

import hashlib
import json
import math
import re
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ncgauss import NCGaussError, eval_point, fig1_table
from ncgauss.cli import main
from ncgauss.kernel import Verdict
from ncgauss.scan import FIG1_FIELDS, SCAN_FIELDS
from oracles import (
    closed_tolerance, dense_tolerance, mp_closed_forms, mp_spectra, rows_to_csv, rows_to_json, table_rows,
)

# sha256 of stdout, recorded with the per-row writers. These outputs come from the closed
# forms alone (elementwise arithmetic and libm pow, no LAPACK), so their bytes do not
# depend on the LAPACK build; LAPACK-backed outputs are compared with the reference writers.
GOLDEN = {
    ("scan", "--m", "0.3", "--n", "0.2"): (
        "dbe8aba650b1a6b83153e5800fe6ccb20c8fc0a2a81dbe29bf4a1ea4851782c8",
        "fe2adf06640a40121b675ff563d6f800285746be72be9e058c27d84ca8d9adba",
    ),
    ("fig2", "--r", "0.5"): (
        "ef1902c748236b84d1c18f9e07a1d0d8d8a5cc8ea2e78ed74db5468342470fd6",
        "19b9544fa10c1212fe1227b4c60db1a184cb221e7fa1a637e0fcc6765bb42846",
    ),
    ("fig2", "--r", "0.5", "--swap"): (
        "25f55e8af39e650add85ac5209f76be8f330ccb89e7cd157bf67d88f54352401",
        "f3ec65d531855c214871df546e125e4abfc3afba5c904297d601222261456795",
    ),
    ("scan", "--m", "0", "--n", "-0", "--theta-range", "0:2:11", "--eta-range", "0:2:11"): (
        "69a15aa25f82d9901dcb9f601755e7b1fad7003f347fc42662df52e3eeafcb73",
        "4a769b674b1f96d2e2b12e7efe41dd81bf597481378f0770ccbd1bb14bea0951",
    ),
    ("fig1",): (
        "c61b48d36d226a0a437c91da9c2d6edebb75cc51086aa140e7a4ada34b6ccd37",
        "fcc60d9427108036a74adb25a5320b96a91980ae5a0fa04de85226d83676a53b",
    ),
    ("fig1", "--m", "-0.3", "--n", "0.2"): (
        "4325b65d51a84fd87352b2f41d6c405e3732c001f54bf812315edf55e2b0e2fd",
        "c45b0ab2a10b0ddcaf441b5b95ae607f71dea29c424c4bff51832c59a5cc57ba",
    ),
}


class TestEval:
    def test_separable_point(self, capsys):
        assert main(["eval", "--theta", "0", "--eta", "0", "--m", "0.3", "--n", "0.4"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verdict"] == "separable"
        assert obj["nu_minus_prime"] == pytest.approx(1.5, rel=1e-12)

    def test_invalid_domain_point(self, capsys):
        assert main(["eval", "--theta", "2", "--eta", "2", "--m", "0.1", "--n", "0.1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verdict"] == "invalid"
        assert "nu_minus" not in obj

    @pytest.mark.parametrize("m", ["0.2", "-1e-5", "-.5", "-5E-1"])
    def test_verbose_adds_spectral_cross_check(self, capsys, m):
        # A negative m in any float spelling is a value, as when joined to its option by "=".
        argv = ["eval", "--theta", "0.25", "--eta", "0.5", "--m", m, "--n", "0.1", "--verbose"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert main([*argv[:5], f"--m={m}", *argv[7:]]) == 0
        assert capsys.readouterr().out == out
        obj = json.loads(out)
        assert obj["m"] == float(m)
        assert obj["nu_minus_numeric"] == pytest.approx(obj["nu_minus"], rel=1e-8)
        assert obj["nu_minus_prime_numeric"] == pytest.approx(obj["nu_minus_prime"], rel=1e-8)

    def test_radius_at_one_is_usage_error(self, capsys):
        assert main(["eval", "--theta", "0", "--eta", "0", "--m", "0.8", "--n", "0.6"]) == 2
        assert "must be < 1" in capsys.readouterr().err

    def test_negative_deformation_is_usage_error(self, capsys):
        assert main(["eval", "--theta", "-1", "--eta", "0", "--m", "0.1", "--n", "0.1"]) == 2

    def test_missing_argument_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--theta", "0", "--eta", "0", "--m", "0.3"])
        assert exc.value.code == 2

    def test_non_numeric_argument_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--theta", "abc", "--eta", "0", "--m", "0.3", "--n", "0.4"])
        assert exc.value.code == 2


@pytest.mark.parametrize("point, verdict", [
    (("0", "0", "0.3", "0.4"), Verdict.SEPARABLE_QUANTUM),
    (("0.25", "0.5", "0.2357", "0.1667"), Verdict.ENTANGLED_QUANTUM),
    (("1.2", "0.8", "0.3", "0.2"), Verdict.NON_QUANTUM),
    (("2", "0.5", "0.3", "0.2"), Verdict.INVALID_DOMAIN),
    (("1", "0.9999999999999999", "-0.3", "0.2"), Verdict.NON_QUANTUM),
    (("1e300", "1e-301", "-0.3", "0.2"), Verdict.NON_QUANTUM),
    (("1.7e308", "0", "-0.3", "0.2"), Verdict.NON_QUANTUM),
    (("1e80", "0", "0.3", "0.2"), Verdict.NON_QUANTUM),
    (("1e80", "0", "-0.3", "0.2"), Verdict.NON_QUANTUM),
])
def test_printed_labels_are_verdict_values(capsys, point, verdict):
    # eval runs the kernel on Python floats, scan on arrays: across the float range, eval's
    # invariants rounded as '%.12g' are the numbers a one-point scan writes.
    theta, eta, m, n = point
    assert main(["eval", "--theta", theta, "--eta", eta, "--m", m, "--n", n]) == 0
    one = json.loads(capsys.readouterr().out)
    assert one["verdict"] == verdict.value
    grid = ["--theta-range", f"{theta}:{theta}:1", "--eta-range", f"{eta}:{eta}:1", "--m", m, "--n", n]
    assert main(["scan", *grid]) == 0
    assert capsys.readouterr().out.split("\n")[1].split(",")[-1] == verdict.value
    assert main(["scan", *grid, "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["verdict"] == verdict.value
    keys = ("nu_minus", "nu_minus_prime")
    assert [row.get(key) for key in keys] == [float("%.12g" % one[key]) if key in one else None for key in keys]


class TestScan:
    def test_csv_to_stdout(self, capsys):
        assert main(
            ["scan", "--theta-range", "0:1:2", "--eta-range", "0:1:2", "--m", "0.3", "--n", "0.4"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "theta,eta,m,n,r,nu_minus,nu_minus_prime,verdict"
        assert len(lines) == 5

    def test_json_to_file(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(
            [
                "scan", "--theta-range", "0:2:3", "--eta-range", "0:2:3",
                "--m", "0.1", "--n", "0.1", "--format", "json", "--out", str(out),
            ]
        ) == 0
        objs = json.loads(out.read_text())
        assert len(objs) == 9
        assert {obj["verdict"] for obj in objs} <= {"separable", "entangled", "nonquantum", "invalid"}

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "scan", "--theta-range", "0:2:11", "--eta-range", "0:2:11",
            "--m", "0.23570226", "--n", "0.16666667",
        ]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_bad_range_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--theta-range", "0:1", "--eta-range", "0:1:2", "--m", "0", "--n", "0"])
        assert exc.value.code == 2

    def test_unwritable_output_is_usage_error(self, capsys):
        code = main(
            [
                "scan", "--theta-range", "0:1:2", "--eta-range", "0:1:2",
                "--m", "0.1", "--n", "0.1", "--out", "/nonexistent-dir/scan.csv",
            ]
        )
        assert code == 2
        assert "cannot write output" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pipe_closed_mid_output_is_usage_error(self, capsys, monkeypatch, fmt):
        # The reader goes away after the first write: the second raises, and main reports it.
        writes = []

        def write(text):
            writes.append(text)
            if len(writes) == 2:
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", SimpleNamespace(write=write))
        grid = ["--theta-range", "0:2:61", "--eta-range", "0:2:61"]
        assert main(["scan", "--m", "0.3", "--n", "0.2", *grid, "--format", fmt]) == 2
        assert len(writes) == 2
        assert "cannot write output" in capsys.readouterr().err


class TestFigures:
    def test_fig1_csv(self, capsys):
        assert main(["fig1", "--thetas", "0,0.25", "--eta-range", "0:1:3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("theta,eta,m,n,nu_1")
        assert len(lines) == 1 + 2 * 3

    @pytest.mark.parametrize("m", ["0.999999999999999", "-0.999999999999999"])
    def test_fig1_answers_as_r_tends_to_one(self, capsys, m):
        # R = 1 - 1e-15: Sigma's eigenvalues span 1 to 2e15; the closed forms need no root of it.
        assert main(["fig1", "--thetas", "0.5", "--eta-range", "0:1:3", "--m", m, "--n", "0",
                     "--format", "json"]) == 0
        for row in json.loads(capsys.readouterr().out):
            for name in ("nu", "nup"):
                spectrum = [row[f"{name}_{k}"] for k in range(1, 5)]
                assert all(map(math.isfinite, spectrum)) and spectrum == sorted(spectrum)

    def test_fig2_json(self, capsys):
        assert main(
            ["fig2", "--r", "0.5", "--theta-range", "0:2:5", "--eta-range", "0:2:5",
             "--format", "json"]
        ) == 0
        objs = json.loads(capsys.readouterr().out)
        assert len(objs) == 25

    def test_fig2_label_out_of_range_exits_2(self, capsys):
        assert main(["fig2", "--r", "1.5"]) == 2

    @pytest.mark.parametrize("command", ["eval", "scan", "fig1", "fig2"])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: ")


def test_repeated_calls_share_one_parser_and_keep_their_own_output(capsys):
    # main builds its parser once per process. Run in a row, with a usage error among them,
    # the calls print what each prints with a parser of its own.
    from ncgauss.cli import _parser, build_parser

    runs = [
        ["fig1", "--thetas", "0,0.5", "--eta-range", "0:1:2", "--format", "json"],
        ["scan", "--m", "0.2", "--n", "0.1", "--eta-range", "0:1"],
        ["eval", "--theta", "0.25", "--eta", "0.5", "--m", "-0.3", "--n", "0.2", "--verbose"],
        ["fig1", "--eta-range", "0:1:2"],
        ["scan", "--theta-range", "0:1:2", "--eta-range", "0:1:2", "--m", "0.3", "--n", "0.2"],
        ["fig2", "--r", "1.5"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in runs:
        _parser.cache_clear()
        alone.append(run(argv))
    assert [run(argv) for argv in runs] == alone
    assert [code for code, _, _ in alone] == [0, 2, 0, 0, 0, 2]
    assert "expected MIN:MAX:STEPS, got '0:1'" in alone[1][2] and alone[1][1] == ""
    assert json.loads(alone[2][1])["nu_minus_numeric"] > 0.0
    assert _parser() is _parser() and build_parser() is not build_parser()


class TestNearHyperbola:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--thetas", "1", "--eta-range", "0.99:0.99999:5"],
            ["eval", "--theta", "1", "--eta", "0.9995", "--m", "-0.2", "--n", "0.1"],
            ["scan", "--theta-range", "0.98:0.98:1", "--eta-range", "1.02:1.02:1",
             "--m", "-0.1", "--n", "-0.1"],
            ["scan", "--theta-range", "0.5:0.54:3", "--eta-range", "1.9:1.94:3",
             "--m", "-0.2357", "--n", "0.1667"],
        ],
    )
    def test_admissible_points_do_not_abort(self, argv):
        assert main(argv) == 0

    def test_off_quadrant_point_at_the_last_float_below_the_hyperbola(self, capsys):
        # 1 - theta*eta = 1.1e-16. The invariants depend on |m| only and the closed forms decide
        # both signs, so m = -0.3 prints the bits of m = 0.3. The --verbose dense cross-check
        # holds dense_tolerance of 60-digit mpmath at either sign, the closed forms closed_tolerance.
        mpmath = pytest.importorskip("mpmath")
        theta, eta = 1.0, 0.9999999999999999
        records = []
        for m in (-0.3, 0.3):
            argv = ["eval", "--theta", repr(theta), "--eta", repr(eta), "--m", repr(m), "--n", "0.2", "--verbose"]
            assert main(argv) == 0
            records.append(json.loads(capsys.readouterr().out))
        negative, positive = records
        assert negative["verdict"] == positive["verdict"] == "nonquantum"
        want = [spectrum[0] for spectrum in mp_spectra(theta, eta, 0.3, 0.2, dps=60)]
        for key, ref in zip(("nu_minus", "nu_minus_prime"), want):
            assert negative[key] == positive[key]
            assert abs(float((mpmath.mpf(positive[key]) - ref) / ref)) <= closed_tolerance(0.3, 0.2)
            for obj, m in ((negative, -0.3), (positive, 0.3)):
                bound = dense_tolerance(theta, eta, m, 0.2, float(ref))
                assert abs(float((mpmath.mpf(obj[key + "_numeric"]) - ref) / ref)) <= bound

    def test_verbose_cross_check_where_the_planar_form_is_ill_conditioned(self, capsys):
        # theta = 1e13 and eta = 0: cond_2 of the planar form is 1e26.
        argv = ["eval", "--theta", "1e13", "--eta", "0", "--m", "-0.3", "--n", "0.2", "--verbose"]
        assert main(argv) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verdict"] == "nonquantum"
        assert obj["nu_minus_numeric"] == obj["nu_minus"] > 0.0

    @pytest.mark.parametrize("theta", ["1.7e308", "1.7976931348623157e308"])
    @pytest.mark.parametrize("m,n", [("0.3", "0.2"), ("-0.3", "0.2"), ("-0.3", "-0.2"), ("0.3", "-0.2")])
    def test_verbose_cross_check_at_the_largest_floats(self, capsys, theta, m, n):
        # The dense cross-check scales each point's forms by the kernel's power of two, so it
        # answers up to the largest float with no overflow warning, within dense_tolerance of
        # the closed forms at 50 digits. The invariants are subnormal there: half the spacing
        # 2^-1074 is the last term.
        mpmath = pytest.importorskip("mpmath")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--theta", theta, "--eta", "0", "--m", m, "--n", n, "--verbose"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verdict"] == "nonquantum"
        for key, want in zip(("nu_minus_numeric", "nu_minus_prime_numeric"),
                             mp_closed_forms(float(theta), 0.0, float(m), float(n))):
            bound = dense_tolerance(float(theta), 0.0, float(m), float(n), float(want))
            assert abs(mpmath.mpf(obj[key]) - want) <= bound * want + mpmath.mpf(2) ** -1075

    def test_grid_row_next_to_the_hyperbola_is_nonquantum(self, capsys):
        # Row theta = 100 has 1 - theta*eta down to 4e-15, at eta = 0.00999999999999996.
        argv = ["scan", "--theta-range", "99:101:3",
                "--eta-range", "0.00999999999999992:0.00999999999999998:4", "--m", "-0.1", "--n", "0.1"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["nonquantum"] * 8 + ["invalid"] * 4
        argv = ["eval", "--theta", "100", "--eta", "0.00999999999999996", "--m", "-0.1", "--n", "0.1"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "nonquantum"


class TestErrorMessages:
    def test_eval_and_scan_answer_next_to_r_equal_one(self, capsys):
        # R = 1 - 1e-15: Sigma's eigenvalues span 1 to 2e15. Its closed-form root needs no positivity
        # check, so eval --verbose answers on both routes in both signs of m, within dense_tolerance
        # of 60-digit mpmath (about 3e-7 relative: nu_min is 6e7 and R is exact at n = 0), and an
        # off-quadrant grid answers too.
        mpmath = pytest.importorskip("mpmath")
        for m in ("0.999999999999999", "-0.999999999999999"):
            assert main(["eval", "--theta", "0.5", "--eta", "0.5", "--m", m, "--n", "0", "--verbose"]) == 0
            obj = json.loads(capsys.readouterr().out)
            want, want_prime = mp_spectra(0.5, 0.5, float(m), 0.0, dps=60)
            for key, ref in (("nu_minus_numeric", want[0]), ("nu_minus_prime_numeric", want_prime[0])):
                bound = dense_tolerance(0.5, 0.5, float(m), 0.0, float(ref))
                assert abs(float((mpmath.mpf(obj[key]) - ref) / ref)) <= bound
        argv = ["scan", "--theta-range", "0:1:3", "--eta-range", "0:1:3", "--m", "-0.999999999999999", "--n", "0"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 10

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["scan", "--m", "0.2", "--n", "0.1", "--eta-range", "2:0:3"],
             "eta range must satisfy finite min <= max, got (2.0, 0.0, 3)"),
            (["fig1", "--eta-range", "0:2:0"], "eta range needs >= 1 steps, got 0"),
            # float() of this count overflows; no int is read as a float.
            (["scan", "--m", "0.3", "--n", "0.2", "--theta-range", "0:1:1" + "0" * 400],
             f"theta range needs <= {sys.maxsize} steps, got 1{'0' * 400}"),
            (["fig2", "--r", "0.5", "--theta-range", "0:inf:3"],
             "theta range must satisfy finite min <= max, got (0.0, inf, 3)"),
            # A non-finite number parses and meets the library's check of its kind.
            (["scan", "--m", "nan", "--n", "0.2"], "m and n must be finite, got (nan, 0.2)"),
            (["fig1", "--thetas", "0,inf"],
             "theta and eta must be finite and >= 0 at (theta, eta, m, n) = "
             "(inf, 0.0, 0.23570226039551587, 0.16666666666666666)"),
            (["fig1", "--n", "nan"], "m and n must be finite, got (0.23570226039551587, nan)"),
            (["fig2", "--r", "nan"], "r must lie in (0, 1), got nan"),
            # A negative number in any spelling is a value, not an option, and meets the same checks.
            (["eval", "--theta", "0.5", "--eta", "0.5", "--m", "-inf", "--n", "0"],
             "m and n must be finite, got (-inf, 0.0)"),
            (["scan", "--m", "0.3", "--n", "0.2", "--theta-range", "-1:2:3"],
             "theta and eta must be finite and >= 0 at (theta, eta, m, n) = (-1.0, 0.0, 0.3, 0.2)"),
            (["fig1", "--thetas", "-0.5,1"],
             "theta and eta must be finite and >= 0 at (theta, eta, m, n) = "
             "(-0.5, 0.0, 0.23570226039551587, 0.16666666666666666)"),
            (["eval", "--theta", "nan", "--eta", "0.5", "--m", "0.3", "--n", "0.2"],
             "theta and eta must be finite and >= 0 at (theta, eta, m, n) = (nan, 0.5, 0.3, 0.2)"),
            (["scan", "--m", "inf", "--n", "0.2"], "m and n must be finite, got (inf, 0.2)"),
        ],
    )
    def test_bad_values_are_usage_errors(self, capsys, argv, message):
        # Argument parsing only parses: the library's checks reject the values, the ranges in
        # scan._check_range, theta and eta in one predicate, m, n and r where they are used.
        assert main(argv) == 2
        assert capsys.readouterr().err == f"ncgauss: {message}\n"

    def test_malformed_range_exits_2_through_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--m", "0.2", "--n", "0.1", "--eta-range", "0:1"])
        assert exc.value.code == 2
        assert "expected MIN:MAX:STEPS, got '0:1'" in capsys.readouterr().err

    def test_negative_deformation_names_point(self, capsys):
        assert main(["fig1", "--thetas", "0.1,-0.3", "--eta-range", "0:1:3"]) == 2
        assert "at (theta, eta, m, n) = (-0.3, 0.0," in capsys.readouterr().err


class TestErrorMapping:
    def test_generic_numeric_error_exits_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NCGaussError("synthetic spectral failure")

        monkeypatch.setattr("ncgauss.cli.scan_table", boom)
        code = main(
            ["scan", "--theta-range", "0:1:2", "--eta-range", "0:1:2", "--m", "0.1", "--n", "0.1"]
        )
        assert code == 3


class TestOutputBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", list(GOLDEN))
    def test_closed_form_maps_match_recorded_digests(self, capsys, argv, fmt):
        assert main([*argv, "--format", fmt]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == GOLDEN[argv][fmt == "json"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("m,n", [(-0.2357, 0.1667), (-0.1, -0.1), (0.2357, -0.1667), (-0.0, 0.0)])
    def test_scan_matches_per_row_writer(self, capsys, m, n, fmt):
        # Off the quadrant too the closed forms decide; compare with the reference writer.
        # (-0.0, 0.0) keeps the sign of a zero coupling.
        axis = np.linspace(0.0, 2.0, 13)
        argv = ["scan", "--theta-range", "0:2:13", "--eta-range", "0:2:13", "--m", repr(m), "--n", repr(n)]
        assert main([*argv, "--format", fmt]) == 0
        writer = rows_to_csv if fmt == "csv" else rows_to_json
        expected = writer([eval_point(t, e, m, n)._asdict() for t in axis for e in axis], SCAN_FIELDS)
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_word_columns_match_per_row_writer(self, capsys, fmt):
        # At one theta the first column has one word and stays a column; the scan's m, n and r
        # and fig1's m and n join the eta column. Both write what the per-row writers write.
        writer = rows_to_csv if fmt == "csv" else rows_to_json
        argv = ["scan", "--theta-range", "1:1:1", "--eta-range", "0:2:5", "--m", "0.3", "--n", "0.2"]
        assert main([*argv, "--format", fmt]) == 0
        rows = [eval_point(1.0, e, 0.3, 0.2)._asdict() for e in np.linspace(0.0, 2.0, 5)]
        assert capsys.readouterr().out == writer(rows, SCAN_FIELDS)
        assert main(["fig1", "--thetas", "0.5", "--eta-range", "0:2:5", "--format", fmt]) == 0
        table = fig1_table((0.5,), (0.0, 2.0, 5), math.sqrt(2.0) / 6.0, 1.0 / 6.0)
        assert capsys.readouterr().out == writer(table_rows(table), FIG1_FIELDS)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fig1_matches_per_row_writer(self, capsys, fmt):
        assert main(["fig1", "--thetas", "0,0.25,1.25", "--eta-range", "0:2:21", "--format", fmt]) == 0
        writer = rows_to_csv if fmt == "csv" else rows_to_json
        table = fig1_table((0.0, 0.25, 1.25), (0.0, 2.0, 21), math.sqrt(2.0) / 6.0, 1.0 / 6.0)
        expected = writer(table_rows(table), FIG1_FIELDS)
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("argv", [
        ["scan", "--m", "0.3", "--n", "0.2", "--theta-range", "0:2:5", "--eta-range", "0:2:5"],
        ["fig1", "--thetas", "0,0.5", "--eta-range", "0:2:5", "--format", "json"],
        ["fig1", "--thetas", "0,0.98", "--eta-range", "0:2:5", "--m", "-0.3", "--n", "0.2"],
        ["fig1", "--thetas", "0.5", "--eta-range", "0:1:3", "--m", "0.999999999999999", "--n", "0"],
        ["fig2", "--r", "0.5", "--swap", "--theta-range", "0:2:5", "--eta-range", "0:2:5"],
        ["scan", "--theta-range", "0:1e300:3", "--eta-range", "0:1e-301:2", "--m", "-0.3", "--n", "0.2"],
        # Every invariant cell missing.
        ["scan", "--theta-range", "2:2:1", "--eta-range", "1:1:1", "--m", "0.1", "--n", "0.1"],
        ["fig1", "--thetas", "2", "--eta-range", "1:1:1", "--format", "json"],
        # More than one block (1,024 rows) of the table writers: a 61x61 scan, a four-theta fig1
        # (1,204 rows, whose one-word m and n join the eta column) and a one-theta scan (1,500
        # rows, whose one-word first column keeps every row across the block edges).
        *([*grid.split(), "--format", fmt] for grid in (
            "scan --m 0.3 --n 0.2 --theta-range 0:2:61 --eta-range 0:2:61",
            "fig1 --thetas 0,0.5,1.25,2 --eta-range 0:2:301",
            "scan --m 0.3 --n 0.2 --theta-range 1:1:1 --eta-range 0:2:1500",
        ) for fmt in ("csv", "json")),
    ])
    def test_stdout_and_out_file_agree_and_hold_no_nan_word(self, capsys, tmp_path, argv):
        # A missing cell is written empty: no output holds the word nan or NaN.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert re.search(r"\b(nan|NaN)\b", out) is None
        path = tmp_path / "out"
        assert main([*argv, "--out", str(path)]) == 0
        assert path.read_bytes() == out.encode()
