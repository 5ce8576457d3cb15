"""Benchmark of the ncgauss pipeline, driven through its public entry points.

    python3 perfbench/run.py --workload closed-maps --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports ``ncgauss`` from its
``src/``. Operations are ``ncgauss.cli.main`` commands writing to a file, or
``ncgauss.scan.eval_point`` calls. A run builds its round of operations from
the seed (workloads.py), measures set-up in fresh interpreters, warms up with
one untimed round, repeats whole rounds for ``--seconds``, then checks every
completed output with the independent checker (check.py). ``--trace 1``
reports per-layer metrics instead (tracing.py). The last line of standard
output is the result as JSON; a copy with the machine details goes to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, here and in every child interpreter.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from numpy.linalg import eigvalsh  # bound here, so traced mode never counts the kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
# Times are reported at the speed of a reference machine that runs the
# calibration kernel in CALIBRATION_REF_S: each measured time is multiplied by
# CALIBRATION_REF_S / (kernel time measured just before and after it). On a
# shared machine the core speed drifts by tens of per cent over tens of
# seconds; the kernel slows with it, so the ratio cancels the drift.
CALIBRATION_REF_S = 0.005
CALIBRATION_EVERY_S = 0.05
P99_WINDOW = 1000
MAX_EXTRA_OUTPUTS = 8  # distinct outputs kept per run beyond each operation's first

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
op = json.loads(sys.argv[2])
from ncgauss.cli import main
if op["argv"]:
    sys.exit(main(op["argv"]))
from ncgauss.scan import eval_point
eval_point(*op["point"])
"""


def load_program():
    """Import ncgauss from this checkout's src/ only."""
    if not (SRC / "ncgauss" / "cli.py").is_file():
        sys.exit(f"perfbench: no ncgauss sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ncgauss.cli
    import ncgauss.errors
    import ncgauss.scan

    if Path(ncgauss.__file__).resolve().parent != SRC / "ncgauss":
        sys.exit(f"perfbench: ncgauss imported from {ncgauss.__file__}, not {SRC}")
    return ncgauss


def measure_setup(op, tmp: Path) -> tuple[float, float]:
    """Median time for a fresh interpreter to import ncgauss.cli and run ``op``.

    Returns the calibrated and the raw wall time.
    """
    payload = json.dumps(
        {"argv": list(op.argv) + ["--out", str(tmp / "setup.out")] if op.argv else [],
         "point": op.point}
    )
    raw, scaled = [], []
    before = calibration_s()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(SRC), payload],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
        )
        raw.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up run failed ({proc.returncode}): {proc.stderr.decode()[-400:]}")
        after = calibration_s()
        scaled.append(raw[-1] * CALIBRATION_REF_S / (0.5 * (before + after)))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def calibration_s() -> float:
    """Median of 5 timings of a fixed kernel shaped like the program's work.

    The kernel mixes what ncgauss spends its time on: small dense symmetric
    eigenproblems, numpy array set-up and Python float formatting.
    """
    base = np.arange(64.0).reshape(8, 8) % 7.0
    mat, eye = base @ base.T + np.eye(8), np.eye(8)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc, parts = 0.0, []
        for i in range(300):
            acc += float(eigvalsh(mat + i * 1e-3 * eye)[0])
            parts.append(format(acc, ".12g"))
        ",".join(parts)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_rounds(runner, sink, seconds: float):
    """Whole rounds for ``seconds``; returns calibrated and raw (seconds, completed) samples.

    The kernel is timed again whenever CALIBRATION_EVERY_S of operation time
    has passed since its last timing (after every operation of the map
    workloads), and the operations in between are scaled by the mean of the
    two kernel timings around them.
    """
    scaled, raw, pending = [], [], []
    before = calibration_s()
    deadline = time.perf_counter() + seconds
    while not raw or time.perf_counter() < deadline:
        for k in range(len(runner.ops)):
            pending.append(runner.run_op(k, sink))
            if sum(t for t, _ in pending) >= CALIBRATION_EVERY_S or k == len(runner.ops) - 1:
                after = calibration_s()
                scale = CALIBRATION_REF_S / (0.5 * (before + after))
                scaled += [(t * scale, ok) for t, ok in pending]
                raw += pending
                pending, before = [], after
    return scaled, raw


class Runner:
    """Executes rounds of operations and records times, failures and outputs."""

    def __init__(self, ncgauss, ops, tmp: Path):
        self.cli = ncgauss.cli
        self.scan = ncgauss.scan
        self.error = ncgauss.errors.NCGaussError
        self.ops = ops
        self.tmp = tmp
        self.reference = {}  # op index -> first output (digest, bytes or record)
        self.extra = []  # (op index, output) whose bytes differ from the first output
        self.seen = set()  # (op index, digest) of every distinct output
        self.unchecked = 0  # distinct outputs beyond MAX_EXTRA_OUTPUTS, not kept
        self.failures = {}  # op index -> first failure message
        self.unexpected = []

    def _record(self, rec):
        return (rec.theta, rec.eta, rec.m, rec.n, rec.r, rec.nu_minus, rec.nu_minus_prime,
                rec.verdict)

    def round(self, sink: io.StringIO):
        """Run every op once, untimed by the caller; returns (seconds, completed) per op."""
        return [self.run_op(k, sink) for k in range(len(self.ops))]

    def run_op(self, k: int, sink: io.StringIO) -> tuple[float, bool]:
        """Run op ``k``; returns its wall time and whether it completed."""
        op = self.ops[k]
        clock = time.perf_counter
        if op.argv:
            path = str(self.tmp / f"op{k}.out")
            argv = list(op.argv) + ["--out", path]
            mark = sink.tell()
            start = clock()
            code = self.cli.main(argv)
            elapsed = clock() - start
            if code == 0:
                self._keep(k, Path(path).read_bytes())
            elif code == 3:
                self._fail(k, sink.getvalue()[mark:].strip())
            else:
                self.unexpected.append(f"{op.name}: exit code {code}")
            return elapsed, code == 0
        start = clock()
        try:
            rec = self.scan.eval_point(*op.point)
        except self.error as exc:
            elapsed = clock() - start
            self._fail(k, f"{type(exc).__name__}: {exc}")
            return elapsed, False
        elapsed = clock() - start
        self._keep(k, self._record(rec))
        return elapsed, True

    def _fail(self, k: int, msg: str):
        """Record op ``k``'s first failure; one that no known fault covers is an error."""
        if k not in self.failures and not self.ops[k].expect_fail:
            self.unexpected.append(f"{self.ops[k].name} failed, though no known fault covers it: {msg}")
        self.failures.setdefault(k, msg)

    def _keep(self, k, output):
        digest = hashlib.sha256(output if isinstance(output, bytes) else repr(output).encode()).digest()
        if (k, digest) in self.seen:
            return
        self.seen.add((k, digest))
        if k not in self.reference:
            self.reference[k] = (digest, output)
        elif len(self.extra) < MAX_EXTRA_OUTPUTS:
            self.extra.append((k, output))
        else:
            self.unchecked += 1


def check_outputs(runner) -> list[str]:
    """Run the independent checks on every distinct output; returns the errors."""
    import check

    errors = list(runner.unexpected)
    if runner.unchecked:
        errors.append(f"{runner.unchecked} outputs differ from their operation's first output "
                      f"beyond the {MAX_EXTRA_OUTPUTS} kept; they were not checked")
    point_ops, point_recs = [], []
    outputs = [(k, out) for k, (_, out) in sorted(runner.reference.items())] + runner.extra
    if not outputs:
        return errors + ["no operation completed"]
    for k, out in outputs:
        op = runner.ops[k]
        try:
            if op.point is not None:
                point_ops.append(op.point)
                point_recs.append(out)
            elif isinstance(op.spec, check.MapSpec):
                check.check_map(out.decode(), op.fmt, op.spec)
            else:
                check.check_fig1(out.decode(), op.fmt, op.spec)
        except check.CheckError as exc:
            errors.append(f"{op.name}: {exc}")
    try:
        check.check_points(point_ops, point_recs)
    except check.CheckError as exc:
        errors.append(str(exc))
    # Show on this run's own output that a corrupted copy would be rejected.
    if point_recs:
        problems = check.self_test_points(point_ops, point_recs)
    else:
        k, out = outputs[0]
        problems = check.self_test(out.decode(), runner.ops[k].fmt, runner.ops[k].spec)
    errors += [f"checker self-test: {p}" for p in problems]
    return errors


def tail_p99(times: list[float], round_size: int) -> float:
    """p99 of consecutive windows of operations, median over windows.

    A window is P99_WINDOW operations, which hold ten samples beyond their
    p99, when a run has at least two of them (``point-eval``). The map
    workloads complete fewer than 2 * P99_WINDOW operations per run; there a
    window is one round (``round_size`` completed operations), whose p99 is in
    effect its slowest operation. The median over windows keeps a burst of
    interference from other tenants, confined to a few windows, from setting
    the whole run's figure.
    """
    size = P99_WINDOW if len(times) >= 2 * P99_WINDOW else round_size
    windows = max(1, len(times) // size)
    size = len(times) // windows
    return statistics.median(
        max(window) if len(window) < 2
        else statistics.quantiles(window, n=100, method="inclusive")[98]
        for window in (times[i * size:(i + 1) * size] for i in range(windows))
    )


def summarize(samples, ops) -> dict:
    """End-to-end (value, unit) metrics from the (seconds, completed) samples of whole rounds."""
    per_round = len(ops)
    ok_times = [t for t, ok in samples if ok]
    points = sum(ops[i % per_round].points for i, (_, ok) in enumerate(samples) if ok)
    total = sum(t for t, _ in samples)
    return {
        "points_per_s": (points / total, "1/s"),
        "op_ms_p50": (statistics.median(ok_times) * 1e3, "ms"),
        "op_ms_p99": (tail_p99(ok_times, max(1, len(ok_times) * per_round // len(samples))) * 1e3,
                      "ms"),
    }


def run(args) -> dict:
    ncgauss = load_program()
    import workloads

    ops = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        wall = [time.perf_counter()]
        setup_s, setup_raw = (None, None) if args.trace else measure_setup(ops[0], tmp)
        wall.append(time.perf_counter())
        runner = Runner(ncgauss, ops, tmp)
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink):
            runner.round(sink)  # warm-up; its outputs are the ones checked in full
            wall.append(time.perf_counter())
            if args.trace:
                import tracing

                samples, raw, layer = tracing.traced_rounds(
                    runner, sink, args.seconds, ncgauss, OUT / f"trace-{args.workload}.npz",
                    timed_rounds)
            else:
                samples, raw = timed_rounds(runner, sink, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall.append(time.perf_counter())
        errors = check_outputs(runner)
        wall.append(time.perf_counter())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        e2e = summarize(samples, ops)
        e2e["setup_s"] = (setup_s, "s")
        e2e["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    result = {
        "correct": not errors,
        "attempted": len(samples),
        "failed": sum(1 for _, ok in samples if not ok),
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(), "numpy": np.__version__,
        "python": platform.python_version(), "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "rounds": len(samples) // len(ops), "ops_per_round": len(ops),
        "phase_wall_s": dict(zip(("setup", "warm_up", "rounds", "checks"),
                                 (b - a for a, b in zip(wall, wall[1:])))),
        "uncalibrated": {
            "metrics": {k: v for k, (v, _) in summarize(raw, ops).items()},
            "setup_s": setup_raw,
            "op_ms_p50_by_op": {
                op.name: statistics.median(t for t, _ in raw[k::len(ops)]) * 1e3
                for k, op in enumerate(ops)
            },
        },
        "failures": {ops[k].name: msg for k, msg in sorted(runner.failures.items())},
        "errors": errors[:20], "result": result,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n")
    for line in errors[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {detail['rounds']} rounds, "
          f"cores {detail['cpu_count']}, numpy {detail['numpy']}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
