"""Repeatability check: sets of runs of the same code, compared against the bounds.

    python3 perfbench/steady.py                      # 2 sets x 10 seeds x every workload
    python3 perfbench/steady.py --sets 1 --seeds 5 --workloads point-eval

Each run is ``run.py --trace 0`` with its own seed (set s uses seeds
1000*s + 1 ... 1000*s + N). For every workload and end-to-end metric it prints
each set's median and its spread, the distance between the first and third
quartiles as a share of the median (also given as a share of the metric's
bound), and flags:

* SPREAD  a spread above the metric's bound, setup_s included;
* DRIFT   a later set's median worse than the first set's by more than the bound;
* FAILED  a share of failed operations that differs between runs.

Exits 1 when any flag is raised. Results go to perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    flags, report = [], {}
    for workload in args.workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for k in range(1, args.seeds + 1):
                res = run_once(workload, 1000 * s + k, args.seconds)
                runs.append(res)
                print(f"{workload} set {s} seed {1000 * s + k}: " + ", ".join(
                    f"{name}={m['value']:.5g}" for name, m in res["metrics"].items()
                ) + f", failed {res['failed']}/{res['attempted']}, correct {res['correct']}",
                    flush=True)
                if not res["correct"]:
                    flags.append(f"{workload}: incorrect output on seed {1000 * s + k}")
            sets.append(runs)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1:
            flags.append(f"FAILED {workload}: failed shares differ {sorted(shares)}")
        report[workload] = {"failed_share": sorted(shares)}
        for metric in spec["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            medians, spreads = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            report[workload][name] = {"medians": medians, "spreads": spreads, "bound": bound}
            print(f"  {workload:14s} {name:12s} bound {bound:.3f} medians "
                  + " ".join(f"{m:.5g}" for m in medians)
                  + " spreads " + " ".join(f"{s:.4f}" for s in spreads)
                  + " (" + " ".join(f"{s / bound:.2f}" for s in spreads) + " of bound)")
            if any(s > bound for s in spreads):
                flags.append(f"SPREAD {workload} {name}: {spreads} > {bound:.4f}")
            for later in medians[1:]:
                worse = (later / medians[0] - 1) if lower else (1 - later / medians[0])
                if worse > bound:
                    flags.append(f"DRIFT {workload} {name}: {medians} worse by {worse:.4f}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps({"flags": flags, "report": report},
                                                         indent=1) + "\n")
    for line in flags:
        print(line)
    print("steady:", "FLAGGED" if flags else "OK")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
