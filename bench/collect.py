"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --runs 10 [--workloads corpus,smt-export] \
        [--seconds 10] [--first-seed 1] [--out summary.json]

Runs `bench/run.py` once per seed and workload, one run at a time, and
prints for every end-to-end metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them), the spread (q3 - q1) as a
share of the median, and that share over the metric's bound from
BENCHMARK.json. `--out` writes the same summary as JSON, with the Python
version and `nproc` of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seconds": args.seconds,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = attempted = 0
        for seed in summary["seeds"]:
            out = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        rows = {}
        print(f"{workload}: failed {failed}/{attempted}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "unit": units[name],
                          "spread": spread, "values": vals}
            print(f"  {name:<14} median {med:12.5f} {units[name]:<4} "
                  f"spread {spread:7.4f}  ({spread / bounds[name]:5.2f} of bound)")
        summary["workloads"][workload] = {"failed": failed, "attempted": attempted,
                                          "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
