"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workloads analytic-table mc-subject \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--seconds 24] [--label set1]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(third minus first quartile, over the median), next to the metric's bound
in BENCHMARK.json. Each run's last line is appended to
``perfbench/out/steadiness-<label>.jsonl``.
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


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--label", default="steadiness")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = HERE / "out" / f"steadiness-{args.label}.jsonl"
    log.parent.mkdir(exist_ok=True)
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            runs.append(result)
        share = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, all correct={all(r['correct'] for r in runs)}, "
              f"failed shares={sorted(share)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= bound / 3 else ("WIDE" if spread > bound else "over 1/3")
            print(f"  {name:12s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.3f}  bound {bound:.2f}  {flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
