"""Run the benchmark on several seeds and summarise the spread.

Usage:
    python3 perfbench/spread.py [--workloads a,b,...] [--seeds 1-10] [--label NAME]

For each workload and seed this runs
`python3 perfbench/run.py --workload W --seed N --seconds <run_seconds> --trace 0`
one after another, keeps every result line in perfbench/out/spread-NAME.json
and prints, per end-to-end metric, the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them), the quartile distance as
a share of the median, and the share of failed suite calls.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--label", default="latest")
    args = parser.parse_args()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    results = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            line = proc.stdout.strip().splitlines()[-1]
            results.setdefault(workload, []).append(json.loads(line))
            print(f"{workload} seed {seed}: {line}", flush=True)
    with open(os.path.join(HERE, "out", f"spread-{args.label}.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    print(f"{'workload':<14} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'iqr/med':>8} {'bound':>6}  failed")
    for workload, runs in results.items():
        failed = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(
                f"{workload:<14} {metric['name']:<12} {med:>10.4f} "
                f"{q1:>10.4f} {q3:>10.4f} {(q3 - q1) / med:>8.3f} {metric['bound']:>6}  {failed:.3f}"
            )


if __name__ == "__main__":
    main()
