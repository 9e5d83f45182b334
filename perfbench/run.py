"""Benchmark of the abelslab verify suites.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One single-threaded worker process
(perfbench/worker.py) sets the workload up, runs its negative control,
and then repeats rounds for S seconds.  A round makes every suite call
of the workload once and checks every report against independently
computed figures; each call is timed on its own, next to a fixed
reference that is not abelslab code.  Rounds repeat while
another one is expected to fit in S seconds; at least one always runs.
Separate processes, before and after the worker, time set-up (import
and input building).

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are verdict_norm_s (the sum over the suite
calls of each call's median time relative to the reference, in seconds
at the reference's nominal speed), setup_s (the median set-up) and
peak_rss_mb (the worker's resident high-water mark).  With --trace 1
untraced and traced rounds alternate; the metrics are the per-layer
self times and counts of the traced rounds (medians), plus the traced
and untraced verdict_norm_s and their difference, the tracing overhead.
"""

import argparse
import json
import os
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUPS = 4  # timed set-up processes before the worker, and as many after
SETUP_TIMEOUT = 30
RUN_TIMEOUT_EXTRA = 90  # the worker's allowance beyond --seconds
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "NUMBA_NUM_THREADS",
)


def child(mode, workload, seed, tag, seconds=0, trace=0):
    """Run one worker process to its end and return its result."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    path = os.path.join(OUT, f"result-{workload}-{seed}-{tag}.json")
    if os.path.exists(path):
        os.remove(path)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed)]
    proc = subprocess.run(
        argv + [str(seconds), str(trace), path],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=SETUP_TIMEOUT if mode == "setup" else seconds + RUN_TIMEOUT_EXTRA,
    )
    if proc.returncode != 0 or not os.path.exists(path):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} process for {workload} exited {proc.returncode}")
    with open(path) as fh:
        return json.load(fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "abelslab", "cli.py")):
        raise SystemExit(f"no abelslab source under {ROOT}/src: run from a checkout")
    os.makedirs(OUT, exist_ok=True)

    # set-up: one warm-up process (bytecode caches), then SETUPS timed
    # ones before the worker and SETUPS after it
    child("setup", args.workload, args.seed, "warmup")
    setups = [child("setup", args.workload, args.seed, f"setup{k}")["setup_s"] for k in range(SETUPS)]
    res = child("run", args.workload, args.seed, "run", args.seconds, args.trace)
    setups += [
        child("setup", args.workload, args.seed, f"setup{SETUPS + k}")["setup_s"]
        for k in range(SETUPS)
    ]
    print(f"negative control: {'ok' if res['control_ok'] else 'WRONG'} ({res['control_detail']})")
    for problem in res["problems"]:
        print(f"FAILED {problem}")
    correct = res["control_ok"] and res["wrong"] == 0
    calls = list(zip(*res["calls_s"]))
    print(
        f"{args.workload}: {res['rounds']} rounds; fastest call times "
        + ", ".join(f"{min(c):.4f}" for c in calls)
        + "; median "
        + ", ".join(f"{median(c):.4f}" for c in calls)
    )
    loop_s, gather_s = res["reference_s"]
    print(f"calibration (medians): python_loop_s={loop_s:.4f} numpy_gather_s={gather_s:.4f}")
    print(f"sum of fastest call times: {res['verdict_min_s']:.4f} s")
    print("set-up times " + ", ".join(f"{v:.4f}" for v in setups))
    if args.trace:
        layers = dict(res["layers"])
        layers["trace.verdict_norm_s"] = res["traced_verdict_norm_s"]
        layers["trace.untraced_verdict_norm_s"] = res["verdict_norm_s"]
        layers["trace.overhead_s"] = res["traced_verdict_norm_s"] - res["verdict_norm_s"]
        metrics = {
            name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
            for name, value in layers.items()
        }
    else:
        metrics = {
            # each call's time relative to the reference timed next to
            # it: this machine's speed changes by up to half for tens of
            # seconds at a time, and the ratio cancels most of that
            "verdict_norm_s": {"value": res["verdict_norm_s"], "unit": "s"},
            # set-ups before and after the worker, so that they sample
            # the machine at both ends of the run
            "setup_s": {"value": median(setups + [res["setup_s"]]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(
        json.dumps(
            {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
        )
    )


if __name__ == "__main__":
    main()
