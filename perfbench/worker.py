"""One benchmark process: set up a workload, and time rounds of it.

Usage: python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS TRACE RESULT_JSON

MODE is `setup` (import and build inputs only) or `run`: set up, run the
workload's negative control, then repeat rounds for SECONDS.  A round
makes every suite call of the workload once, in order; each call is
timed on its own, from `abelslab.cli.run` to its report checked, and
so is a fixed reference (a pure-Python loop and a numpy gather, no
abelslab code) before each call and after the last.  With TRACE 1
every round is followed by a traced round, with the per-layer tracer
installed.  The result goes to RESULT_JSON.  Run from the root of the
repository.
"""

from time import perf_counter

_START = perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

# The reference's time on an idle core of the machine described in
# README.md; the scaled verdict time is in seconds at that speed.
REF_S = 0.016


def peak_rss_mb():
    """This process's resident high-water mark.

    Read from VmHWM, not getrusage: ru_maxrss carries over the parent's
    peak through fork and exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


class Reference:
    """A fixed amount of work that is not abelslab code.

    Its time, taken next to every suite call, follows the speed the
    machine gives this process at that moment.
    """

    def __init__(self):
        import numpy as np

        size = 1 << 18
        self.data = np.arange(size, dtype=np.int64)
        self.index = (self.data * 40503) % size

    @staticmethod
    def loop():
        acc, table = 0, {}
        for i in range(20000):
            key = (i & 1023, i % 7)
            table[key] = table.get(key, 0) + i
            acc += i * i % 7
        return acc

    def __call__(self):
        """(pure-Python loop time, numpy gather time)."""
        start = perf_counter()
        self.loop()
        middle = perf_counter()
        for _ in range(4):
            self.data[self.index].sum()
        return middle - start, perf_counter() - middle


def run_round(workload, seed, suites, tally, reference, tracer=None):
    """Every suite call once through `abelslab.cli.run`.

    Returns each call's wall time, the reference times around the calls
    (one more than there are calls) and the round's reports; failures
    and disagreements go into `tally`.
    """
    from abelslab.cli import run

    times, refs, reports = [], [], []
    sink = io.StringIO()
    for index, suite in enumerate(suites):
        out = os.path.join(OUT, "reports", f"{workload}-{index}-{suite.name}.json")
        argv = suite.argv + ["--out", out]
        if os.path.exists(out):
            os.remove(out)
        gc.collect()
        refs.append(reference())
        tally["attempted"] += 1
        start = perf_counter()
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                code = run(argv)
            else:
                code = tracer.span(f"suite:{suite.name}", run, argv)
        problems = []
        if code not in (0, 1):
            problems.append(f"exit code {code}")
        else:
            with open(out) as fh:
                report = json.load(fh)
            problems = suite.check(report)
            if report["config"].get("seed") != seed:
                problems.append(f"seed {report['config'].get('seed')} not echoed")
            if code != 0 and not problems:
                problems.append(f"exit code {code}")
            if problems:
                tally["wrong"] += 1
            reports.append(report)
        times.append(perf_counter() - start)
        sink.seek(0)
        sink.truncate()
        if problems:
            tally["failed"] += 1
            text = f"{' '.join(suite.argv)}: " + "; ".join(problems[:5])
            if text not in tally["problems"]:
                tally["problems"].append(text)
    refs.append(reference())
    return times, refs, reports


def scaled(rounds):
    """Sum over the suite calls of each call's median time relative to
    the reference around it, in units of REF_S."""
    ratios = [
        [t / (sum(before) + sum(after)) * 2 for t, before, after in zip(times, refs, refs[1:])]
        for times, refs in rounds
    ]
    return REF_S * sum(median(column) for column in zip(*ratios))


def fastest(rounds):
    """Sum over the suite calls of each call's fastest wall time."""
    return sum(min(column) for column in zip(*(times for times, _ in rounds)))


def main(argv):
    mode, workload, seed = argv[1], argv[2], int(argv[3])
    seconds, trace, result_path = float(argv[4]), int(argv[5]), argv[6]
    import abelslab.cli  # noqa: F401
    from workloads import build

    suites, control = build(workload, seed)
    result = {"mode": mode, "setup_s": perf_counter() - _START}
    if mode == "run":
        ok, detail = control()
        result.update(control_ok=ok, control_detail=detail)
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
        os.makedirs(os.path.join(OUT, "reports"), exist_ok=True)
        reference = Reference()
        tally = {"attempted": 0, "failed": 0, "wrong": 0, "problems": []}
        untraced, traced, layers, durations = [], [], [], []
        start = perf_counter()
        while True:
            began = perf_counter()
            untraced.append(run_round(workload, seed, suites, tally, reference)[:2])
            if tracer is not None:
                tracer.begin_round()
                times, refs, reports = run_round(workload, seed, suites, tally, reference, tracer)
                layers.append(tracer.end_round(reports))
                traced.append((times, refs))
            durations.append(perf_counter() - began)
            # stop when another round is not expected to fit
            if perf_counter() - start + median(durations) > seconds:
                break
        result.update(tally)
        result["rounds"] = len(untraced)
        result["calls_s"] = [times for times, _ in untraced]
        result["reference_s"] = [median(r[k] for _, refs in untraced for r in refs) for k in (0, 1)]
        result["verdict_norm_s"] = scaled(untraced)
        result["verdict_min_s"] = fastest(untraced)
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            result["layers"] = {
                name: median(r[name] for r in layers) for name in layers[0]
            }
            result["traced_verdict_norm_s"] = scaled(traced)
            tracer.write(os.path.join(OUT, f"trace-{workload}-{seed}.json"))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv)
