"""Structured results for verification suites.

A Report is a list of check records plus a config echo; it serializes to
canonical JSON (sorted keys, fixed field order) so that repeated runs are
byte-identical once the volatile fields (timestamp, elapsed) are stripped.
Failing records must carry a minimal counterexample string.

Checks time themselves.  A report keeps a mark: it is set when the report
is constructed, when any record is written (`check`, `extend`), and when
a `run` thunk starts.  A record's `elapsed` is the time since the mark, so
the time a suite spends between records is charged to the next one, and a
`run` check is timed from the start of its thunk.
`check` derives the status when none is given: FAIL if there is a
counterexample, PASS otherwise.  INCONCLUSIVE is always explicit.
"""

import json
import time
from dataclasses import dataclass, field
from time import perf_counter

from . import __version__
from .config import BudgetExceeded

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_STATUSES = (PASS, FAIL, INCONCLUSIVE)


@dataclass
class CheckRecord:
    id: str
    anchor: str
    status: str
    counts: dict = field(default_factory=dict)
    elapsed: float = 0.0
    counterexample: str = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        if self.status == FAIL and not self.counterexample:
            raise ValueError(f"fail record {self.id!r} lacks a counterexample")

    def to_dict(self):
        out = {
            "id": self.id,
            "anchor": self.anchor,
            "status": self.status,
            "counts": {k: int(v) for k, v in sorted(self.counts.items())},
            "elapsed": round(float(self.elapsed), 6),
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


class Report:
    def __init__(self, suite, config=None):
        self.suite = suite
        self.config = dict(config or {})
        self.checks = []
        self._ids = set()
        self.created = time.time()
        self._mark = perf_counter()

    def add(self, record):
        if record.id in self._ids:
            raise ValueError(f"duplicate check id {record.id!r}")
        self._ids.add(record.id)
        self.checks.append(record)
        self._mark = perf_counter()
        return record

    def check(self, id, anchor, status=None, *, counts=None, counterexample=None):
        """Record a check timed since the mark; no status means PASS or FAIL
        as the counterexample is absent or present."""
        if status is None:
            status = PASS if counterexample is None else FAIL
        elapsed = perf_counter() - self._mark
        return self.add(
            CheckRecord(id, anchor, status, dict(counts or {}), elapsed, counterexample)
        )

    def run(self, check_id, anchor, thunk, cases):
        """Record the boolean verdict of `thunk()`, timed from its start; a
        BudgetExceeded it raises makes the check INCONCLUSIVE."""
        self._mark = perf_counter()
        try:
            ok = thunk()
        except BudgetExceeded as exc:
            return self.check(
                check_id,
                anchor,
                INCONCLUSIVE,
                counts={"cases": 0},
                counterexample=str(exc),
            )
        return self.check(
            check_id,
            anchor,
            counts={"cases": cases},
            counterexample=None if ok else f"{check_id} predicate returned false",
        )

    def extend(self, other, prefix=""):
        for c in other.checks:
            self.add(
                CheckRecord(
                    prefix + c.id,
                    c.anchor,
                    c.status,
                    dict(c.counts),
                    c.elapsed,
                    c.counterexample,
                )
            )
        self._mark = perf_counter()

    @property
    def ok(self):
        return all(c.status != FAIL for c in self.checks)

    @property
    def inconclusive_count(self):
        return sum(1 for c in self.checks if c.status == INCONCLUSIVE)

    def sorted_checks(self):
        return sorted(self.checks, key=lambda c: c.id)

    def to_dict(self, timestamp=True):
        out = {
            "schema_version": SCHEMA_VERSION,
            "toolkit_version": __version__,
            "suite": self.suite,
            "config": {k: self.config[k] for k in sorted(self.config)},
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.sorted_checks()],
        }
        if timestamp:
            out["timestamp"] = self.created
        return out

    def to_json(self, timestamp=True):
        return json.dumps(self.to_dict(timestamp=timestamp), indent=2, sort_keys=False)

    def to_tsv(self):
        lines = ["id\tanchor\tstatus\tcases\tfailures\telapsed"]
        for c in self.sorted_checks():
            lines.append(
                "\t".join(
                    [
                        c.id,
                        c.anchor,
                        c.status,
                        str(c.counts.get("cases", "")),
                        str(c.counts.get("failures", "")),
                        f"{c.elapsed:.6f}",
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def summary_lines(self):
        lines = []
        for c in self.sorted_checks():
            cases = c.counts.get("cases")
            extra = f" ({cases} cases)" if cases is not None else ""
            lines.append(f"  {c.status.upper():12} {c.id}{extra}")
            if c.counterexample:
                lines.append(f"               counterexample: {c.counterexample}")
        verdict = "PASS" if self.ok else "FAIL"
        if self.ok and self.inconclusive_count:
            verdict = "PASS (with inconclusive checks)"
        lines.append(f"{self.suite}: {verdict}")
        return lines


def merge_reports(reports, suite="merged"):
    out = Report(suite)
    for idx, rep in enumerate(reports):
        out.config[f"part{idx}"] = rep.suite
        out.extend(rep, prefix=f"{rep.suite}:")
    return out


def report_from_dict(data):
    rep = Report(data["suite"], data.get("config", {}))
    for c in data.get("checks", []):
        rep.add(
            CheckRecord(
                c["id"],
                c.get("anchor", ""),
                c["status"],
                dict(c.get("counts") or {}),
                c.get("elapsed", 0.0),
                c.get("counterexample"),
            )
        )
    return rep
