import pytest

from abelslab import reports
from abelslab.config import BudgetExceeded
from abelslab.reports import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    Report,
    merge_reports,
    report_from_dict,
)


class Clock:
    """A perf_counter stand-in that only moves when told to."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = Clock()
    monkeypatch.setattr(reports, "perf_counter", fake)
    return fake


# -- status -------------------------------------------------------------------------


def test_status_is_derived_from_the_counterexample():
    rep = Report("s")
    ok = rep.check("a", "anchor", counts={"cases": 3})
    bad = rep.check("b", "anchor", counterexample="x=1")
    assert (ok.status, ok.counterexample, ok.counts) == (PASS, None, {"cases": 3})
    assert (bad.status, bad.counterexample) == (FAIL, "x=1")
    assert not rep.ok


def test_explicit_status_is_kept():
    rep = Report("s")
    rec = rep.check("a", "anchor", INCONCLUSIVE, counterexample="budget hit")
    assert (rec.status, rec.counterexample) == (INCONCLUSIVE, "budget hit")
    assert rep.ok and rep.inconclusive_count == 1


def test_fail_without_counterexample_raises():
    rep = Report("s")
    with pytest.raises(ValueError, match="lacks a counterexample"):
        rep.check("a", "anchor", FAIL)
    assert rep.checks == []


def test_duplicate_id_raises():
    rep = Report("s")
    rep.check("a", "anchor")
    with pytest.raises(ValueError, match="duplicate check id"):
        rep.check("a", "other")
    with pytest.raises(ValueError, match="duplicate check id"):
        rep.run("a", "other", lambda: True, 1)


# -- run ---------------------------------------------------------------------------


def test_run_true_thunk_passes():
    rep = Report("s")
    rec = rep.run("c", "anchor", lambda: True, 7)
    assert (rec.status, rec.counts, rec.counterexample) == (PASS, {"cases": 7}, None)


def test_run_false_thunk_fails_naming_the_check():
    rep = Report("s")
    rec = rep.run("c", "anchor", lambda: False, 7)
    assert rec.status == FAIL
    assert rec.counts == {"cases": 7}
    assert rec.counterexample == "c predicate returned false"


def test_run_budget_overflow_is_inconclusive():
    def thunk():
        raise BudgetExceeded("inconclusive-budget: closure overflowed")

    rep = Report("s")
    rec = rep.run("c", "anchor", thunk, 7)
    assert rec.status == INCONCLUSIVE
    assert rec.counts == {"cases": 0}
    assert rec.counterexample == "inconclusive-budget: closure overflowed"
    assert rep.ok


def test_run_lets_other_errors_through():
    def thunk():
        raise KeyError("boom")

    rep = Report("s")
    with pytest.raises(KeyError):
        rep.run("c", "anchor", thunk, 7)
    assert rep.checks == []


# -- the lap rule --------------------------------------------------------------------


def test_elapsed_since_construction_then_since_previous_record(clock):
    rep = Report("s")
    clock.now += 2.0
    rep.check("a", "anchor")
    clock.now += 3.0
    rep.check("b", "anchor", counterexample="x")
    clock.now += 0.5
    rep.check("c", "anchor", INCONCLUSIVE)
    assert [c.elapsed for c in rep.checks] == [2.0, 3.0, 0.5]


def test_elapsed_since_extend(clock):
    part = Report("p")
    clock.now += 1.0
    part.check("a", "anchor")
    rep = Report("s")
    clock.now += 4.0
    rep.extend(part, prefix="p:")
    clock.now += 0.25
    rep.check("b", "anchor")
    clock.now += 6.0
    rep.extend(Report("empty"))
    clock.now += 0.75
    rep.check("c", "anchor")
    assert [(c.id, c.elapsed) for c in rep.checks] == [
        ("p:a", 1.0),
        ("b", 0.25),
        ("c", 0.75),
    ]


def test_elapsed_since_start_of_run_thunk(clock):
    def thunk(seconds, result=True):
        def go():
            clock.now += seconds
            if result is None:
                raise BudgetExceeded("over")
            return result

        return go

    rep = Report("s")
    clock.now += 10.0  # set-up before a run is not charged to it
    rep.run("a", "anchor", thunk(2.0), 1)
    clock.now += 10.0
    rep.run("b", "anchor", thunk(3.0, False), 1)
    rep.run("c", "anchor", thunk(4.0, None), 1)
    clock.now += 1.5
    rep.check("d", "anchor")
    assert [c.elapsed for c in rep.checks] == [2.0, 3.0, 4.0, 1.5]


# -- stored timings ------------------------------------------------------------------


def _timed_report(clock, suite, laps):
    rep = Report(suite, {"k": 1})
    for idx, lap in enumerate(laps):
        clock.now += lap
        rep.check(f"c{idx}", "anchor", counts={"cases": idx})
    return rep


def test_report_from_dict_keeps_every_elapsed(clock):
    rep = _timed_report(clock, "s", [1.5, 0.25, 3.0])
    clock.now += 100.0
    again = report_from_dict(rep.to_dict())
    assert [c.elapsed for c in again.checks] == [1.5, 0.25, 3.0]
    assert again.to_json(timestamp=False) == rep.to_json(timestamp=False)


def test_merge_reports_keeps_every_elapsed(clock):
    first = _timed_report(clock, "one", [1.0, 2.0])
    second = _timed_report(clock, "two", [0.5])
    clock.now += 100.0
    merged = merge_reports([first, second])
    assert [(c.id, c.elapsed) for c in merged.checks] == [
        ("one:c0", 1.0),
        ("one:c1", 2.0),
        ("two:c0", 0.5),
    ]
    assert merged.config == {"part0": "one", "part1": "two"}

