"""The benchmark under perfbench/ reaches the package by name.

Its tracer wraps every function it lists with `getattr` on the module,
so a renamed or deleted traced function raises AttributeError when the
tracer is installed.  Every suite call of every workload must exit 0
with a report that the workload's own checker accepts, and each
workload's negative control must still make the program answer FAIL.
These tests only read perfbench/.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(autouse=True)
def perfbench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def _traced(tracer):
    """The objects the tracer wraps, as they are now."""
    def module(name):
        return sys.modules[f"abelslab.{name}"]

    return [getattr(module(mod), fn) for mod, fn, *_ in tracer.FUNCTIONS] + [
        getattr(getattr(module(mod), cls), meth)
        for mod, cls, meth, _ in tracer.METHODS + tracer.COUNTED
    ]


def test_tracer_installs_and_uninstalls():
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        assert all(hasattr(obj, "__wrapped__") for obj in _traced(tracer))
    finally:
        t.uninstall()
    assert t.replaced == []
    assert not any(hasattr(obj, "__wrapped__") for obj in _traced(tracer))


def test_relations_control_fails_the_quadratic_display():
    import workloads

    ok, text = workloads.control_relations()
    assert ok, text


WORKLOADS = ("abels", "topology", "presentations", "relations")


def test_every_workload_is_gated():
    import workloads

    assert workloads.WORKLOADS == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_are_correct(workload, tmp_path, capsys):
    """Every suite call of a workload exits 0 with a report its checker
    accepts, and the workload's negative control answers as it must."""
    import workloads

    from abelslab.cli import run

    suites, control = workloads.build(workload, 1)
    for index, suite in enumerate(suites):
        out = tmp_path / f"{index}-{suite.name}.json"
        assert run(suite.argv + ["--out", str(out)]) == 0, suite.argv
        report = json.loads(out.read_text())
        assert suite.check(report) == [], suite.argv
        assert report["config"].get("seed") == 1
    capsys.readouterr()
    ok, text = control()
    assert ok, text
