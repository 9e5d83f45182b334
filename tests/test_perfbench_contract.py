"""The benchmark under perfbench/ reaches the package by name.

Its tracer wraps every function it lists with `getattr` on the module,
so a renamed or deleted traced function raises AttributeError when the
tracer is installed, and each workload's negative control must still
make the program answer FAIL.  These tests only read perfbench/.
"""

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
