"""Golden reports: every check record of small suites, pinned byte for byte.

Each case runs one suite and compares its JSON report, with the volatile
fields (timestamp and per-check elapsed) stripped, against a file under
tests/golden/.  The files pin ids, anchors, statuses, counts, counterexample
texts and config, so any change to how a record is written shows up here.

Regenerate the files with `python tests/test_golden.py` only when a change
to a report is intended, and say so where the change is recorded.
"""

import json
import sys
from pathlib import Path

import pytest

from abelslab.chevalley import (
    MatrixModel,
    borel_isomorphism_check,
    check_steinberg,
    check_weyl_conjugation,
    matrix_model,
)
from abelslab.cli import run
from abelslab.reports import Report, merge_reports
from abelslab.rings import make_ring

GOLDEN = Path(__file__).parent / "golden"

CLI_CASES = {
    "steinberg-A2-zmod3": ["steinberg", "--type", "A2", "--ring", "zmod:3"],
    "steinberg-A1-zloc6": ["steinberg", "--type", "A1", "--ring", "zloc:6"],
    "steinberg-all-zmod3": ["steinberg", "--type", "all", "--ring", "zmod:3"],
    "steinberg-all-zmod4": ["steinberg", "--type", "all", "--ring", "zmod:4"],
    "commutators-n3-zmod2": ["commutators", "--n", "3", "--ring", "zmod:2"],
    "borel-iso-n3-zmod2": ["borel-iso", "--n", "3", "--ring", "zmod:2"],
    "borel-iso-n4-zmod3": ["borel-iso", "--n", "4", "--ring", "zmod:3"],
    "borel-iso-n4-zmod4": ["borel-iso", "--n", "4", "--ring", "zmod:4"],
    "borel-iso-n4-zmod5": ["borel-iso", "--n", "4", "--ring", "zmod:5"],
    "forms-C2-zmod5": ["forms", "--type", "C2", "--ring", "zmod:5"],
    "forms-all-zmod7": ["forms", "--type", "all", "--ring", "zmod:7"],
    "forms-all-zmod3": ["forms", "--type", "all", "--ring", "zmod:3"],
    "forms-all-zmod13": ["forms", "--type", "all", "--ring", "zmod:13"],
    "abels-n4-zmod2": ["abels", "--n", "4", "--ring", "zmod:2"],
    "abels-n4-zmod2-max-order-20": [
        "abels", "--n", "4", "--ring", "zmod:2", "--max-order", "20",
    ],
    "presentations-n4-zmod2": ["presentations", "--n", "4", "--ring", "zmod:2"],
    "presentations-n4-zmod2-max-cosets-10": [
        "presentations", "--n", "4", "--ring", "zmod:2", "--max-cosets", "10",
    ],
    "complex-n4-zmod2": ["complex", "--n", "4", "--ring", "zmod:2"],
    "complex-n4-zmod2-contracting": [
        "complex", "--n", "4", "--ring", "zmod:2", "--family", "contracting",
    ],
    "complex-n5-zmod2": ["complex", "--n", "5", "--ring", "zmod:2"],
    "complex-n4-zmod2-max-order-5": [
        "complex", "--n", "4", "--ring", "zmod:2", "--max-order", "5",
    ],
    "tits-n4-zmod2": ["tits", "--n", "4", "--ring", "zmod:2"],
    "tits-n4-zmod2-max-cosets-50": [
        "tits", "--n", "4", "--ring", "zmod:2", "--max-cosets", "50",
    ],
    "tits-n4-zmod2-horospherical": [
        "tits", "--n", "4", "--ring", "zmod:2", "--family", "horospherical",
    ],
    "tits-n5-zmod2-horospherical": [
        "tits", "--n", "5", "--ring", "zmod:2", "--family", "horospherical",
    ],
    "abels-n4-zmod16-max-order-5000": [
        "abels", "--n", "4", "--ring", "zmod:16", "--max-order", "5000",
    ],
    "complex-n4-zmod16-contracting-max-order-5000": [
        "complex", "--n", "4", "--ring", "zmod:16", "--family", "contracting",
        "--max-order", "5000",
    ],
}

LIBRARY_CASES = (
    "perturbed-models",
    "quadratic-A1-zmod7",
)


def _normalized(data):
    data.pop("timestamp", None)
    for check in data["checks"]:
        check.pop("elapsed", None)
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _cli_report(name, tmp_dir):
    out = Path(tmp_dir) / f"{name}.json"
    code = run(["verify", *CLI_CASES[name], "--out", str(out)])
    return code, _normalized(json.loads(out.read_text()))


def _quadratic_a1_model():
    """The A1 model over Z/7 with its positive root display x(r) = 1 + r^2 e12:
    not additive, so every chevalley check that sees it writes a failure."""
    good = matrix_model("A1", make_ring("zmod:7"))
    root = good.tabulated_roots[0]
    (i, j, coeff, _), = good.display(root)
    return MatrixModel(
        good.label,
        good.ring,
        good.system,
        good.n,
        {root: ((i, j, coeff, 2),)},
        {root: good.h_exponents(root)},
        good.torus_rows,
    )


def _raised_model(label, root, ring):
    """The model with the power of the first display entry of `root` raised
    by one: the root subgroup is no longer additive."""
    good = matrix_model(label, ring)
    displays = dict(good._displays)
    (i, j, coeff, power), *rest = displays[root]
    displays[root] = ((i, j, coeff, power + 1), *rest)
    return MatrixModel(
        good.label,
        good.ring,
        good.system,
        good.n,
        displays,
        dict(good._h_exps),
        good.torus_rows,
        good._neg_displays,
    )


def _perturbed_models_report():
    """Steinberg, Weyl and every Borel factorization of two raised models
    over Z/5; they fail the torus display, nonsimple membership, source
    closure and map records that the quadratic A1 model does not reach."""
    rep = Report("perturbed-models")
    Z5 = make_ring("zmod:5")
    for label, root in (("G2", (1, -1, 0)), ("C2", (0, 2))):
        bad = _raised_model(label, root, Z5)
        rep.extend(check_steinberg(bad), prefix=f"{label}:")
        rep.extend(check_weyl_conjugation(bad), prefix=f"{label}:")
        for idx in range(len(bad.system.simples)):
            rep.extend(borel_isomorphism_check(bad, idx), prefix=f"{label}-r{idx}:")
    return rep


def _library_report(name):
    if name == "quadratic-A1-zmod7":
        bad = _quadratic_a1_model()
        rep = merge_reports(
            [check_steinberg(bad), check_weyl_conjugation(bad), borel_isomorphism_check(bad, 0)],
            suite="quadratic-A1",
        )
    else:
        rep = _perturbed_models_report()
    return _normalized(rep.to_dict(timestamp=False))


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_report_matches_golden(name, tmp_path, capsys):
    code, text = _cli_report(name, tmp_path)
    capsys.readouterr()
    assert code == 0
    assert text == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", LIBRARY_CASES)
def test_library_report_matches_golden(name):
    assert _library_report(name) == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CLI_CASES:
            code, text = _cli_report(name, tmp)
            if code != 0:
                sys.exit(f"{name}: exit code {code}")
            (GOLDEN / f"{name}.json").write_text(text)
    for name in LIBRARY_CASES:
        (GOLDEN / f"{name}.json").write_text(_library_report(name))
