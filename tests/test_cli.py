import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import abelslab
from abelslab import cli, kernels
from abelslab.cli import run
from abelslab.config import BudgetError, get_budget


def invoke(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- documented examples -------------------------------------------------------


def test_steinberg_example(capsys):
    code, out, _ = invoke(capsys, "verify", "steinberg", "--type", "G2", "--ring", "zmod:5")
    assert code == 0
    assert "steinberg: PASS" in out
    assert "G2:torus-display-conjugation" in out


def test_char2_request_is_usage_error(capsys):
    code, _, err = invoke(capsys, "verify", "steinberg", "--type", "B3", "--ring", "zmod:2")
    assert code == 2
    assert "usage error" in err
    assert "char-2" in err


def test_complex_pi1_sentence(capsys):
    code, out, _ = invoke(
        capsys, "verify", "complex", "--n", "4", "--ring", "zmod:2", "--check", "pi1"
    )
    assert code == 0
    assert "simply connected: yes" in out


def test_complex_all_verdict_lines(capsys):
    code, out, _ = invoke(capsys, "verify", "complex", "--n", "4", "--ring", "zmod:2")
    assert code == 0
    assert "components: 1" in out
    assert "first homology rank: 0" in out
    assert "simply connected: yes" in out


# -- argument handling -----------------------------------------------------------


def test_bad_ring_descriptor(capsys):
    code, _, err = invoke(capsys, "verify", "steinberg", "--ring", "nonsense")
    assert code == 2
    assert "usage error" in err


def test_unknown_type(capsys):
    code, _, err = invoke(capsys, "verify", "steinberg", "--type", "Z9")
    assert code == 2
    assert "unknown type" in err


def test_unknown_subcommand(capsys):
    code, _, err = invoke(capsys, "frobnicate")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert "verify" in out


def test_infinite_ring_rejected(capsys):
    code, _, err = invoke(capsys, "verify", "commutators", "--ring", "z")
    assert code == 2
    assert "finite" in err


def test_small_n_rejected(capsys):
    code, _, err = invoke(capsys, "verify", "abels", "--n", "2")
    assert code == 2


def test_internal_error_exits_three(capsys, monkeypatch):
    def boom(n, ring):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "check_elementary_relations", boom)
    code, _, err = invoke(capsys, "verify", "commutators")
    assert code == 3
    assert "internal error" in err


# -- report output ---------------------------------------------------------------


def test_json_report_written(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = invoke(
        capsys, "verify", "commutators", "--n", "3", "--ring", "zmod:2",
        "--out", str(out), "--seed", "7",
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema_version"] == 1
    assert data["suite"] == "commutators"
    assert data["ok"] is True
    assert data["config"]["seed"] == 7
    assert "timestamp" in data
    assert all(c["status"] == "pass" for c in data["checks"])


def test_tsv_report_written(capsys, tmp_path):
    out = tmp_path / "report.tsv"
    code, _, _ = invoke(
        capsys, "verify", "commutators", "--n", "3", "--ring", "zmod:2",
        "--out", str(out), "--format", "tsv",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].split("\t") == ["id", "anchor", "status", "cases", "failures", "elapsed"]
    assert len(lines) > 1


def _normalized(path):
    data = json.loads(path.read_text())
    data.pop("timestamp", None)
    for check in data["checks"]:
        check.pop("elapsed", None)
    return json.dumps(data, sort_keys=True)


def test_reports_deterministic_modulo_timestamps(capsys, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "presentations", "--n", "4", "--ring", "zmod:2"]
    assert invoke(capsys, *argv, "--out", str(first))[0] == 0
    assert invoke(capsys, *argv, "--out", str(second))[0] == 0
    assert _normalized(first) == _normalized(second)


def test_report_merge(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    invoke(capsys, "verify", "commutators", "--n", "3", "--ring", "zmod:2", "--out", str(a))
    invoke(capsys, "verify", "presentations", "--n", "4", "--ring", "zmod:2", "--out", str(b))
    merged = tmp_path / "m.json"
    code, out, _ = invoke(capsys, "report", "merge", str(a), str(b), "--out", str(merged))
    assert code == 0
    data = json.loads(merged.read_text())
    ids = [c["id"] for c in data["checks"]]
    assert any(i.startswith("commutators:") for i in ids)
    assert any(i.startswith("presentations:") for i in ids)


def test_report_merge_rejects_junk(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = invoke(capsys, "report", "merge", str(bad))
    assert code == 2


# -- budgets ----------------------------------------------------------------------


def test_budget_overflow_is_inconclusive_not_failing(capsys):
    code, out, _ = invoke(
        capsys, "verify", "tits", "--n", "4", "--ring", "zmod:2", "--max-cosets", "50"
    )
    assert code == 0
    assert "INCONCLUSIVE" in out
    assert "with inconclusive checks" in out


@pytest.mark.parametrize("value", ["0", "-1", "lots"])
@pytest.mark.parametrize("command, flag", [
    ("abels", "--max-order"),
    ("presentations", "--max-cosets"),
    ("complex", "--max-order"),
    ("tits", "--max-cosets"),
    ("tits", "--max-order"),
])
def test_budget_flag_below_one_is_usage_error(capsys, command, flag, value):
    code, _, err = invoke(capsys, "verify", command, "--ring", "zmod:2", flag, value)
    assert code == 2
    assert f"Invalid value for '{flag}'" in err


def test_tits_refuses_two_budgets(capsys):
    # the suite has one budget; neither flag may be silently dropped
    code, out, err = invoke(
        capsys, "verify", "tits", "--n", "4", "--ring", "zmod:2",
        "--max-cosets", "100000", "--max-order", "5",
    )
    assert code == 2
    assert "usage error: give one budget: --max-cosets or --max-order, not both" in err
    assert out == ""


@pytest.mark.parametrize("value", ["0", "-1", "lots", "2.5"])
def test_budget_environment_below_one_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("ABELSLAB_BUDGET", value)
    code, out, err = invoke(capsys, "verify", "abels", "--n", "3", "--ring", "zmod:2")
    assert code == 2
    assert f"usage error: ABELSLAB_BUDGET must be an integer >= 1, got {value!r}" in err
    assert out == ""


def test_budget_environment_applies_and_api_budgets_stay_as_given(capsys, monkeypatch):
    monkeypatch.setenv("ABELSLAB_BUDGET", "lots")
    with pytest.raises(BudgetError):
        get_budget()
    assert get_budget(0) == 0
    monkeypatch.setenv("ABELSLAB_BUDGET", "10")
    assert get_budget() == 10
    code, out, _ = invoke(capsys, "verify", "presentations", "--n", "4", "--ring", "zmod:2")
    assert code == 0
    assert "INCONCLUSIVE" in out


def test_abels_over_an_infinite_ring_is_usage_error(capsys):
    code, _, err = invoke(capsys, "verify", "abels", "--n", "4", "--ring", "zloc:6")
    assert code == 2
    assert "usage error: zloc:6 is not finite" in err


@pytest.mark.parametrize("ring, message", [
    ("z", "z is not finite"),
    ("zloc:6", "no additive presentation for zloc:6"),
])
def test_tits_over_an_infinite_ring_is_usage_error(capsys, monkeypatch, ring, message):
    # refused before any closure: over z one would run to the budget
    def no_closure(*args, **kwargs):
        raise AssertionError("a closure ran over an infinite ring")

    monkeypatch.setattr(kernels, "closure_python", no_closure)
    code, out, err = invoke(capsys, "verify", "tits", "--n", "4", "--ring", ring)
    assert code == 2
    assert f"usage error: {message}" in err
    assert out == ""


def test_presentation_budget_flag(capsys, tmp_path):
    out = tmp_path / "p.json"
    code, _, _ = invoke(
        capsys, "verify", "presentations", "--n", "4", "--ring", "zmod:2",
        "--max-cosets", "10", "--out", str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    by_id = {c["id"]: c for c in data["checks"]}
    assert by_id["canonical-index"]["status"] == "inconclusive"
    assert by_id["canonical-relators-hold"]["status"] == "pass"


# -- export and composites ----------------------------------------------------------


def test_export_complex_tsv(capsys, tmp_path):
    out = tmp_path / "cx.txt"
    code, msg, _ = invoke(
        capsys, "export", "complex", "--n", "4", "--ring", "zmod:2", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 40 + 192 + 224 + 64
    assert lines[0] == "0 0"
    assert all(len(line.split()) >= 2 for line in lines)


def test_export_complex_json(capsys):
    code, out, _ = invoke(
        capsys, "export", "complex", "--n", "4", "--ring", "zmod:2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert sorted(data) == ["colors", "family", "n", "ring", "simplices", "vertices"]
    assert len(data["vertices"]) == 40
    assert [len(level) for level in data["simplices"]] == [40, 192, 224, 64]


def test_verify_all(capsys, tmp_path):
    out = tmp_path / "all.json"
    code, text, _ = invoke(capsys, "verify", "all", "--out", str(out))
    assert code == 0
    assert "all: PASS" in text
    data = json.loads(out.read_text())
    suites = {c["id"].split(":", 1)[0] for c in data["checks"]}
    assert {
        "steinberg", "commutators", "forms", "borel-iso",
        "abels", "presentations", "complex", "tits",
    } <= suites


def test_console_script():
    # Run the [project.scripts] target the way pip's generated wrapper does,
    # so the check needs no install.  PYTHONPATH points the child at the same
    # copy of the package that this test imported.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["abelslab"]
    module, _, attr = target.partition(":")
    wrapper = (
        f"import sys\nfrom {module} import {attr} as main\n"
        "sys.argv[0] = 'abelslab'\nsys.exit(main())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(abelslab.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "verify", "commutators", "--n", "3", "--ring", "zmod:2"],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0
    assert "commutators: PASS" in proc.stdout


def test_cli_import_loads_no_optional_heavy_modules():
    # importing abelslab.cli is the whole set-up cost of a command; none of
    # these modules is needed for it
    heavy = ("numpy.ma", "sympy", "hypothesis", "scipy")
    probe = f"import sys, abelslab.cli\nprint([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(abelslab.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.skipif(shutil.which("abelslab") is None, reason="abelslab console script not installed")
def test_installed_console_script():
    proc = subprocess.run(
        ["abelslab", "verify", "commutators", "--n", "3", "--ring", "zmod:2"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert "commutators: PASS" in proc.stdout
