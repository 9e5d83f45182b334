"""Command-line front end for the verification suites.

Each subcommand assembles one Report: it prints the per-check summary
table, optionally writes the full report to a file (JSON or TSV), and
returns exit code 0 exactly when no check failed.  Inconclusive checks
are flagged in the summary but do not fail the run.  Bad arguments exit
2, unexpected internal errors exit 3.  Budget flags fall back to the
ABELSLAB_BUDGET environment variable, then to the built-in default; a
budget from either must be an integer >= 1.
"""

import json
import sys

import click

from .abels import AbelsError, subgroup_family, verify_abels
from .chevalley import (
    FORM_TYPES,
    SUPPORTED_LABELS,
    ChevalleyError,
    borel_cases,
    borel_gln_check,
    borel_isomorphism_check,
    check_affine_iso,
    check_borel_retraction,
    check_elementary_relations,
    check_form_invariance,
    check_steinberg,
    check_weyl_conjugation,
    matrix_model,
)
from .complexes import ComplexError, coset_complex, export_complex, verify_complex
from .config import BudgetError, BudgetExceeded, get_budget
from .matrices import MatrixError
from .presentation import (
    PresentationError,
    tits_criterion_check,
    verify_presentations,
)
from .reports import INCONCLUSIVE, Report, merge_reports, report_from_dict
from .rings import RingError, make_ring

_BUDGET = click.IntRange(min=1)

_USAGE_ERRORS = (
    RingError,
    ChevalleyError,
    PresentationError,
    ComplexError,
    AbelsError,
    MatrixError,
)


def _parse_ring(descriptor):
    try:
        return make_ring(descriptor)
    except RingError as exc:
        raise click.UsageError(str(exc))


def _select_types(token, ring, valid):
    """Expand a --type value; explicit requests for unavailable models
    are usage errors, while "all" silently narrows to what the ring
    supports."""
    if token.lower() == "all":
        labels, skipped = [], []
        for label in valid:
            try:
                matrix_model(label, ring)
            except ChevalleyError:
                skipped.append(label)
            else:
                labels.append(label)
        if not labels:
            raise click.UsageError(
                f"no tabulated type is available over {ring.descriptor}"
            )
        return labels, skipped
    label = token.upper()
    if label not in valid:
        raise click.UsageError(
            f"unknown type {token!r}; choose from {', '.join(valid)} or all"
        )
    try:
        matrix_model(label, ring)
    except ChevalleyError as exc:
        raise click.UsageError(str(exc))
    return [label], []


def _apply_seed(rep, seed):
    # accepted for interface stability; every suite is exhaustive, so the
    # seed is echoed into the config without consuming randomness
    if seed is not None:
        rep.config["seed"] = int(seed)


def _emit(rep, out, fmt):
    for line in rep.summary_lines():
        click.echo(line)
    if out:
        payload = rep.to_json() if fmt == "json" else rep.to_tsv()
        if not payload.endswith("\n"):
            payload += "\n"
        with open(out, "w") as fh:
            fh.write(payload)
    return 0 if rep.ok else 1


# -- suite builders (shared between subcommands and `verify all`) -------------


def _steinberg_suite(descriptor, type_token, seed=None):
    ring = _parse_ring(descriptor)
    labels, skipped = _select_types(type_token, ring, SUPPORTED_LABELS)
    rep = Report(
        "steinberg", {"ring": ring.descriptor, "types": ",".join(labels)}
    )
    if skipped:
        rep.config["skipped_types"] = ",".join(skipped)
    _apply_seed(rep, seed)
    for label in labels:
        rep.extend(check_steinberg(label, ring), prefix=f"{label}:")
        rep.extend(check_weyl_conjugation(label, ring), prefix=f"{label}:")
    return rep


def _commutators_suite(descriptor, n, seed=None):
    ring = _parse_ring(descriptor)
    try:
        rep = check_elementary_relations(n, ring)
    except ChevalleyError as exc:
        raise click.UsageError(str(exc))
    _apply_seed(rep, seed)
    return rep


def _forms_suite(descriptor, type_token, seed=None):
    ring = _parse_ring(descriptor)
    labels, skipped = _select_types(type_token, ring, FORM_TYPES)
    rep = Report("forms", {"ring": ring.descriptor, "types": ",".join(labels)})
    if skipped:
        rep.config["skipped_types"] = ",".join(skipped)
    _apply_seed(rep, seed)
    for label in labels:
        try:
            rep.extend(check_form_invariance(label, ring), prefix=f"{label}:")
        except ChevalleyError as exc:
            raise click.UsageError(str(exc))
    return rep


def _borel_suite(descriptor, n, seed=None):
    ring = _parse_ring(descriptor)
    rep = Report("borel-iso", {"ring": ring.descriptor, "n": n})
    _apply_seed(rep, seed)
    skipped = []
    for label, idx in borel_cases():
        try:
            part = borel_isomorphism_check(label, idx, ring)
        except ChevalleyError:
            skipped.append(f"{label}-r{idx}")
            continue
        rep.extend(part, prefix=f"{label}-r{idx}:")
    if skipped:
        rep.config["skipped_cases"] = ",".join(skipped)
    try:
        rep.extend(borel_gln_check(n, 1, 2, ring), prefix="gln:")
        rep.run(
            "affine-reflection-isomorphism",
            "affine-groups-are-isomorphic",
            lambda: check_affine_iso(ring),
            ring.order() * len(ring.units()),
        )
        rep.run(
            "triangular-retraction",
            "leading-block-retraction",
            lambda: check_borel_retraction(n, ring),
            ring.order() ** (n * (n - 1) // 2),
        )
    except ChevalleyError as exc:
        raise click.UsageError(str(exc))
    return rep


def _abels_suite(descriptor, n, budget, seed=None):
    ring = _parse_ring(descriptor)
    if n < 3:
        raise click.UsageError(f"triangular family suite needs n >= 3, got {n}")
    try:
        rep = verify_abels(n, ring, budget)
    except _USAGE_ERRORS as exc:
        raise click.UsageError(str(exc))
    _apply_seed(rep, seed)
    return rep


def _presentations_suite(descriptor, n, budget, seed=None):
    ring = _parse_ring(descriptor)
    try:
        rep = verify_presentations(n, ring, budget)
    except PresentationError as exc:
        raise click.UsageError(str(exc))
    _apply_seed(rep, seed)
    return rep


def _complex_suite(descriptor, n, family, checks, budget, seed=None):
    ring = _parse_ring(descriptor)
    try:
        rep = verify_complex(n, ring, family=family, checks=checks, budget=budget)
    except _USAGE_ERRORS as exc:
        raise click.UsageError(str(exc))
    _apply_seed(rep, seed)
    return rep


def _tits_suite(descriptor, n, family, budget, seed=None):
    ring = _parse_ring(descriptor)
    try:
        group, members = subgroup_family(family, n, ring)
        rep = tits_criterion_check(group, members, budget)
    except _USAGE_ERRORS as exc:
        raise click.UsageError(str(exc))
    except BudgetExceeded as exc:
        rep = Report("tits")
        rep.check("budget", "exploration-budget", INCONCLUSIVE, counterexample=str(exc))
    rep.config.update({"n": n, "ring": ring.descriptor, "family": family})
    _apply_seed(rep, seed)
    return rep


# -- command tree --------------------------------------------------------------


@click.group()
def cli():
    """Exact verification toolkit for triangular matrix groups."""
    try:
        get_budget()
    except BudgetError as exc:
        raise click.UsageError(str(exc))


@cli.group()
def verify():
    """Run a verification suite and report per-check results."""


def _common_output(fn):
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "tsv"]),
        default="json",
        show_default=True,
        help="file format for --out",
    )(fn)
    fn = click.option(
        "--out",
        type=click.Path(dir_okay=False),
        default=None,
        help="write the full report to this path",
    )(fn)
    fn = click.option(
        "--seed", type=int, default=None, help="echoed into the report config"
    )(fn)
    return fn


@verify.command("steinberg")
@click.option("--type", "type_token", default="all", show_default=True)
@click.option("--ring", "descriptor", default="zmod:5", show_default=True)
@_common_output
def verify_steinberg(type_token, descriptor, seed, out, fmt):
    """Defining relations of the tabulated root-group models."""
    return _emit(_steinberg_suite(descriptor, type_token, seed), out, fmt)


@verify.command("commutators")
@click.option("--n", default=4, show_default=True, type=int)
@click.option("--ring", "descriptor", default="zmod:3", show_default=True)
@_common_output
def verify_commutators(n, descriptor, seed, out, fmt):
    """Elementary matrix relations, exhaustively over a finite ring."""
    return _emit(_commutators_suite(descriptor, n, seed), out, fmt)


@verify.command("forms")
@click.option("--type", "type_token", default="all", show_default=True)
@click.option("--ring", "descriptor", default="zmod:5", show_default=True)
@_common_output
def verify_forms(type_token, descriptor, seed, out, fmt):
    """Invariant bilinear forms preserved by the tabulated generators."""
    return _emit(_forms_suite(descriptor, type_token, seed), out, fmt)


@verify.command("borel-iso")
@click.option("--n", default=4, show_default=True, type=int)
@click.option("--ring", "descriptor", default="zmod:3", show_default=True)
@_common_output
def verify_borel(n, descriptor, seed, out, fmt):
    """Factorizations of rank-one triangular subgroups."""
    return _emit(_borel_suite(descriptor, n, seed), out, fmt)


@verify.command("abels")
@click.option("--n", default=4, show_default=True, type=int)
@click.option("--ring", "descriptor", default="zmod:2", show_default=True)
@click.option("--max-order", type=_BUDGET, default=None, help="group closure budget")
@_common_output
def verify_abels_cmd(n, descriptor, max_order, seed, out, fmt):
    """Structural battery for the triangular group family."""
    return _emit(_abels_suite(descriptor, n, max_order, seed), out, fmt)


@verify.command("presentations")
@click.option("--n", default=4, show_default=True, type=int)
@click.option("--ring", "descriptor", default="zmod:2", show_default=True)
@click.option("--max-cosets", type=_BUDGET, default=None, help="coset enumeration budget")
@_common_output
def verify_presentations_cmd(n, descriptor, max_cosets, seed, out, fmt):
    """Triangular presentations against the matrix groups."""
    return _emit(_presentations_suite(descriptor, n, max_cosets, seed), out, fmt)


@verify.command("complex")
@click.option("--n", default=4, show_default=True, type=int)
@click.option("--ring", "descriptor", default="zmod:2", show_default=True)
@click.option(
    "--family",
    type=click.Choice(["horospherical", "contracting"]),
    default="horospherical",
    show_default=True,
)
@click.option(
    "--check",
    "check_token",
    type=click.Choice(["pi1", "h1", "components", "all"]),
    default="all",
    show_default=True,
)
@click.option("--max-order", type=_BUDGET, default=None, help="group closure budget")
@_common_output
def verify_complex_cmd(n, descriptor, family, check_token, max_order, seed, out, fmt):
    """Topology of the coset complex of a subgroup family."""
    checks = (
        ("components", "h1", "pi1") if check_token == "all" else (check_token,)
    )
    rep = _complex_suite(descriptor, n, family, checks, max_order, seed)
    code = _emit(rep, out, fmt)
    if "components" in checks and "components" in rep.config:
        click.echo(f"components: {rep.config['components']}")
    if "h1" in checks and "h1_rank" in rep.config:
        click.echo(
            f"first homology rank: {rep.config['h1_rank']}"
            + (
                f" (torsion factors: {rep.config['h1_torsion']})"
                if rep.config.get("h1_torsion")
                else ""
            )
        )
    if "pi1" in checks and "pi1" in rep.config:
        click.echo(f"simply connected: {rep.config['pi1']}")
    return code


@verify.command("tits")
@click.option("--n", default=4, show_default=True, type=int)
@click.option("--ring", "descriptor", default="zmod:2", show_default=True)
@click.option(
    "--family",
    type=click.Choice(["horospherical", "contracting"]),
    default="contracting",
    show_default=True,
)
@click.option("--max-cosets", type=_BUDGET, default=None, help="coset enumeration budget")
@click.option("--max-order", type=_BUDGET, default=None, help="group closure budget")
@_common_output
def verify_tits(n, descriptor, family, max_cosets, max_order, seed, out, fmt):
    """Connectivity criterion: complex topology vs. group enumeration."""
    if max_cosets is not None and max_order is not None:
        raise click.UsageError("give one budget: --max-cosets or --max-order, not both")
    budget = max_cosets if max_cosets is not None else max_order
    return _emit(_tits_suite(descriptor, n, family, budget, seed), out, fmt)


@verify.command("all")
@_common_output
def verify_all(seed, out, fmt):
    """Every suite on its default instance, merged into one report."""
    parts = [
        _steinberg_suite("zmod:5", "all", None),
        _commutators_suite("zmod:3", 4, None),
        _forms_suite("zmod:5", "all", None),
        _borel_suite("zmod:3", 4, None),
        _abels_suite("zmod:2", 4, None, None),
        _presentations_suite("zmod:2", 4, None, None),
        _complex_suite("zmod:2", 4, "horospherical", ("components", "h1", "pi1"), None, None),
        _tits_suite("zmod:2", 4, "contracting", None, None),
    ]
    rep = merge_reports(parts, suite="all")
    _apply_seed(rep, seed)
    return _emit(rep, out, fmt)


@cli.group()
def export():
    """Write toolkit objects to files."""


@export.command("complex")
@click.option("--n", default=4, show_default=True, type=int)
@click.option("--ring", "descriptor", default="zmod:2", show_default=True)
@click.option(
    "--family",
    type=click.Choice(["horospherical", "contracting"]),
    default="horospherical",
    show_default=True,
)
@click.option("--max-order", type=_BUDGET, default=None, help="group closure budget")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "tsv"]),
    default="tsv",
    show_default=True,
    help="tsv: one simplex per line; json: full structure",
)
def export_complex_cmd(n, descriptor, family, max_order, out, fmt):
    """Write a coset complex as a simplex list."""
    ring = _parse_ring(descriptor)
    try:
        cx = coset_complex(*subgroup_family(family, n, ring), budget=max_order)
    except _USAGE_ERRORS as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        payload = json.dumps(
            {
                "n": n,
                "ring": ring.descriptor,
                "family": family,
                "vertices": [[c, int(k)] for c, k in cx.vertices],
                "colors": list(cx.colors),
                "simplices": [level.tolist() for level in cx.simplices],
            },
            indent=2,
            sort_keys=True,
        ) + "\n"
    else:
        payload = export_complex(cx)
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
        click.echo(f"wrote {sum(cx.f_vector)} simplices to {out}")
    else:
        click.echo(payload, nl=False)
    return 0


@cli.group()
def report():
    """Operations on saved reports."""


@report.command("merge")
@click.argument("paths", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "tsv"]),
    default="json",
    show_default=True,
)
def report_merge(paths, out, fmt):
    """Merge saved JSON reports into one, prefixing check ids by suite."""
    parts = []
    for path in paths:
        with open(path) as fh:
            try:
                parts.append(report_from_dict(json.load(fh)))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise click.UsageError(f"cannot read report {path}: {exc}")
    return _emit(merge_reports(parts), out, fmt)


def run(argv=None):
    """Entry point returning an exit code instead of raising SystemExit."""
    args = list(argv) if argv is not None else None
    try:
        code = cli.main(args=args, prog_name="abelslab", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        hint = f" ({exc.ctx.get_usage()})" if exc.ctx is not None else ""
        click.echo(f"usage error: {exc.format_message()}{hint}", err=True)
        return 2
    except click.ClickException as exc:
        exc.show()
        return 2
    except click.exceptions.Abort:
        return 2
    except Exception as exc:  # internal invariant violation
        click.echo(f"internal error: {exc!r}", err=True)
        return 3
    return int(code or 0)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
