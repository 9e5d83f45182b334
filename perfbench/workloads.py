"""The four benchmark workloads: suite calls, expected figures, controls.

Every figure a report is checked against is derived here from the
definitions (ring orders, entry patterns, closed forms), not read from
the program.  A checker returns a list of disagreements; an empty list
means the report is right.  Each workload also has one negative
control: an input on which the program must answer FAIL or "no".
"""

from math import comb, gcd

STEINBERG_TYPES = ("A1", "A2", "A3", "C2", "C3", "B3", "D4", "G2")
FORM_TYPES = ("C2", "C3", "B3", "D4")
# rank (number of simple roots) and size of the natural matrix model
TYPE_RANK = {"A1": 1, "A2": 2, "A3": 3, "C2": 2, "C3": 3, "B3": 3, "D4": 4, "G2": 2}
TYPE_SIZE = {"A1": 2, "A2": 3, "A3": 4, "C2": 4, "C3": 6, "B3": 7, "D4": 8, "G2": 7}


def ring_constants(descriptor):
    """(|R|, |R^x|) for the rings the workloads use."""
    head, _, rest = descriptor.partition(":")
    if head == "zmod":
        m = int(rest)
        return m, sum(1 for k in range(m) if gcd(k, m) == 1)
    if head == "polyq":
        p_text, _, coeff_text = rest.partition(":")
        p = int(p_text)
        coeffs = [int(c) for c in coeff_text.split(",")]
        d = len(coeffs) - 1
        if any(coeffs[:-1]) or coeffs[-1] != 1:
            raise ValueError(f"only moduli x^d are handled, got {descriptor}")
        # F_p[x]/(x^d) is local: the units are the nonzero constant terms
        return p**d, p**d - p ** (d - 1)
    raise ValueError(f"no constants for ring {descriptor}")


def family_free_positions(n):
    """Free entries of the horospherical members H1..H3 (H4 when n = 4)."""
    free = {1: comb(n - 1, 2), 2: comb(n - 1, 2), 3: 2}
    if n == 4:
        free[4] = 3
    return free


def pattern_orders(n, q, u):
    """Orders of every named entry-pattern subgroup of A_n(R)."""
    tri = n * (n - 1) // 2
    torus = u ** (n - 2)
    orders = {"A": q**tri * torus, "U": q**tri, "T": torus, "Z": q}
    for i, f in family_free_positions(n).items():
        orders[f"H{i}"] = q**f * torus
        orders[f"U{i}"] = q**f
    return orders


class Suite:
    """One `abelslab verify ...` call and the checker for its report."""

    def __init__(self, name, argv, check):
        self.name = name
        self.argv = argv
        self.check = check


def _statuses(report):
    return [
        f"{c['id']} is {c['status']}"
        for c in report["checks"]
        if c["status"] != "pass"
    ]


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


# -- abels ----------------------------------------------------------------------


def check_abels(n, descriptor):
    q, u = ring_constants(descriptor)
    orders = pattern_orders(n, q, u)
    families = sorted(family_free_positions(n))
    want = {f"closure:{name}": order for name, order in orders.items()}
    want["factorization:A"] = orders["A"]
    for i in families:
        want[f"factorization:H{i}"] = orders[f"H{i}"]
    want["center"] = orders["A"]
    want["normality:U"] = orders["U"]
    want["torus-invariance"] = orders["T"]
    want["retraction"] = orders["A"]
    want["contracting-meet"] = q ** ((n - 2) * (n - 3) // 2)
    want["abelian:U3"] = orders["U3"] ** 2
    if n == 4:
        want["abelian:U4"] = orders["U4"] ** 2
        want["fiber-product"] = orders["H4"]

    def check(report):
        problems = _statuses(report)
        got = {c["id"]: c["counts"].get("cases") for c in report["checks"]}
        _expect(problems, "check ids", sorted(got), sorted(want))
        for cid, cases in want.items():
            if cid in got:
                _expect(problems, f"{cid} cases", got[cid], cases)
        return problems

    return check


# -- topology -------------------------------------------------------------------


def check_complex(n, descriptor, family):
    q, u = ring_constants(descriptor)
    tri = n * (n - 1) // 2
    torus = u ** (n - 2) if family == "horospherical" else 1
    order = q**tri * torus
    free = family_free_positions(n)
    # the members meet trivially, so chambers biject with group elements
    vertices = sum(order // (q**f * torus) for f in free.values())

    def check(report):
        problems = _statuses(report)
        cfg = report["config"]
        for key, value in (
            ("components", 1),
            ("h1_rank", 0),
            ("h1_torsion", 0),
            ("pi1", "yes"),
            ("vertices", vertices),
            ("dim", len(free) - 1),
        ):
            _expect(problems, key, cfg.get(key), value)
        by_id = {c["id"]: c["counts"] for c in report["checks"]}
        _expect(
            problems,
            "check ids",
            sorted(by_id),
            ["components", "first-homology", "homogeneous-colorable", "simple-connectivity"],
        )
        if "homogeneous-colorable" in by_id:
            _expect(problems, "chambers", by_id["homogeneous-colorable"].get("chambers"), order)
        if "components" in by_id:
            _expect(problems, "generated", by_id["components"].get("generated"), order)
            _expect(problems, "group_order", by_id["components"].get("group_order"), order)
        if "first-homology" in by_id:
            _expect(problems, "rational_rank", by_id["first-homology"].get("rational_rank"), 0)
        return problems

    return check


# -- presentations --------------------------------------------------------------


def check_presentations(n, descriptor):
    q, _ = ring_constants(descriptor)
    expected = q ** (n * (n - 1) // 2)
    variants = ["canonical"] + (["economic"] if n >= 4 else [])

    def check(report):
        problems = _statuses(report)
        _expect(problems, "expected_order", report["config"].get("expected_order"), expected)
        by_id = {c["id"]: c["counts"] for c in report["checks"]}
        for v in variants:
            for cid, key in ((f"{v}-index", "index"), (f"{v}-generates", "generated")):
                _expect(problems, f"{cid} {key}", by_id.get(cid, {}).get(key), expected)
            if f"{v}-relators-hold" not in by_id:
                problems.append(f"{v}-relators-hold is missing")
        return problems

    return check


# -- relations ------------------------------------------------------------------


def check_steinberg(descriptor):
    q, u = ring_constants(descriptor)

    def closed_form(label, kind):
        rank = TYPE_RANK[label]
        return {
            "one-parameter-additivity": q * q + 1,
            "torus-multiplicativity": u * u + 1,
            "torus-conjugation": u * q,
            "weyl-conjugation": rank * u * q,
            "weyl-double-conjugation": q,
            "weyl-nonsimple-membership": q * q,
        }.get(kind)

    def check(report):
        problems = _statuses(report)
        _expect(problems, "types", report["config"].get("types"), ",".join(STEINBERG_TYPES))
        matched = 0
        for c in report["checks"]:
            label, kind = c["id"].split(":")[:2]
            want = closed_form(label, kind)
            if want is not None:
                matched += 1
                _expect(problems, f"{c['id']} cases", c["counts"].get("cases"), want)
        if matched == 0:
            problems.append("no steinberg check has a closed form")
        return problems

    return check


def check_commutators(n, descriptor):
    q, u = ring_constants(descriptor)
    positions = n * (n - 1)
    want = {
        "elementary-additivity": positions * q * q,
        "elementary-chain-commutator": positions * (n - 2) * q * q,
        "elementary-inverse-commutator": positions * (n - 2) * q * q,
        # position pairs (i,j),(k,l) with j != k and i != l
        "elementary-disjoint-commutator": positions * (n * n - 3 * n + 3) * q * q,
        "diagonal-conjugation": u**n * positions * q,
    }

    def check(report):
        problems = _statuses(report)
        got = {c["id"]: c["counts"].get("cases") for c in report["checks"]}
        _expect(problems, "cases", got, want)
        return problems

    return check


def check_borel(n, descriptor):
    q, u = ring_constants(descriptor)
    gln = q * u**n  # one root subgroup times the full diagonal torus of GL_n

    def check(report):
        problems = _statuses(report)
        by_id = {c["id"]: c["counts"] for c in report["checks"]}
        _expect(problems, "triangular-retraction", by_id.get("triangular-retraction", {}).get("cases"), q ** (n * (n - 1) // 2))
        _expect(problems, "affine-reflection-isomorphism", by_id.get("affine-reflection-isomorphism", {}).get("cases"), q * u)
        _expect(problems, "gln source", by_id.get("gln:parametrization-injective", {}).get("cases"), gln)
        prefixes = {cid.rsplit(":", 1)[0] for cid in by_id if cid.endswith(":source-closed")}
        if len(prefixes) < 2:
            problems.append("fewer than two factorization cases ran")
        for p in sorted(prefixes):
            size = by_id.get(f"{p}:parametrization-injective", {}).get("cases")
            for kind, want in (
                ("source-closed", size * size if size else None),
                ("map-homomorphism", size * size if size else None),
                ("map-injective", size),
                ("map-bijective", size),
            ):
                _expect(problems, f"{p}:{kind}", by_id.get(f"{p}:{kind}", {}).get("cases"), want)
            card = by_id.get(f"{p}:target-cardinality", {})
            for key in ("predicted", "source", "target"):
                _expect(problems, f"{p}:target-cardinality {key}", card.get(key), size)
        return problems

    return check


def check_forms(descriptor):
    q, u = ring_constants(descriptor)

    def check(report):
        problems = _statuses(report)
        _expect(problems, "types", report["config"].get("types"), ",".join(FORM_TYPES))
        by_id = {c["id"]: c["counts"] for c in report["checks"]}
        for label in FORM_TYPES:
            rank = TYPE_RANK[label]
            # x_{+-alpha}(r) for simple alpha and r in R, plus h_alpha(u) and
            # the torus rows for u in R^x
            generators = 2 * rank * (q + u)
            for cid, key, want in (
                ("invariant-form-rank", "rank", TYPE_SIZE[label]),
                ("invariant-form-exists", "dimension", 1),
                ("invariant-form-unique-ray", "dimension", 1),
                ("invariant-form-preserved", "cases", generators),
                ("generator-determinants", "cases", generators),
            ):
                _expect(problems, f"{label}:{cid}", by_id.get(f"{label}:{cid}", {}).get(key), want)
        return problems

    return check


# -- negative controls ------------------------------------------------------------


def control_abels():
    """The torus is not normal in A_4(Z/4): conjugation must leave it."""
    from abelslab.abels import abels_group, check_normality, unipotent_and_torus
    from abelslab.rings import make_ring

    R = make_ring("zmod:4")
    verdict = check_normality(unipotent_and_torus(4, R)[1], abels_group(4, R))
    return verdict is False, f"normality of T in A_4(zmod:4) gave {verdict}"


def control_topology():
    """The S3 pair complex is a hexagon: H1 rank 1, not simply connected."""
    from abelslab.complexes import coset_complex, homology_h1, is_simply_connected
    from abelslab.matrices import Matrix
    from abelslab.rings import make_ring

    R = make_ring("zmod:2")

    def perm(images):
        rows = [[R.zero] * 3 for _ in range(3)]
        for src, dst in enumerate(images):
            rows[src][dst] = R.one
        return Matrix.from_rows(R, rows)

    a, b = perm((1, 0, 2)), perm((0, 2, 1))
    cx = coset_complex([a, b], ([a], [b]))
    h1, pi1 = homology_h1(cx), is_simply_connected(cx)
    return h1 == (1, ()) and pi1 == "no", f"S3 pair: H1 {h1}, simply connected {pi1}"


def control_presentations():
    """Killing x12 in the U3(Z/5) presentation must lose the group order."""
    from abelslab.presentation import Presentation, todd_coxeter, un_canonical_presentation
    from abelslab.rings import additive_presentation, make_ring

    R = make_ring("zmod:5")
    pres = un_canonical_presentation(3, additive_presentation(R))
    killed = Presentation(pres.generators, pres.relators + ((1,),))
    table = todd_coxeter(killed)
    order = ring_constants("zmod:5")[0] ** 3
    ok = table.status == "complete" and table.count != order
    return ok, f"U3 with x12 killed: {table.status}, {table.count} cosets vs {order}"


def control_relations():
    """A root display quadratic in its parameter must fail additivity."""
    from abelslab.chevalley import MatrixModel, check_steinberg, matrix_model
    from abelslab.rings import make_ring

    good = matrix_model("A1", make_ring("zmod:7"))
    root = good.tabulated_roots[0]
    (i, j, coeff, _), = good.display(root)
    bad = MatrixModel(
        good.label,
        good.ring,
        good.system,
        good.n,
        {root: ((i, j, coeff, 2),)},
        {root: good.h_exponents(root)},
        good.torus_rows,
    )
    failed = [c.id for c in check_steinberg(bad).checks if c.status == "fail"]
    ok = any(cid.startswith("one-parameter-additivity") for cid in failed)
    return ok, f"quadratic A1 display failed {failed}"


# -- the workloads ----------------------------------------------------------------


def _suites(seed, calls):
    return [
        Suite(argv[0], ["verify", *argv, "--seed", str(seed)], check)
        for argv, check in calls
    ]


def build(workload, seed):
    """The workload's suite calls, with their checkers, and its control."""
    if workload == "abels":
        calls = [
            (["abels", "--n", "4", "--ring", "zmod:4"], check_abels(4, "zmod:4")),
            (["abels", "--n", "5", "--ring", "zmod:2"], check_abels(5, "zmod:2")),
        ]
        control = control_abels
    elif workload == "topology":
        calls = [
            (
                ["complex", "--n", "4", "--ring", "zmod:2", "--family", "contracting"],
                check_complex(4, "zmod:2", "contracting"),
            ),
            (["complex", "--n", "4", "--ring", "zmod:2"], check_complex(4, "zmod:2", "horospherical")),
        ]
        control = control_topology
    elif workload == "presentations":
        calls = [
            (["presentations", "--n", "4", "--ring", "zmod:3"], check_presentations(4, "zmod:3")),
            (["presentations", "--n", "5", "--ring", "zmod:2"], check_presentations(5, "zmod:2")),
        ]
        control = control_presentations
    elif workload == "relations":
        calls = [
            (["steinberg", "--type", "all", "--ring", "zmod:3"], check_steinberg("zmod:3")),
            (["commutators", "--n", "4", "--ring", "polyq:2:0,0,1"], check_commutators(4, "polyq:2:0,0,1")),
            (["borel-iso", "--n", "4", "--ring", "zmod:4"], check_borel(4, "zmod:4")),
            (["forms", "--type", "all", "--ring", "zmod:7"], check_forms("zmod:7")),
        ]
        control = control_relations
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return _suites(seed, calls), control


WORKLOADS = ("abels", "topology", "presentations", "relations")
