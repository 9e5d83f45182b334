import ast
import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_chevalley as reference
from test_golden import _quadratic_a1_model
from abelslab import chevalley
from abelslab.cli import _borel_suite
from abelslab.chevalley import (
    ChevalleyError,
    MatrixModel,
    ROOT_COUNTS,
    SUPPORTED_LABELS,
    _FORM_KIND,
    _affine_target,
    _check_generators,
    _form_instances,
    _form_system,
    _nullspace_mod_p,
    _preserves_form,
    _rref_mod_p,
    borel_cases,
    borel_gln_check,
    borel_isomorphism_check,
    cartan_pairing,
    check_affine_iso,
    check_borel_retraction,
    check_elementary_relations,
    check_form_invariance,
    check_steinberg,
    check_weyl_conjugation,
    matrix_model,
    reflect,
    root_element,
    root_system,
    semisimple_element,
    torus_element,
    weyl_element,
)
from abelslab.kernels import coded_ring, elementary_codes, encode_matrices, pack_keys
from abelslab.matrices import Matrix
from abelslab.reports import Report
from abelslab.rings import LaurentRing, additive_presentation, make_ring

Z2 = make_ring("zmod:2")
Z3 = make_ring("zmod:3")
Z4 = make_ring("zmod:4")
Z5 = make_ring("zmod:5")
Z7 = make_ring("zmod:7")
ZZ = make_ring("z")
F4 = make_ring("polyq:2:0,0,1")


def test_root_system_counts_and_pairings():
    for label in SUPPORTED_LABELS:
        datum = root_system(label)
        assert len(datum.roots) == ROOT_COUNTS[label]
        for r in datum.roots:
            assert cartan_pairing(r, r) == 2
        pairings = {
            cartan_pairing(a, b) for a in datum.roots for b in datum.roots
        }
        assert pairings <= {0, 1, -1, 2, -2, 3, -3}


def test_g2_has_triple_pairing():
    datum = root_system("G2")
    pairings = {cartan_pairing(a, b) for a in datum.roots for b in datum.roots}
    assert 3 in pairings and -3 in pairings


def test_reflections_permute_roots():
    for label in ("A2", "C2", "B3", "G2", "D4"):
        datum = root_system(label)
        for alpha in datum.simples:
            perm = reference.reflection_permutation(datum, alpha)
            assert sorted(perm) == list(range(len(datum.roots)))
            assert datum.roots[perm[datum.roots.index(alpha)]] == tuple(
                -x for x in alpha
            )


def test_root_system_built_once():
    for label in SUPPORTED_LABELS:
        assert root_system(label) is root_system(label)
        assert matrix_model(label, Z7).system is root_system(label)


def test_unsupported_label_rejected():
    with pytest.raises(ChevalleyError):
        root_system("E8")
    with pytest.raises(ChevalleyError):
        matrix_model("F4", Z5)


def test_char_two_gate():
    for label in ("B3", "G2"):
        for ring in (Z2, F4):
            with pytest.raises(ChevalleyError, match="char-2-unsupported"):
                matrix_model(label, ring)
    # characteristic 4 is admitted
    matrix_model("B3", Z4)
    matrix_model("G2", Z4)
    matrix_model("B3", ZZ)


def test_c2_short_root_display():
    m = matrix_model("C2", Z5)
    x = root_element(m, (1, -1), 2)
    e12 = Matrix.elementary(Z5, 4, 1, 2, 2)
    e43 = Matrix.elementary(Z5, 4, 4, 3, 2)
    assert x == e12 @ e43.inverse()
    assert x.rows[0][1] == 2
    assert x.rows[3][2] == 3


def test_g2_short_root_display_entries():
    m = matrix_model("G2", Z7)
    r = 3
    x = root_element(m, (1, -1, 0), r)
    assert x.rows[0][1] == 6
    assert x.rows[4][0] == 4
    assert x.rows[4][1] == 5
    assert x.rows[2][6] == r
    assert x.rows[3][5] == 4


def test_root_element_zero_is_identity():
    for label in SUPPORTED_LABELS:
        m = matrix_model(label, Z3)
        for alpha in m.tabulated_roots:
            assert root_element(m, alpha, Z3.zero).is_identity()


def test_unknown_root_rejected():
    m = matrix_model("C2", Z5)
    with pytest.raises(ChevalleyError, match="unknown-root"):
        root_element(m, (2, 0), Z5.one)


def test_semisimple_displays():
    m = matrix_model("B3", Z5)
    h = semisimple_element(m, (0, 0, 1), 2)
    assert h.diagonal_entries() == (
        Z5.one,
        Z5.one,
        Z5.one,
        4,
        Z5.one,
        Z5.one,
        4,
    )
    d4 = matrix_model("D4", Z5)
    h4 = semisimple_element(d4, (0, 0, 1, 1), 2)
    assert h4.diagonal_entries() == (
        Z5.one,
        Z5.one,
        2,
        2,
        Z5.one,
        Z5.one,
        3,
        3,
    )
    with pytest.raises(ChevalleyError, match="non-unit"):
        semisimple_element(m, (0, 0, 1), Z5.zero)


def test_weyl_element_a1():
    m = matrix_model("A1", Z5)
    w = weyl_element(m, (1, -1))
    assert w == Matrix.from_rows(Z5, [[Z5.zero, Z5.one], [4, Z5.zero]])


def test_steinberg_all_types_small():
    for label in SUPPORTED_LABELS:
        rep = check_steinberg(label, Z3)
        assert rep.ok, [c.id for c in rep.checks if c.status == "fail"]


def test_steinberg_c2_z5_counts():
    rep = check_steinberg("C2", Z5)
    assert rep.ok
    conj = [c for c in rep.checks if c.id.startswith("torus-conjugation:")]
    assert len(conj) == 16
    assert all(c.counts["cases"] == 20 for c in conj)


def test_steinberg_g2_torus_display():
    rep = check_steinberg("G2", Z5)
    assert rep.ok
    ids = [c.id for c in rep.checks]
    assert "torus-display-conjugation" in ids


def test_steinberg_symbolic_over_z():
    rep = check_steinberg("C2", ZZ)
    assert rep.ok
    assert all(c.status == "pass" for c in rep.checks)
    rep2 = check_steinberg("G2", ZZ)
    assert rep2.ok


def test_steinberg_symbolic_term_budget_is_inconclusive(monkeypatch):
    # one term per Laurent element: r + s already has two
    monkeypatch.setattr(chevalley, "LaurentRing", functools.partial(LaurentRing, max_terms=1))
    rep = check_steinberg("A2", ZZ)
    assert [(c.id, c.status, c.counts) for c in rep.checks] == [
        ("symbolic-budget", "inconclusive", {"cases": 0})
    ]
    assert rep.config["budget_note"] == "symbolic term count 2 exceeds budget"


def test_steinberg_char2_refused():
    with pytest.raises(ChevalleyError, match="char-2-unsupported"):
        check_steinberg("B3", Z2)


def test_weyl_conjugation_suites():
    for label, ring in (
        ("A2", Z5),
        ("A3", Z3),
        ("C2", Z5),
        ("C3", Z3),
        ("B3", Z3),
        ("D4", Z3),
        ("G2", Z5),
    ):
        rep = check_weyl_conjugation(label, ring)
        assert rep.ok, (label, [c.id for c in rep.checks if c.status == "fail"])
        if label not in ("A1", "A2", "A3"):
            assert any(c.id == "weyl-nonsimple-membership" for c in rep.checks)


def test_weyl_spot_check_fails_on_a_non_unipotent_image(monkeypatch):
    # squaring returns its argument, so every (y - 1) looks idempotent,
    # not nilpotent: only the image of s = 0 is still unipotent
    real = chevalley.mul_rows
    monkeypatch.setattr(
        chevalley, "mul_rows", lambda cr, A, B, n: A if A is B else real(cr, A, B, n)
    )
    rep = check_weyl_conjugation("C2", Z5)
    failed = [(c.id, c.counterexample) for c in rep.checks if c.status == "fail"]
    assert failed == [("weyl-nonsimple-membership", "s=1: image is not unipotent")]


def test_form_invariance_types():
    for label, ring, kind in (
        ("C2", Z5, "alternating"),
        ("C3", Z5, "alternating"),
        ("B3", Z7, "symmetric"),
        ("B3", Z5, "symmetric"),
        ("D4", Z5, "symmetric"),
    ):
        rep = check_form_invariance(label, ring)
        assert rep.ok, (label, [c.id for c in rep.checks if c.status == "fail"])
        assert rep.config["kind"] == kind
        rank = next(c for c in rep.checks if c.id == "invariant-form-rank")
        assert rank.counts["rank"] == matrix_model(label, ring).n


@pytest.mark.parametrize("ring", (Z5, Z7), ids=("zmod5", "zmod7"))
@pytest.mark.parametrize("label", ("C2", "C3", "B3", "D4"))
def test_form_sweep_matches_matrix_reference(label, ring):
    """The coded g^T F g = F sweep against Matrix products, for the form
    found and for that form with one entry changed, which fails."""
    model = matrix_model(label, ring)
    found = ast.literal_eval(check_form_invariance(model).config["form"])
    bent = [list(row) for row in found]
    bent[0][-1] = ring.add(bent[0][-1], ring.one)
    instances = _form_instances(model)
    mats = [g for _, g in instances]
    cr = coded_ring(ring)
    for rows, holds in ((found, True), (bent, False)):
        F = Matrix.from_rows(ring, rows)
        expected = reference.form_preserved(mats, F)
        assert list(_preserves_form(cr, mats, F, model.n)) == expected
        assert all(expected) == holds
        rep = Report("forms")
        _check_generators(rep, model, F)
        record = next(c for c in rep.checks if c.id == "invariant-form-preserved")
        assert record.counts == {"cases": len(instances), "failures": int(not holds)}
        first = next((name for (name, _), ok in zip(instances, expected) if not ok), None)
        assert record.counterexample == first
        assert record.status == ("pass" if holds else "fail")


@st.composite
def zero_heavy_matrices(draw):
    """(M, p, rank bound): a matrix of codes mod p, at most 40 x 20, of one
    of three kinds.  "sparse" keeps each entry with a drawn density (0 gives
    the all-zero matrix); "deficient" is a product through k < min(m, c)
    dimensions; "full" has rank min(m, c): a unit diagonal, sparse entries
    right of it, then rows and columns permuted."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    m, c = draw(st.integers(1, 40)), draw(st.integers(1, 20))
    kind = draw(st.sampled_from(("sparse", "deficient", "full")))
    density = draw(st.sampled_from((0.0, 0.1, 0.3, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sparse(shape):
        return rng.integers(0, p, shape) * (rng.random(shape) < density)

    if kind == "sparse":
        return sparse((m, c)), p, min(m, c)
    k = min(m, c)
    if kind == "deficient":
        k = draw(st.integers(0, k - 1))
        return sparse((m, k)) @ sparse((k, c)) % p, p, k
    M = np.triu(sparse((m, c)), 1)
    M[np.arange(k), np.arange(k)] = rng.integers(1, p, k)
    return M[rng.permutation(m)][:, rng.permutation(c)], p, k


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=zero_heavy_matrices())
@example(case=(np.zeros((3, 4), np.int64), 5, 0))
@example(case=(np.array([[0, 2, 1], [3, 0, 0], [1, 1, 1]]), 7, 3))
# the third row is the sum of the first two
@example(case=(np.array([[1, 2, 0, 1], [0, 1, 1, 3], [1, 3, 1, 4]]), 5, 2))
def test_elimination_matches_reference(case):
    M, p, bound = case
    reduced, pivots = _rref_mod_p(M, p)
    expected_rows, expected_pivots = reference._rref_mod_p(M.tolist(), M.shape[1], p)
    assert pivots == expected_pivots
    assert reduced.tolist() == expected_rows
    assert len(pivots) <= bound
    if not M.any():
        assert pivots == []
    assert [tuple(v) for v in _nullspace_mod_p(M, p).tolist()] == reference._nullspace_mod_p(
        M.tolist(), M.shape[1], p
    )


@pytest.mark.parametrize("modulus", (3, 5, 7, 11, 13))
@pytest.mark.parametrize("label", ("C2", "C3", "B3", "D4"))
def test_form_nullspace_matches_reference(label, modulus):
    """The coefficient-stack system and its numpy elimination give the
    nullspace basis of the Laurent-bucket rows and list elimination."""
    model = matrix_model(label, make_ring(f"zmod:{modulus}"))
    kind = _FORM_KIND[label]
    rows = reference.form_system(model, kind, modulus)
    expected = reference._nullspace_mod_p(rows, model.n**2, modulus)
    basis = _nullspace_mod_p(_form_system(model, kind, modulus), modulus)
    assert [tuple(v) for v in basis.tolist()] == expected
    assert len(expected) == 1


def _form_record(rep, check_id):
    return next(c for c in rep.checks if c.id == check_id)


def test_form_checks_fail_on_too_few_generators(monkeypatch):
    """With the torus rows alone, C2 over Z/7 leaves a plane of forms, and
    the first basis vector is a degenerate form."""
    generators = chevalley._symbolic_generators
    monkeypatch.setattr(
        chevalley, "_symbolic_generators",
        lambda model: [g for g in generators(model) if g[0].startswith("torus-row-")],
    )
    rep = check_form_invariance("C2", Z7)
    ray = _form_record(rep, "invariant-form-unique-ray")
    assert ray.status == "fail"
    assert ray.counterexample == "expected a one-dimensional solution space, got 2"
    rank = _form_record(rep, "invariant-form-rank")
    assert rank.status == "fail" and rank.counterexample == "rank 2 < 4"
    assert not rep.ok


def test_form_checks_fail_on_a_scalar_generator(monkeypatch):
    """2 I preserves no nonzero form over Z/7: 4 F = F forces F = 0."""
    generators = chevalley._symbolic_generators

    def with_scalar(model):
        gens = generators(model)
        L = gens[0][2]
        two = L.scale_int(2, L.one)
        return gens + [("scalar-2", Matrix.diagonal(L, [two] * model.n), L)]

    monkeypatch.setattr(chevalley, "_symbolic_generators", with_scalar)
    rep = check_form_invariance("C2", Z7)
    exists = _form_record(rep, "invariant-form-exists")
    assert exists.status == "fail"
    assert exists.counterexample == "the constraint system has trivial nullspace"
    assert exists.counts == {"dimension": 0}
    assert _form_record(rep, "invariant-form-unique-ray").status == "fail"
    assert [c.id for c in rep.checks] == ["invariant-form-exists", "invariant-form-unique-ray"]


def test_form_invariance_guards():
    with pytest.raises(ChevalleyError):
        check_form_invariance("A2", Z5)
    with pytest.raises(ChevalleyError):
        check_form_invariance("C2", Z4)


def test_elementary_relations_small():
    for ring in (Z2, Z3, Z4, F4):
        rep = check_elementary_relations(3, ring)
        assert rep.ok, [c.id for c in rep.checks if c.status == "fail"]


def test_elementary_relation_counts():
    rep = check_elementary_relations(3, Z3)
    chain = next(c for c in rep.checks if c.id == "elementary-chain-commutator")
    # six ordered chains (i,j,l) of distinct indices, nine (r,s) pairs
    assert chain.counts["cases"] == 54
    diag = next(c for c in rep.checks if c.id == "diagonal-conjugation")
    # 8 unit triples, 6 positions, 3 ring elements
    assert diag.counts["cases"] == 144


def test_elementary_additivity_names_the_failing_pair(monkeypatch):
    # the additive law fails at the last pair (r, s) = (2, 2) of every
    # position; the first position is e(1, 2)
    real = chevalley._additive

    def last_pair_fails(cr, X, n):
        ok = real(cr, X, n)
        ok[-1] = False
        return ok

    monkeypatch.setattr(chevalley, "_additive", last_pair_fails)
    rep = check_elementary_relations(3, Z3)
    failed = [(c.id, c.counterexample) for c in rep.checks if c.status == "fail"]
    assert failed == [("elementary-additivity", "e(1, 2)(2) * e(1, 2)(2)")]


def test_diagonal_conjugation_names_the_failing_case(monkeypatch):
    # conjugation by a diagonal acts trivially: the first unit triple with
    # t_i != t_j is (1, 1, 2), on e(1,3)(1)
    monkeypatch.setattr(chevalley, "_conj_diag", lambda cr, D, X, n: X)
    rep = check_elementary_relations(3, Z3)
    failed = [(c.id, c.counterexample) for c in rep.checks if c.status == "fail"]
    assert failed == [("diagonal-conjugation", "Diag('1', '1', '2') on e(1,3)(1)")]


def _target_card(rep):
    return next(c for c in rep.checks if c.id == "target-cardinality").counts["target"]


def test_affine_groups_and_iso():
    # the orders of A1's B2deg, G2's Aff- with one unit tail and GL_2's B2
    assert _target_card(borel_isomorphism_check("A1", 0, Z5)) == 20
    assert _target_card(borel_isomorphism_check("G2", 1, Z5)) == 80
    assert _target_card(borel_gln_check(2, 1, 2, Z5)) == 80
    assert check_affine_iso(Z5)
    assert check_affine_iso(Z4)
    assert check_affine_iso(F4)


@pytest.mark.parametrize(
    "descriptor", ["zmod:2", "zmod:3", "zmod:4", "zmod:5", "zmod:6", "polyq:2:1,1,1"]
)
def test_affine_target_rows_enumerate_the_target(descriptor):
    R = make_ring(descriptor)
    cr = coded_ring(R)
    units = [u for u in R.elements() if R.is_unit(u)]
    blocks = {
        "Aff-": [(R.one, r, b) for b in units for r in R.elements()],
        "B2": [(a, r, b) for a in units for b in units for r in R.elements()],
        "B2deg": [(a, r, R.inverse(a)) for a in units for r in R.elements()],
    }
    for kind, block in blocks.items():
        for tails in range(3):
            expected = sorted(
                tuple(R.encode(v) for v in (*m, *tail))
                for m in block
                for tail in itertools.product(units, repeat=tails)
            )
            rows = _affine_target(cr, kind, tails)
            assert rows.shape == (len(expected), 3 + tails)
            assert sorted(map(tuple, rows.tolist())) == expected, (kind, tails)


def test_borel_retraction():
    assert check_borel_retraction(2, Z3)
    assert check_borel_retraction(3, Z3)
    assert check_borel_retraction(4, Z3)
    assert check_borel_retraction(4, Z4)
    with pytest.raises(ChevalleyError):
        check_borel_retraction(1, Z3)


def test_borel_retraction_can_fail(monkeypatch):
    # a retraction that also keeps entry (1,3) is not a homomorphism on the
    # generator pairs, so the check answers False before the block test
    retract = chevalley._retract_codes
    monkeypatch.setattr(
        chevalley,
        "_retract_codes",
        lambda cr, vecs, n, window: retract(cr, vecs, n, window + ((1, 3),)),
    )
    assert not check_borel_retraction(4, Z3)
    rep = _borel_suite("zmod:3", 4)
    assert [c.id for c in rep.checks if c.status == "fail"] == ["triangular-retraction"]


@pytest.mark.parametrize(
    "label,idx",
    [
        ("A1", 0),
        ("A2", 0),
        ("A2", 1),
        ("A3", 1),
        ("C2", 0),
        ("C2", 1),
        ("C3", 1),
        ("B3", 1),
        ("D4", 1),
        ("G2", 0),
        ("G2", 1),
    ],
)
def test_borel_isomorphism_cases_z3(label, idx):
    rep = borel_isomorphism_check(label, idx, Z3)
    assert rep.ok, [
        (c.id, c.counterexample) for c in rep.checks if c.status == "fail"
    ]


def test_borel_isomorphism_z4_and_z2():
    rep = borel_isomorphism_check("C2", 1, Z4)
    assert rep.ok
    # trivial unit group: the map degenerates to the unipotent part
    rep2 = borel_isomorphism_check("A2", 0, Z2)
    assert rep2.ok
    card = next(c for c in rep2.checks if c.id == "target-cardinality")
    assert card.counts["target"] == 2


def test_borel_isomorphism_by_root_vector():
    rep = borel_isomorphism_check("C2", (0, 2), Z3)
    assert rep.ok
    assert rep.config["eta"] == "(0,2)"


def test_borel_unsupported_pair():
    with pytest.raises(ChevalleyError, match="unsupported-pair"):
        borel_isomorphism_check("A3", 0, Z3)
    with pytest.raises(ChevalleyError, match="unsupported-pair"):
        borel_isomorphism_check("C2", (1, 1), Z3)


def test_borel_gln():
    rep = borel_gln_check(4, 1, 2, Z3)
    assert rep.ok
    card = next(c for c in rep.checks if c.id == "target-cardinality")
    assert card.counts["predicted"] == 3 * 2**4
    rep2 = borel_gln_check(3, 3, 1, Z4)
    assert rep2.ok
    with pytest.raises(ChevalleyError):
        borel_gln_check(3, 2, 2, Z3)


def test_torus_element_guards():
    m = matrix_model("G2", Z5)
    with pytest.raises(ChevalleyError):
        torus_element(m, (Z5.one,))
    with pytest.raises(ChevalleyError, match="non-unit"):
        torus_element(m, (Z5.zero, Z5.one))
    d = torus_element(m, (2, 3))
    assert d.diagonal_entries()[1] == 2
    assert d.diagonal_entries()[2] == 3
    assert d.diagonal_entries()[6] == Z5.mul(2, 3) == Z5.one


def test_borel_gln_pairs_a_sampled_pool():
    # 7 * 6**3 = 1512 source elements give more pairs than the budget, so
    # only the pool is paired: the 6**3 elements with r = 1, the additive
    # generator of Z/7, and for each of the six other r the 1 + 3 * 5 unit
    # triples with at most one entry other than 1
    assert additive_presentation(Z7).generators == (Z7.one,)
    pool = 6**3 + 6 * (1 + 3 * 5)
    assert pool == 312
    rep = borel_gln_check(3, 1, 2, Z7)
    assert rep.ok
    counts = {c.id: c.counts for c in rep.checks}
    assert counts["parametrization-injective"]["cases"] == 7 * 6**3
    assert counts["source-closed"]["cases"] == pool**2
    assert counts["map-homomorphism"]["cases"] == pool**2 == 97_344


SWEEP = chevalley._pair_sweep
FACTORIZATION = chevalley._factorization_checks


def _records(rep):
    """The report's records as written, without their timings."""
    return [{k: v for k, v in c.to_dict().items() if k != "elapsed"} for c in rep.checks]


def _factorization_records(monkeypatch, run, sweep=SWEEP):
    """The records of every `_factorization_checks` body that run() calls,
    with `sweep` as the pair sweep."""
    reports = []

    def kept(rep, *args):
        FACTORIZATION(rep, *args)
        reports.append(rep)

    monkeypatch.setattr(chevalley, "_pair_sweep", sweep)
    monkeypatch.setattr(chevalley, "_factorization_checks", kept)
    run()
    assert reports
    return [_records(rep) for rep in reports]


def _both_sweeps(monkeypatch, run):
    """(blocked, reference): the records by `_pair_sweep` and by the
    one-left-factor loop it replaced."""
    return (
        _factorization_records(monkeypatch, run),
        _factorization_records(monkeypatch, run, reference.pair_sweep_by_left_factor),
    )


def _by_id(records):
    """The records of one report, by check id."""
    return {r["id"]: r for r in records}


@pytest.mark.parametrize("descriptor", ["zmod:2", "zmod:3", "zmod:4", "polyq:2:0,1"])
def test_pair_sweep_matches_the_left_factor_reference(monkeypatch, descriptor):
    R = make_ring(descriptor)
    # B3 and G2 have no model in characteristic 2
    cases = [
        (label, idx) for label, idx in borel_cases()
        if R.characteristic() != 2 or label not in ("B3", "G2")
    ]

    def run():
        for label, idx in cases:
            borel_isomorphism_check(label, idx, R)
        borel_gln_check(4, 1, 2, R)
        check_affine_iso(R)

    blocked, ref = _both_sweeps(monkeypatch, run)
    assert len(blocked) == len(cases) + 2
    assert blocked == ref


def _quadratic_a1():
    return borel_isomorphism_check(_quadratic_a1_model(), 0)


def test_pair_sweep_reference_on_failing_and_sampled_sources(monkeypatch):
    # the quadratic A1 model leaves its source: FAIL and INCONCLUSIVE records
    blocked, ref = _both_sweeps(monkeypatch, _quadratic_a1)
    assert blocked == ref
    records = _by_id(blocked[0])
    assert records["source-closed"]["status"] == "fail"
    assert records["map-homomorphism"]["status"] == "inconclusive"
    # the sampled pool of test_borel_gln_pairs_a_sampled_pool
    blocked, ref = _both_sweeps(monkeypatch, lambda: borel_gln_check(3, 1, 2, Z7))
    assert blocked == ref
    assert _by_id(blocked[0])["map-homomorphism"]["counts"]["cases"] == 312**2


def _swapped_reader(monkeypatch):
    """Make `_block_reader` exchange the images of the last two source
    elements: phi stays a bijection onto the target, but not a
    homomorphism."""
    reader = chevalley._block_reader

    def swapped(*args):
        phi = reader(*args)

        def phi_swapped(S):
            img = phi(S)
            img[[-2, -1]] = img[[-1, -2]]
            return img

        return phi_swapped

    monkeypatch.setattr(chevalley, "_block_reader", swapped)


def _swapped_gln():
    return borel_gln_check(3, 1, 2, Z3)


def test_map_homomorphism_names_the_first_failing_pair(monkeypatch):
    _swapped_reader(monkeypatch)
    blocked, ref = _both_sweeps(monkeypatch, _swapped_gln)
    assert blocked == ref
    failed = [(r["id"], r["counterexample"]) for r in blocked[0] if r["status"] == "fail"]
    assert len(failed) == 1
    check_id, text = failed[0]
    assert check_id == "map-homomorphism"
    # the swapped elements are x(2) d(2,2,1) and x(2) d(2,2,2); the left
    # factor d(1,1,2) exchanges them, so its pairs hold, and the first pair
    # that fails is d(1,2,1) * x(1) d(2,1,1) = x(2) d(2,2,1)
    assert text == "pair ((0, (1, 2, 1)), (1, (2, 1, 1)))"


@pytest.mark.parametrize(
    "perturb,run,pool,n",
    [
        (_swapped_reader, _swapped_gln, 3 * 2**3, 3),
        (lambda monkeypatch: None, _quadratic_a1, 7 * 6, 2),
    ],
    ids=["swapped-gln", "quadratic-A1"],
)
def test_pair_blocks_keep_the_records(monkeypatch, perturb, run, pool, n):
    perturb(monkeypatch)
    whole = _factorization_records(monkeypatch, run)
    # one left factor per block
    monkeypatch.setattr(chevalley, "_PAIR_BLOCK", 1)
    assert _factorization_records(monkeypatch, run) == whole
    # five left factors per block, which does not divide the pool
    assert pool % 5
    monkeypatch.setattr(chevalley, "_PAIR_BLOCK", 5 * pool * n * n)
    assert _factorization_records(monkeypatch, run) == whole
    assert _by_id(whole[0])["source-closed"]["counts"]["cases"] == pool**2


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    size=st.integers(0, 30),
    wrong=st.integers(0, 5),
    per_block=st.sampled_from((1, 2, 5, 1000)),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_sweep_matches_reference_on_random_sources(size, wrong, per_block, seed):
    """Random subsets S of the upper triangular group of GL_2(Z/5), the
    identity last, with phi the block read off S and then changed on a
    few rows.  With one left factor per block the last block is closed
    even where S is not."""
    cr = coded_ring(Z5)
    rng = np.random.default_rng(seed)
    a, b, r = np.indices((4, 4, 5)).reshape(3, -1)
    group = np.column_stack([a + 1, r, np.zeros_like(r), b + 1])
    S = np.concatenate([group[1 + rng.permutation(len(group) - 1)[:size]], group[:1]])
    assert (S[-1] == [1, 0, 0, 1]).all()
    img = S[:, [0, 1, 3]].copy()
    changed = rng.integers(0, len(S), wrong)
    img[changed, 1] = rng.integers(0, 5, wrong)
    keys = pack_keys(cr, S, 2)
    last = np.argsort(keys)
    args = (cr, S, img, np.arange(len(S)), keys[last], last, 2)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(chevalley, "_PAIR_BLOCK", per_block * len(S) * 4)
        assert chevalley._pair_sweep(*args) == reference.pair_sweep_by_left_factor(*args)


@pytest.fixture
def matrix_products(monkeypatch):
    """Counts Matrix.mul calls, `@` included."""
    calls = []
    mul = Matrix.mul

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "mul", counted)
    return calls


def test_finite_sweeps_multiply_coded_rows(matrix_products):
    assert check_elementary_relations(4, make_ring("polyq:2:0,0,1")).ok
    assert check_steinberg("D4", Z3).ok
    assert borel_gln_check(4, 1, 2, Z4).ok
    assert matrix_products == []


def test_borel_unreadable_element():
    # the first simple root of A2 displayed at (2,1) instead of (1,2): the
    # block read at rows/columns (1,2) has a nonzero lower corner
    good = matrix_model("A2", Z3)
    root = good.system.simples[0]
    displays = dict(good._displays)
    (i, j, coeff, power), = displays[root]
    assert (i, j) == (1, 2)
    displays[root] = ((j, i, coeff, power),)
    bad = MatrixModel(
        good.label, good.ring, good.system, good.n, displays,
        dict(good._h_exps), good.torus_rows,
    )
    with pytest.raises(ChevalleyError, match="unreadable element"):
        borel_isomorphism_check(bad, 0)


def test_factorizations_read_no_matrix_entries(monkeypatch):
    # the maps read columns of the coded source and the generators are
    # written as codes, so no Matrix product or inverse is formed, and no
    # elementary or diagonal Matrix is built
    def refuse(*args):
        raise AssertionError("Matrix arithmetic in a factorization check")

    monkeypatch.setattr(Matrix, "mul", refuse)
    monkeypatch.setattr(Matrix, "inverse", refuse)
    monkeypatch.setattr(Matrix, "elementary", refuse)
    monkeypatch.setattr(Matrix, "diagonal", refuse)
    monkeypatch.setattr(chevalley, "torus_element", refuse)
    for label, idx in borel_cases():
        assert borel_isomorphism_check(label, idx, Z3).ok, (label, idx)
    assert borel_gln_check(4, 1, 2, Z4).ok
    assert check_affine_iso(Z4)
    assert check_borel_retraction(4, Z4)


def test_borel_target_cardinality_fails_on_a_short_target(monkeypatch):
    # one target row dropped: 23 of the 24 elements of B2 x (Z/3)^x
    real = chevalley._affine_target
    monkeypatch.setattr(
        chevalley, "_affine_target", lambda cr, kind, tails: real(cr, kind, tails)[1:]
    )
    rep = borel_gln_check(3, 1, 2, Z3)
    failed = {c.id: c.counterexample for c in rep.checks if c.status == "fail"}
    assert failed == {
        "target-cardinality": "target 23, source 24, predicted 24",
        "map-bijective": "image differs from the enumerated target",
    }


GENERATOR_RINGS = ("zmod:3", "zmod:4", "zmod:6", "gf:5", "polyq:2:0,0,1", "polyq:2:1,1,1")


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    descriptor=st.sampled_from(GENERATOR_RINGS),
    label=st.sampled_from(SUPPORTED_LABELS),
    n=st.integers(2, 4),
    data=st.data(),
)
def test_generator_codes_match_matrix_encodings(descriptor, label, n, data):
    """elementary_codes against Matrix.elementary, and _diagonal_rows
    against Matrix.diagonal (the identity rows of GL_n) and torus_element
    (a model's torus rows), every tuple of units in turn."""
    R = make_ring(descriptor)
    cr = coded_ring(R)
    position = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    positions = data.draw(st.lists(position, min_size=1, max_size=3))
    E = elementary_codes(cr, n, positions)
    for table, (i, j) in zip(E, positions):
        mats = [Matrix.elementary(R, n, i, j, r) for r in R.elements()]
        assert np.array_equal(table, encode_matrices(cr, mats))

    units = R.units()
    gl = [Matrix.diagonal(R, tup) for tup in itertools.product(units, repeat=n)]
    assert np.array_equal(
        chevalley._diagonal_rows(cr, np.eye(n, dtype=np.int64)),
        encode_matrices(cr, gl)[:, :: n + 1],
    )
    if label in ("B3", "G2") and R.characteristic() == 2:
        return
    model = matrix_model(label, R)
    k = len(model.torus_rows)
    tori = [torus_element(model, tup) for tup in itertools.product(units, repeat=k)]
    assert np.array_equal(
        chevalley._diagonal_rows(cr, model.torus_rows),
        encode_matrices(cr, tori)[:, :: model.n + 1],
    )


@pytest.fixture
def laurent_products(monkeypatch):
    """Counts LaurentRing.mul calls."""
    calls = []
    mul = LaurentRing.mul

    def counted(self, a, b):
        calls.append(None)
        return mul(self, a, b)

    monkeypatch.setattr(LaurentRing, "mul", counted)
    return calls


@pytest.mark.parametrize("label", ("C2", "D4"))
def test_form_search_multiplies_no_laurent_entries(laurent_products, label):
    model = matrix_model(label, Z7)
    chevalley._symbolic_generators(model)
    generators_alone = len(laurent_products)
    laurent_products.clear()
    assert check_form_invariance(model).ok
    assert len(laurent_products) <= generators_alone


def test_weyl_conjugation_makes_one_batch_per_simple_root(monkeypatch):
    """Per simple root, one left product for every case batch and x_alpha
    together and one for the double conjugation; then one for the
    non-simple membership spot check."""
    calls = []
    mul_batch_left = chevalley.mul_batch_left

    def counted(*args, **kwargs):
        calls.append(None)
        return mul_batch_left(*args, **kwargs)

    monkeypatch.setattr(chevalley, "mul_batch_left", counted)
    assert check_weyl_conjugation("D4", Z3).ok
    assert len(calls) == 2 * len(root_system("D4").simples) + 1 == 9


def test_factorization_multiplies_one_block_of_left_factors_per_call(monkeypatch):
    """No `mul_batch_left` call; one `mul_pairs` call per block of left
    factors, each block at most `_PAIR_BLOCK` product codes."""

    def refuse(*args):
        raise AssertionError("mul_batch_left in a factorization check")

    calls = []
    mul_pairs = chevalley.mul_pairs

    def counted(cr, As, Bs, n):
        calls.append(len(As))
        return mul_pairs(cr, As, Bs, n)

    monkeypatch.setattr(chevalley, "mul_batch_left", refuse)
    monkeypatch.setattr(chevalley, "mul_pairs", counted)
    # 24 sources of 3 x 3 codes: 24 * 24 * 9 codes fit one block
    assert borel_gln_check(3, 1, 2, Z3).ok
    assert calls == [24]
    # the sampled pool of 312: 312 * 9 codes per left factor, 11 per block
    calls.clear()
    assert chevalley._PAIR_BLOCK // (312 * 9) == 11
    assert borel_gln_check(3, 1, 2, Z7).ok
    assert calls == [11] * 28 + [4]
    calls.clear()
    monkeypatch.setattr(chevalley, "_PAIR_BLOCK", 5 * 24 * 9)
    assert borel_gln_check(3, 1, 2, Z3).ok
    assert calls == [5, 5, 5, 5, 4]


def test_commutator_records_make_three_row_products_each(monkeypatch):
    """One `mul_rows` call per position for additivity, then three per
    commutator record over all of its position pairs."""
    calls = []
    mul_rows = chevalley.mul_rows

    def counted(*args):
        calls.append(None)
        return mul_rows(*args)

    monkeypatch.setattr(chevalley, "mul_rows", counted)
    assert check_elementary_relations(4, F4).ok
    positions = 4 * 3
    assert len(calls) == positions + 3 * 3
