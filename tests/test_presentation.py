import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_presentation as reference
from abelslab import complexes, presentation
from abelslab.abels import contracting_family, subgroup_family, unipotent_and_torus
from abelslab.complexes import coset_complex, fundamental_group
from abelslab.config import BudgetExceeded
from abelslab.matrices import Matrix
from abelslab.presentation import (
    CayleyPresentation,
    ColimitDiagram,
    CosetTable,
    Presentation,
    PresentationError,
    check_missing_relations,
    colimit_presentation,
    commutator_word,
    family_diagram,
    free_reduce,
    inverse_word,
    positions_presentation,
    power_word,
    regular_representation_presentation,
    tietze_reduce,
    tits_criterion_check,
    todd_coxeter,
    un_canonical_presentation,
    un_economic_presentation,
    verify_presentations,
    von_dyck_check,
)
from abelslab.rings import additive_presentation, make_ring
from reference_abels import subgroup_by_name

Z2 = make_ring("zmod:2")
Z3 = make_ring("zmod:3")
Z4 = make_ring("zmod:4")
F4Q = make_ring("polyq:2:0,0,1")

P_Z2 = additive_presentation(Z2)
P_Z3 = additive_presentation(Z3)
P_Z4 = additive_presentation(Z4)
P_F4Q = additive_presentation(F4Q)

S3 = Presentation(("a", "b"), ((1, 1, 1), (2, 2), (1, 2, 1, 2)))


def unitriangular_order(n, ring):
    return ring.order() ** (n * (n - 1) // 2)


# -- words ------------------------------------------------------------------


def test_free_reduce():
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce((1, 2, -2, -1)) == ()
    assert free_reduce(()) == ()
    assert free_reduce((1, 1, -2)) == (1, 1, -2)


def test_inverse_word():
    assert inverse_word((1, -2, 3)) == (-3, 2, -1)
    assert free_reduce((1, -2) + inverse_word((1, -2))) == ()


def test_commutator_word():
    assert commutator_word((1,), (2,)) == (1, 2, -1, -2)
    assert commutator_word((1,), (1,)) == ()


def test_power_word():
    assert power_word((1, 2), 2) == (1, 2, 1, 2)
    assert power_word((1,), -3) == (-1, -1, -1)
    assert power_word((1, 2), 0) == ()


# -- presentation container --------------------------------------------------


def test_presentation_validation():
    with pytest.raises(PresentationError):
        Presentation(("a", "a"), ())
    with pytest.raises(PresentationError):
        Presentation(("",), ())
    # names are labels only: no case or alphabet rule
    assert Presentation(("A",), ()).generators == ("A",)
    assert Presentation(("12",), ()).generators == ("12",)
    with pytest.raises(PresentationError):
        Presentation(("a",), ((2,),))


def test_presentation_reduces_relators():
    p = Presentation(("a", "b"), ((1, -1), (1, 2, -2, 2)))
    assert p.relators == ((1, 2),)


# -- triangular presentations -------------------------------------------------


def test_canonical_shape():
    can = un_canonical_presentation(4, P_Z2)
    assert can.generators == (
        "e12t0",
        "e13t0",
        "e14t0",
        "e23t0",
        "e24t0",
        "e34t0",
    )
    assert len(can.relators) == 32


def test_economic_shape():
    eco = un_economic_presentation(4, P_Z2)
    assert "e14t0" not in eco.generators
    assert len(eco.generators) == 5
    assert len(eco.relators) == 17
    eco5 = un_economic_presentation(5, P_Z2)
    can5 = un_canonical_presentation(5, P_Z2)
    assert len(eco5.generators) == 9 and len(eco5.relators) == 57
    assert len(can5.generators) == 10 and len(can5.relators) == 90


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize(
    "descriptor",
    ["zmod:2", "zmod:3", "zmod:4", "zmod:6", "polyq:2:0,0,1", "polyq:3:1,0,1"],
)
def test_economic_matches_reference(n, descriptor):
    ringpres = additive_presentation(make_ring(descriptor))
    assert un_economic_presentation(n, ringpres) == reference.un_economic_presentation(
        n, ringpres
    )


def test_single_position_is_additive_only():
    p = positions_presentation([(1, 2)], P_Z4)
    assert p.generators == ("e12t0",)
    assert p.relators == ((1, 1, 1, 1),)
    assert todd_coxeter(p).count == 4


def test_window_must_be_chain_closed():
    with pytest.raises(PresentationError):
        positions_presentation([(1, 2), (2, 3)], P_Z2)
    with pytest.raises(PresentationError):
        positions_presentation([(2, 1)], P_Z2)


def test_size_guards():
    with pytest.raises(PresentationError):
        un_canonical_presentation(1, P_Z2)
    with pytest.raises(PresentationError):
        un_economic_presentation(3, P_Z2)


# -- coset enumeration --------------------------------------------------------


def test_cyclic_group():
    t = todd_coxeter(Presentation(("a",), ((1,) * 5,)))
    assert t.status == "complete"
    assert t.count == 5
    perm = reference.coset_action(t, 1)
    assert sorted(perm) == list(range(5))
    # single 5-cycle through every coset
    seen, a = [0], perm[0]
    while a != 0:
        seen.append(a)
        a = perm[a]
    assert len(seen) == 5


def test_symmetric_group_enumeration():
    t = todd_coxeter(S3)
    assert (t.count, t.status) == (6, "complete")
    orbit = {0}
    for _ in range(t.count):
        orbit |= {reference.coset_action(t, g)[a] for a in orbit for g in (1, 2)}
    assert orbit == set(range(t.count))
    assert t.trace(0, (1, 1, 1)) == 0
    assert t.trace(0, (2, 2)) == 0
    assert todd_coxeter(S3, ((1,),)).count == 2
    assert todd_coxeter(S3, ((2,),)).count == 3


def test_enumeration_overflow():
    infinite_dihedral = Presentation(("a", "b"), ((1, 1), (2, 2)))
    t = todd_coxeter(infinite_dihedral, (), budget=64)
    assert t.status == "overflow"


def test_budget_guard():
    with pytest.raises(PresentationError):
        todd_coxeter(S3, (), budget=0)


def test_incomplete_table_guards():
    partial = CosetTable(1, [[1, -1], [-1, 0]], "overflow")
    assert partial.trace(0, (1, 1)) == -1
    with pytest.raises(PresentationError):
        reference.coset_action(partial, 1)


@pytest.mark.parametrize(
    "n,ringpres,ring",
    [
        (2, P_Z4, Z4),
        (3, P_Z2, Z2),
        (3, P_F4Q, F4Q),
        (4, P_Z2, Z2),
        (4, P_Z3, Z3),
        (5, P_Z2, Z2),
    ],
)
def test_canonical_index(n, ringpres, ring):
    t = todd_coxeter(un_canonical_presentation(n, ringpres))
    assert t.status == "complete"
    assert t.count == unitriangular_order(n, ring)


@pytest.mark.parametrize(
    "n,ringpres,ring",
    [(4, P_Z2, Z2), (4, P_Z3, Z3), (5, P_Z2, Z2)],
)
def test_economic_index(n, ringpres, ring):
    t = todd_coxeter(un_economic_presentation(n, ringpres))
    assert t.status == "complete"
    assert t.count == unitriangular_order(n, ring)


def test_enumeration_is_deterministic():
    a = todd_coxeter(un_canonical_presentation(4, P_Z3))
    b = todd_coxeter(un_canonical_presentation(4, P_Z3))
    assert a.rows == b.rows
    assert a.status == b.status


def test_tietze_reduce():
    p = Presentation(("a", "b", "c"), ((2,), (1, 3)))
    r = tietze_reduce(p)
    assert r.generators == ("a",)
    assert r.relators == ()
    # group-preserving on a nontrivial example
    assert todd_coxeter(tietze_reduce(S3)).count == todd_coxeter(S3).count


# -- one-pass enumeration and linear Tietze against the reference versions ----

def property_settings(examples):
    return settings(
        derandomize=True, database=None, deadline=None, max_examples=examples
    )


def words(ngens, max_size):
    letters = st.integers(1, ngens).flatmap(lambda g: st.sampled_from((g, -g)))
    return st.lists(letters, max_size=max_size).map(tuple)


@st.composite
def enumeration_cases(draw):
    ngens = draw(st.integers(1, 3))
    relators = draw(st.lists(words(ngens, 7), max_size=4))
    subgroup = draw(st.one_of(st.just(()), words(ngens, 7).map(lambda w: (w,))))
    budget = draw(st.sampled_from((1, 8, 30, 200)))
    names = tuple(f"x{k + 1}" for k in range(ngens))
    return Presentation(names, tuple(relators)), subgroup, budget


def assert_same_enumeration(pres, subgroup=(), budget=None):
    new = todd_coxeter(pres, subgroup, budget)
    old = reference.todd_coxeter(pres, subgroup, budget)
    assert (new.status, new.rows) == (old.status, old.rows)
    return new


def moves(table):
    return (table.defined, table.peak_live, table.coincidences, table.lookaheads)


@property_settings(400)
@given(case=enumeration_cases())
def test_todd_coxeter_matches_reference(case):
    assert_same_enumeration(*case)


# (defined, peak_live, coincidences, lookaheads) pin the sequence of moves,
# which equal final rows alone do not
TRIANGULAR_MOVES = {
    (un_canonical_presentation, 4, P_Z3): (958, 740, 230, 0),
    (un_economic_presentation, 4, P_Z3): (1257, 794, 529, 0),
    (un_canonical_presentation, 5, P_Z2): (1482, 1057, 459, 0),
    (un_economic_presentation, 5, P_Z2): (3179, 1479, 2156, 0),
    (un_canonical_presentation, 4, P_Z4): (7888, 4458, 3793, 0),
    (un_economic_presentation, 4, P_Z4): (9620, 5122, 5525, 0),
}


@pytest.mark.parametrize("build,n,ringpres", list(TRIANGULAR_MOVES))
def test_todd_coxeter_matches_reference_on_triangular_groups(build, n, ringpres):
    table = assert_same_enumeration(build(n, ringpres))
    assert moves(table) == TRIANGULAR_MOVES[build, n, ringpres]


def test_todd_coxeter_matches_reference_at_overflow():
    # U_4(Z/2) runs lookahead at the budget: at 63 it frees cosets and the
    # enumeration still overflows, at 64 it completes after the lookahead
    infinite_dihedral = Presentation(("a", "b"), ((1, 1), (2, 2)))
    for budget in (1, 2, 5, 64):
        assert_same_enumeration(infinite_dihedral, (), budget)
    pres = un_canonical_presentation(4, P_Z2)
    expected = {
        8: ("overflow", (7, 8, 0, 1)),
        40: ("overflow", (39, 40, 0, 1)),
        63: ("overflow", (65, 63, 3, 2)),
        64: ("complete", (66, 64, 3, 1)),
    }
    for budget, (status, counters) in expected.items():
        t = assert_same_enumeration(pres, (), budget)
        assert (t.status, moves(t)) == (status, counters)
        t = assert_same_enumeration(pres, ((1,), (4,)), budget)
        assert (t.status, t.count, moves(t)) == ("complete", 8, (8, 8, 1, 0))


def test_todd_coxeter_matches_reference_on_coincidence_heavy_inputs():
    # the colimit of `verify tits --n 4 --ring zmod:2`: 254 cosets defined,
    # 191 of them die
    tits = colimit_presentation(family_diagram(contracting_family(4, Z2)))
    assert moves(assert_same_enumeration(tits)) == (254, 74, 191, 0)
    a, b = s3_matrices()
    # the relative enumeration of acceptance criterion C08
    free = colimit_presentation(family_diagram(([a], [b])))
    relative = assert_same_enumeration(free, ((1, 2) * 6,), 4096)
    assert (relative.status, relative.count) == ("complete", 12)
    # pi_1 of the S3 hexagon is free of rank one, before and after Tietze
    hexagon = fundamental_group(coset_complex([a, b], ([a], [b])))
    for pres in (hexagon, tietze_reduce(hexagon)):
        assert assert_same_enumeration(pres, (), 64).status == "overflow"
    # pi_1 of the contracting complex of A_4(Z/2) before Tietze: every coset
    # defined dies, and at budget 8 only after a lookahead
    group = unipotent_and_torus(4, Z2)[0]
    pi1 = fundamental_group(coset_complex(group, contracting_family(4, Z2)))
    assert moves(assert_same_enumeration(pi1)) == (23, 9, 23, 0)
    assert moves(assert_same_enumeration(pi1, (), 8)) == (21, 8, 21, 1)


def test_coset_table_counters():
    cases = [
        (S3, ()),
        (S3, ((1,),)),
        (un_canonical_presentation(4, P_Z3), ()),
        (un_economic_presentation(5, P_Z2), ()),
        (Presentation(("a", "b"), ((1, 1), (2, 2))), ()),
    ]
    for pres, subgroup in cases:
        runs = [todd_coxeter(pres, subgroup, 200) for _ in range(2)]
        counters = [
            (t.defined, t.peak_live, t.coincidences, t.lookaheads) for t in runs
        ]
        assert counters[0] == counters[1]
        t = runs[0]
        if t.status == "complete":
            assert t.count == 1 + t.defined - t.coincidences
            assert t.count <= t.peak_live <= 1 + t.defined
        else:
            assert t.lookaheads >= 1 and t.peak_live <= 200
    assert todd_coxeter(un_economic_presentation(5, P_Z2)).coincidences > 0


def test_closing_check_rejects_broken_tables():
    check = presentation._check_complete
    cyclic = np.array([[1, 2], [2, 0], [0, 1]])
    check(cyclic, [(0, 0, 0)], [(0, 0, 0)])
    with pytest.raises(PresentationError, match="undefined"):
        check(np.array([[1, -1], [-1, 0]]), [], [])
    with pytest.raises(PresentationError, match="inverse"):
        check(np.array([[1, 1], [2, 2], [0, 0]]), [], [])
    with pytest.raises(PresentationError, match="relator"):
        check(cyclic, [(0, 0)], [])
    with pytest.raises(PresentationError, match="subgroup"):
        check(cyclic, [(0, 0, 0)], [(0,)])


@st.composite
def tietze_cases(draw):
    ngens = draw(st.integers(1, 6))
    relators = draw(st.lists(words(ngens, 5), max_size=8))
    return Presentation(tuple(f"x{k + 1}" for k in range(ngens)), tuple(relators))


@property_settings(500)
@given(pres=tietze_cases())
def test_tietze_matches_reference(pres):
    assert tietze_reduce(pres) == reference.tietze_reduce(pres)


@pytest.mark.parametrize(
    "ngens,relators,generators,reduced",
    [
        (
            3,
            ((2, 3, 1), (-3,), (3,), (-2, -2), (-1, -2), (2, -1)),
            ("x2",),
            ((-1, -1), (1, 1)),
        ),
        (
            6,
            ((-1, -3, 4), (-1,), (-4, -3), (-3, 1, -4)),
            ("x2", "x3", "x5", "x6"),
            ((-2, -2),),
        ),
    ],
)
def test_tietze_order_of_moves(ngens, relators, generators, reduced):
    # a pass-based union-find resolves these differently
    pres = Presentation(tuple(f"x{k + 1}" for k in range(ngens)), relators)
    out = tietze_reduce(pres)
    assert (out.generators, out.relators) == (generators, reduced)
    assert out == reference.tietze_reduce(pres)


# -- matrix-side checks --------------------------------------------------------


def elementary_assignment(pres, n, ring):
    T = additive_presentation(ring).generators
    out = {}
    for name in pres.generators:
        i, rest = int(name[1]), name[2:]
        j, t = int(rest[0]), int(rest.split("t")[1])
        out[name] = Matrix.elementary(ring, n, i, j, T[t])
    return out


def test_von_dyck_canonical():
    can = un_canonical_presentation(4, P_Z3)
    assert von_dyck_check(can, elementary_assignment(can, 4, Z3))


def test_von_dyck_inverts_each_image_once(monkeypatch):
    can = un_canonical_presentation(4, P_Z3)
    images = elementary_assignment(can, 4, Z3)
    calls = []
    inverse = Matrix.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    assert von_dyck_check(can, images)
    assert len(calls) == len(images)


def test_von_dyck_economic():
    eco = un_economic_presentation(4, P_Z3)
    assert von_dyck_check(eco, elementary_assignment(eco, 4, Z3))


def test_von_dyck_detects_bad_images():
    can = un_canonical_presentation(4, P_Z2)
    images = elementary_assignment(can, 4, Z2)
    images["e12t0"], images["e13t0"] = images["e13t0"], images["e12t0"]
    assert not von_dyck_check(can, images)


def test_von_dyck_argument_errors():
    can = un_canonical_presentation(3, P_Z2)
    images = elementary_assignment(can, 3, Z2)
    with pytest.raises(PresentationError):
        von_dyck_check(can, {k: images[k] for k in list(images)[:-1]})
    bad = dict(images)
    bad["e12t0"] = Matrix.from_rows(Z2, [[Z2.zero] * 3] * 3)
    with pytest.raises(PresentationError):
        von_dyck_check(can, bad)
    mixed = dict(images)
    mixed["e12t0"] = Matrix.identity(Z2, 4)
    with pytest.raises(PresentationError):
        von_dyck_check(can, mixed)


def test_von_dyck_needs_a_finite_ring():
    Z = make_ring("z")
    pres = Presentation(("a",), ((1, 1),))
    with pytest.raises(PresentationError, match="finite ring"):
        von_dyck_check(pres, {"a": Matrix.elementary(Z, 2, 1, 2, Z.one)})


def image_pools():
    """Small nonabelian groups, as lists of their matrices: S3 as permutation
    matrices over Z/2, and U_3(Z/3)."""
    a, b = s3_matrices()
    e12 = Matrix.elementary(Z3, 3, 1, 2, Z3.one)
    e23 = Matrix.elementary(Z3, 3, 2, 3, Z3.one)
    return (
        [Matrix.identity(Z2, 3), a, b, a.mul(b), b.mul(a), a.mul(b).mul(a)],
        [Matrix.identity(Z3, 3), e12, e23, e12.mul(e23), e23.mul(e12), e12.mul(e12)],
    )


@property_settings(200)
@given(
    pool=st.integers(0, 1),
    picks=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    relators=st.lists(words(2, 9), max_size=5),
)
def test_von_dyck_matches_word_evaluation(pool, picks, relators):
    images = [image_pools()[pool][k] for k in picks]
    pres = Presentation(("a", "b"), tuple(relators))
    expected = all(
        reference.evaluate_word(w, images, images[0].ring, 3).is_identity()
        for w in pres.relators
    )
    assert von_dyck_check(pres, dict(zip(pres.generators, images))) == expected


def test_evaluate_word():
    e12 = Matrix.elementary(Z3, 3, 1, 2, Z3.one)
    e23 = Matrix.elementary(Z3, 3, 2, 3, Z3.one)
    e13 = Matrix.elementary(Z3, 3, 1, 3, Z3.one)
    assert reference.evaluate_word((1, 2, -1, -2), [e12, e23], Z3, 3) == e13
    inverses = [e12.inverse(), e23.inverse()]
    assert reference.evaluate_word((1, 2, -1, -2), [e12, e23], Z3, 3, inverses) == e13


@pytest.mark.parametrize("n,ring", [(4, Z3), (5, Z2)])
def test_missing_relation_sweep(n, ring):
    rep = check_missing_relations(n, ring)
    assert rep.ok
    assert {c.id for c in rep.checks} == {
        "corner-definition",
        "disjoint-row-column",
        "chain-through-column",
        "corner-central",
        "corner-additive",
    }
    assert all(c.status == "pass" for c in rep.checks)


def _records(rep):
    return [
        (c.id, c.anchor, c.status, c.counts, c.counterexample) for c in rep.checks
    ]


@pytest.mark.parametrize(
    "n,descriptor", [(4, "zmod:3"), (5, "zmod:2"), (4, "polyq:2:1,1,1"), (6, "zmod:2")]
)
def test_missing_relations_match_the_matrix_route(n, descriptor):
    ring = make_ring(descriptor)
    assert _records(check_missing_relations(n, ring)) == _records(
        reference.missing_relations(n, ring)
    )


def test_missing_relations_form_no_matrix_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("Matrix arithmetic in the corner sweep")

    monkeypatch.setattr(Matrix, "mul", refuse)
    monkeypatch.setattr(Matrix, "inverse", refuse)
    assert check_missing_relations(5, F4Q).ok


def _failed(rep):
    return [(c.id, c.counts["cases"], c.counterexample) for c in rep.checks if c.status == "fail"]


def _patched_codes(monkeypatch, position, change):
    """elementary_codes, as presentation reads it, with the table T of
    `position` replaced by change(cr, T).  The sweep reads row -c as the
    inverse of row c, so the change must keep that true."""
    real = presentation.elementary_codes

    def patched(cr, n, positions):
        E = real(cr, n, positions)
        p = positions.index(position)
        E[p] = change(cr, E[p])
        return E

    monkeypatch.setattr(presentation, "elementary_codes", patched)


def _doubled(cr, T):
    """Row c holds e(2r), r of code c."""
    c = np.arange(cr.q)
    return T[cr.add[c, c]]


def _squared(cr, T):
    """Row c holds e(r^2), r of code c: in characteristic 2, -r = r."""
    c = np.arange(cr.q)
    return T[cr.mul[c, c]]


def _with_entry(n, i, j):
    """Row c also holds r at (i, j): a commuting factor e_ij(r)."""
    def change(cr, T):
        T = T.copy()
        T[:, (i - 1) * n + j - 1] = np.arange(cr.q)
        return T
    return change


def test_corner_definition_fails_on_a_doubled_corner_table(monkeypatch):
    # e_14(t) read as e_14(2t): still central, but not c(t)
    _patched_codes(monkeypatch, (1, 4), _doubled)
    rep = check_missing_relations(4, Z3)
    assert _failed(rep) == [("corner-definition", 1, "corner element at t=1")]


def test_disjoint_commutator_fails_on_a_row_that_reaches_the_corner(monkeypatch):
    # e_24(s) read as e_24(s) e_34(s): c(t) = [e_12(t), e_24(1) e_34(1)]
    # is unchanged, but [e_13(t), e_24(s) e_34(s)] = e_14(ts)
    _patched_codes(monkeypatch, (2, 4), _with_entry(4, 3, 4))
    rep = check_missing_relations(4, Z3)
    assert _failed(rep) == [("disjoint-row-column", 1, "(j,k)=(3,2), t=1, s=1")]


def test_chain_fails_with_the_unit_second(monkeypatch):
    # e_34(s) read as e_34(2s): [e_13(t), e_34(1)] is e_14(2t), not c(t)
    _patched_codes(monkeypatch, (3, 4), _doubled)
    rep = check_missing_relations(4, Z3)
    assert _failed(rep) == [("chain-through-column", 2, "chain j=3, t=1 (unit second)")]


def test_chain_fails_with_the_unit_first(monkeypatch):
    # over F_2[x]/(x^2), e_34(s) read as e_34(s^2): e_34(1) is right, so
    # the unit-second case holds, and [e_13(1), e_34(x)] is the identity
    _patched_codes(monkeypatch, (3, 4), _squared)
    rep = check_missing_relations(4, F4Q)
    x = F4Q.element_repr(additive_presentation(F4Q).generators[1])
    assert _failed(rep) == [("chain-through-column", 4, f"chain j=3, t={x} (unit first)")]


def test_corner_central_fails_on_an_element_that_reaches_the_first_column(monkeypatch):
    # for n = 5 only the central sweep reads e_23; read as e_23(t) e_51(t)
    # it does not commute with c(s) = e_15(s).  (2,3) is the fifth position.
    _patched_codes(monkeypatch, (2, 3), _with_entry(5, 5, 1))
    rep = check_missing_relations(5, Z3)
    assert _failed(rep) == [("corner-central", 5, "(i,j)=(2,3), t=1, s=1")]


def test_corner_additive_fails_on_a_relator_that_does_not_hold(monkeypatch):
    """c(1) has order 3 over Z/3: the rows (3,) and (-3,) hold, (2,) does
    not; both routes agree on the records."""
    for module in (presentation, reference):
        real = module.additive_presentation
        monkeypatch.setattr(
            module, "additive_presentation",
            lambda ring, real=real: dataclasses.replace(real(ring), relators=((3,), (-3,), (2,))),
        )
    rep = check_missing_relations(4, Z3)
    assert _failed(rep) == [("corner-additive", 3, "additive row (2,)")]
    assert _records(rep) == _records(reference.missing_relations(4, Z3))


def test_first_failure_stops_at_the_first_counterexample():
    seen = []

    def sweep(results):
        for value in results:
            seen.append(value)
            yield value

    assert reference.first_failure(sweep([None, None, "bad 3", "bad 4", None])) == (3, "bad 3")
    assert seen == [None, None, "bad 3"]
    assert reference.first_failure(iter([None] * 5)) == (5, None)
    assert reference.first_failure(()) == (0, None)


def test_power():
    Z5 = make_ring("zmod:5")
    e = Matrix.elementary(Z5, 2, 1, 2, 1)
    assert reference.power(e, 0).is_identity()
    assert reference.power(e, 5).is_identity()
    assert reference.power(e, 3) == Matrix.elementary(Z5, 2, 1, 2, 3)
    assert reference.power(e, -1) == Matrix.elementary(Z5, 2, 1, 2, 4)


# -- cayley presentations ------------------------------------------------------


def s3_matrices():
    def perm(imgs):
        rows = [[Z2.zero] * 3 for _ in range(3)]
        for src, dst in enumerate(imgs):
            rows[src][dst] = Z2.one
        return Matrix.from_rows(Z2, rows)

    return perm((1, 0, 2)), perm((0, 2, 1))


def test_regular_representation_presentation():
    a, b = s3_matrices()
    cay = regular_representation_presentation([a, b], names=("a", "b"))
    assert isinstance(cay, CayleyPresentation)
    assert cay.order == 6
    assert todd_coxeter(cay.presentation).count == 6
    for mat, word in cay.words.items():
        assert reference.evaluate_word(word, [a, b], Z2, 3) == mat
    assert cay.words[Matrix.identity(Z2, 3)] == ()


def test_regular_representation_budget():
    a, b = s3_matrices()
    with pytest.raises(BudgetExceeded):
        regular_representation_presentation([a, b], budget=3)


# -- colimits -------------------------------------------------------------------


def test_colimit_free_product_overflows():
    c2 = Presentation(("x",), ((1, 1),))
    diagram = ColimitDiagram((("u", c2), ("v", c2)), ())
    colim = colimit_presentation(diagram)
    assert colim.generators == ("u.x", "v.x")
    assert todd_coxeter(colim, (), budget=100).status == "overflow"


def test_colimit_diagram_validation():
    c2 = Presentation(("x",), ((1, 1),))
    with pytest.raises(PresentationError):
        ColimitDiagram((("u", c2),), ((0, 1, c2, ((1,),), ((1,),)),))
    with pytest.raises(PresentationError):
        ColimitDiagram(
            (("u", c2), ("v", c2)), ((0, 1, c2, (), ((1,),)),)
        )


def test_colimit_rejects_non_homomorphic_edge():
    c2 = Presentation(("x",), ((1, 1),))
    c3 = Presentation(("y",), ((1, 1, 1),))
    edge = (0, 1, c2, ((1,),), ((1,),))
    diagram = ColimitDiagram((("u", c2), ("v", c3)), (edge,))
    with pytest.raises(PresentationError, match="nontrivial word in node 1"):
        colimit_presentation(diagram)


def test_colimit_validation_overflow_names_the_budget():
    # y^4 maps to x^4, trivial in C2 but not a listed relator, so deciding
    # it enumerates C2, which needs two cosets
    c2 = Presentation(("x",), ((1, 1),))
    c4 = Presentation(("y",), ((1, 1, 1, 1),))
    edge = (0, 1, c4, ((1,),), ((1,),))
    diagram = ColimitDiagram((("u", c2), ("v", c2)), (edge,))
    assert todd_coxeter(colimit_presentation(diagram)).count == 2
    with pytest.raises(
        PresentationError,
        match=r"^edge relator validation overflowed the budget of 1 cosets$",
    ):
        colimit_presentation(diagram, budget=1)


@pytest.mark.parametrize("family,expected", [("horospherical", 3), ("contracting", 0)])
def test_colimit_enumerates_each_node_at_most_once(monkeypatch, family, expected):
    # a node is enumerated only for an edge word that is not a listed
    # relator; every edge word of the window presentations is one
    diagram = family_diagram(subgroup_family(family, 4, Z2)[1])
    nodes = [pres for _, pres in diagram.nodes]
    enumerate_cosets = presentation.todd_coxeter
    enumerated = []

    def counted(pres, subgroup_words=(), budget=None):
        enumerated.append(pres)
        return enumerate_cosets(pres, subgroup_words, budget)

    monkeypatch.setattr(presentation, "todd_coxeter", counted)
    colimit_presentation(diagram)
    assert len(enumerated) == expected
    assert all(any(pres is node for node in nodes) for pres in enumerated)
    assert len({id(pres) for pres in enumerated}) == expected


@pytest.mark.parametrize(
    "n,ring,expected",
    [(4, Z2, 64), (4, Z3, 729), (5, Z2, 1024)],
)
def test_family_colimit_recovers_unitriangular_group(n, ring, expected):
    diagram = family_diagram(contracting_family(n, ring))
    colim = colimit_presentation(diagram)
    t = todd_coxeter(colim)
    assert t.status == "complete"
    assert t.count == expected


def test_family_diagram_generic_route():
    a, b = s3_matrices()
    diagram = family_diagram(([a], [b]))
    colim = colimit_presentation(diagram)
    # trivial intersections identify nothing: a free product, hence infinite
    assert todd_coxeter(colim, (), budget=100).status == "overflow"


# -- nerve criterion -------------------------------------------------------------


def test_tits_positive_instance():
    group = unipotent_and_torus(4, Z2)[0]
    rep = tits_criterion_check(group, contracting_family(4, Z2))
    assert rep.ok
    by_id = {c.id: c for c in rep.checks}
    assert by_id["connectivity-vs-generation"].status == "pass"
    assert by_id["colimit-index"].counts["index"] == 64
    assert by_id["simple-connectivity-vs-colimit"].status == "pass"


def test_tits_connected_but_not_simply_connected():
    a, b = s3_matrices()
    # small budget: the colimit here is infinite, so enumeration must
    # overflow and the complex side alone decides the verdict
    rep = tits_criterion_check([a, b], ([a], [b]), budget=2048)
    assert rep.ok
    by_id = {c.id: c for c in rep.checks}
    conn = by_id["connectivity-vs-generation"]
    assert conn.status == "pass"
    assert conn.counts == {"components": 1, "generated": 6, "group_order": 6}
    assert by_id["colimit-index"].status == "inconclusive"
    sc = by_id["simple-connectivity-vs-colimit"]
    assert sc.status == "pass"
    assert sc.counts.get("colimit_overflow") == 1


def test_tits_disconnected_instance():
    a, b = s3_matrices()
    cyc = a @ b
    rep = tits_criterion_check([a, b], ([cyc], [cyc]))
    assert rep.ok
    by_id = {c.id: c for c in rep.checks}
    conn = by_id["connectivity-vs-generation"]
    assert conn.status == "pass"
    assert conn.counts == {"components": 2, "generated": 3, "group_order": 6}
    assert by_id["colimit-index"].counts["index"] == 3
    sc = by_id["simple-connectivity-vs-colimit"]
    assert sc.status == "pass"
    assert sc.counts == {"components": 2}


def tits_verdict(group, family, budget=None):
    rep = tits_criterion_check(group, family, budget=budget)
    (check,) = [c for c in rep.checks if c.id == "simple-connectivity-vs-colimit"]
    return check


def test_tits_simply_connected_with_a_wrong_colimit_index_fails(monkeypatch):
    # the colimit of U_4(Z/2)'s contracting family enumerates to 64 cosets;
    # one coset more must contradict the simply connected complex
    def one_more(pres, subgroup_words=(), budget=None):
        table = enumerate_cosets(pres, subgroup_words, budget)
        # the colimit's generators are named node.generator; no node's are
        if any("." in g for g in pres.generators):
            table.rows.append(list(table.rows[0]))
        return table

    enumerate_cosets = presentation.todd_coxeter
    monkeypatch.setattr(presentation, "todd_coxeter", one_more)
    check = tits_verdict(unipotent_and_torus(4, Z2)[0], contracting_family(4, Z2))
    assert check.status == "fail"
    assert check.counterexample == "simply connected but colimit index 65 != 64"


def test_tits_connected_but_not_generated_fails(monkeypatch):
    # the group order comes from the coset complex, so a short closure of
    # the family's generators contradicts the connected complex
    monkeypatch.setattr(presentation, "closure_order", lambda ring, gens, budget: 1)
    rep = tits_criterion_check(*subgroup_family("contracting", 4, Z2))
    (check,) = [c for c in rep.checks if c.id == "connectivity-vs-generation"]
    assert check.status == "fail"
    assert check.counterexample == "components=1, generated=1, order=64"
    assert check.counts == {"components": 1, "generated": 1, "group_order": 64}


def test_tits_not_simply_connected_with_the_group_index_fails(monkeypatch):
    monkeypatch.setattr(complexes, "is_simply_connected", lambda *args, **kwargs: "no")
    check = tits_verdict(unipotent_and_torus(4, Z2)[0], contracting_family(4, Z2))
    assert check.status == "fail"
    assert check.counterexample == "not simply connected but colimit index equals 64"


def test_tits_simply_connected_with_an_overflowing_colimit_is_inconclusive(monkeypatch):
    # the S3 hexagon's colimit is infinite, so the enumeration overflows
    a, b = s3_matrices()
    monkeypatch.setattr(complexes, "is_simply_connected", lambda *args, **kwargs: "yes")
    check = tits_verdict([a, b], ([a], [b]), budget=2048)
    assert (check.status, check.counterexample) == ("inconclusive", None)
    assert check.counts == {"components": 1}


def test_tits_inconclusive_simple_connectivity_is_inconclusive(monkeypatch):
    monkeypatch.setattr(complexes, "is_simply_connected", lambda *args, **kwargs: "inconclusive")
    check = tits_verdict(unipotent_and_torus(4, Z2)[0], contracting_family(4, Z2))
    assert (check.status, check.counterexample) == ("inconclusive", None)


def test_tits_accepts_subgroup_spec_family():
    group = subgroup_by_name("A", 4, Z2)
    family = tuple(subgroup_by_name(f"H{i}", 4, Z2) for i in (1, 2, 3, 4))
    rep = tits_criterion_check(group, family)
    assert rep.ok
    by_id = {c.id: c for c in rep.checks}
    assert by_id["connectivity-vs-generation"].counts["group_order"] == 64
    assert by_id["colimit-index"].counts["index"] == 64


def test_generation_overflow_is_inconclusive():
    rep = verify_presentations(3, make_ring("zmod:3"), budget=20)
    record = {c.id: c for c in rep.checks}["canonical-generates"]
    assert record.status == "inconclusive"
    assert record.counterexample == "inconclusive-budget: group closure overflowed"


# -- negative controls: each check of verify_presentations can fail ------------


def presentation_records(n, ring):
    return {c.id: c for c in verify_presentations(n, ring).checks}


def test_presentations_index_fails_on_a_weakened_presentation(monkeypatch):
    # dropping any one relator of U_3 or U_4 either changes nothing or makes
    # the group infinite (an overflow, so INCONCLUSIVE); squaring the last
    # additive relator, e23^2 -> e23^4, gives a finite group of order 16
    # whose relators all still hold on the elementary matrices
    build = presentation.un_canonical_presentation

    def weakened(n, ringpres):
        pres = build(n, ringpres)
        *kept, last = pres.relators
        return Presentation(pres.generators, (*kept, last * 2))

    monkeypatch.setattr(presentation, "un_canonical_presentation", weakened)
    records = presentation_records(3, Z2)
    index = records["canonical-index"]
    assert index.status == "fail"
    assert index.counterexample == "enumerated 16 cosets, expected 8"
    assert records["canonical-relators-hold"].status == "pass"
    assert records["canonical-generates"].status == "pass"


def test_presentations_relators_fail_on_a_wrong_image(monkeypatch):
    check = presentation.von_dyck_check

    def swapped(pres, assignment):
        images = dict(assignment)
        images["e12t0"], images["e13t0"] = images["e13t0"], images["e12t0"]
        return check(pres, images)

    monkeypatch.setattr(presentation, "von_dyck_check", swapped)
    calls = recorded_enumerations(monkeypatch)
    records = presentation_records(4, Z2)
    for variant in ("canonical", "economic"):
        holds = records[f"{variant}-relators-hold"]
        assert holds.status == "fail"
        assert holds.counterexample == "a relator evaluates to a non-identity matrix"
        assert records[f"{variant}-index"].status == "pass"
        assert records[f"{variant}-generates"].status == "pass"
    # relators that fail on the images certify no subgroup order, so each
    # variant is enumerated over the trivial subgroup alone
    assert [(pres, words) for pres, words, _ in calls] == [
        (un_canonical_presentation(4, P_Z2), ()),
        (un_economic_presentation(4, P_Z2), ()),
    ]


def test_presentations_generation_fails_on_a_short_closure(monkeypatch):
    order = presentation.closure_order
    monkeypatch.setattr(
        presentation,
        "closure_order",
        lambda ring, gens, budget: order(ring, gens, budget) - 1,
    )
    records = presentation_records(3, Z2)
    generates = records["canonical-generates"]
    assert generates.status == "fail"
    assert generates.counterexample == "images generate 7 elements, expected 8"
    assert records["canonical-index"].status == "pass"
    assert records["canonical-relators-hold"].status == "pass"


# -- relative enumeration of group orders --------------------------------------


def recorded_enumerations(monkeypatch, change=None):
    """(presentation, subgroup words, table) of every enumeration that the
    presentation module makes; ``change`` may rewrite a presentation
    before it is enumerated."""
    enumerate_cosets = presentation.todd_coxeter
    calls = []

    def recorded(pres, subgroup_words=(), budget=None):
        if change is not None:
            pres = change(pres)
        table = enumerate_cosets(pres, subgroup_words, budget)
        calls.append((pres, tuple(subgroup_words), table))
        return table

    monkeypatch.setattr(presentation, "todd_coxeter", recorded)
    return calls


def record_fields(rep):
    return [(c.id, c.status, c.counts, c.counterexample) for c in rep.checks]


@pytest.mark.parametrize(
    "n,descriptor",
    [(n, d) for d in ("zmod:2", "zmod:3") for n in (2, 3, 4, 5)]
    + [(n, "polyq:2:0,1") for n in (2, 3, 4)],
)
def test_presentations_relative_order_equals_plain_enumeration(monkeypatch, n, descriptor):
    ring = make_ring(descriptor)
    ringpres = additive_presentation(ring)
    variants = {"canonical": un_canonical_presentation(n, ringpres)}
    if n >= 4:
        variants["economic"] = un_economic_presentation(n, ringpres)
    calls = recorded_enumerations(monkeypatch)
    records = presentation_records(n, ring)
    # each variant is enumerated relative to its last column, and only the
    # presentations of that column (generators e<k><n>t<i>) are enumerated
    # over the trivial subgroup
    assert [pres for pres, words, _ in calls if words] == list(variants.values())
    assert all(g[2] == str(n) for pres, words, _ in calls if not words for g in pres.generators)
    for name, pres in variants.items():
        assert records[f"{name}-index"].counts["index"] == todd_coxeter(pres).count


@pytest.mark.parametrize("family", ["contracting", "horospherical"])
@pytest.mark.parametrize("n", [4, 5])
def test_tits_relative_order_equals_plain_enumeration(monkeypatch, family, n):
    group, members = subgroup_family(family, n, Z2)
    colim = colimit_presentation(family_diagram(members))
    calls = recorded_enumerations(monkeypatch)
    rep = tits_criterion_check(group, members)
    assert [pres for pres, words, _ in calls if words] == [colim]
    assert all(pres != colim for pres, words, _ in calls if not words)
    index = {c.id: c for c in rep.checks}["colimit-index"]
    assert index.counts["index"] == todd_coxeter(colim).count


def test_presentations_define_fewer_cosets_than_the_group_order(monkeypatch):
    # an enumeration over the trivial subgroup defines at least
    # |U_5(Z/2)| = 1 024 cosets for either variant
    calls = recorded_enumerations(monkeypatch)
    verify_presentations(5, Z2)
    assert sum(table.defined for *_, table in calls) < 1024


def test_presentations_fall_back_when_the_column_presentation_is_too_big(monkeypatch):
    # the last column of U_3(Z/2) is presented by two commutators and the
    # squares of e13 and e23; without e23^2 it presents Z/2 x Z, which
    # overflows, so the plain enumeration decides the index
    expected = record_fields(verify_presentations(3, Z2, budget=100))

    def drop_last(pres):
        if len(pres.generators) == 2:
            return Presentation(pres.generators, pres.relators[:-1])
        return pres

    calls = recorded_enumerations(monkeypatch, drop_last)
    rep = verify_presentations(3, Z2, budget=100)
    assert record_fields(rep) == expected
    column, full = calls
    assert (column[0].generators, column[2].status) == (("e13t0", "e23t0"), "overflow")
    assert (full[0], full[1], full[2].count) == (un_canonical_presentation(3, P_Z2), (), 8)


def test_presentations_relative_order_above_the_budget_is_inconclusive(monkeypatch):
    # U_4(Z/2): the last column has order 8 and index 8, both within 60
    # cosets, but the order 64 is not; a plain enumeration would overflow
    calls = recorded_enumerations(monkeypatch)
    records = {c.id: c for c in verify_presentations(4, Z2, budget=60).checks}
    index = records["canonical-index"]
    assert index.status == "inconclusive"
    assert index.counterexample == "inconclusive-budget: enumeration overflowed"
    relative = [table for _, words, table in calls if words]
    assert [(t.status, t.count) for t in relative] == [("complete", 8), ("complete", 16)]
    assert all(words for pres, words, _ in calls if len(pres.generators) > 3)


def test_tits_enumerates_the_plain_colimit_when_its_relators_fail(monkeypatch):
    group, members = subgroup_family("contracting", 4, Z2)
    colim = colimit_presentation(family_diagram(members))
    monkeypatch.setattr(presentation, "von_dyck_check", lambda pres, assignment: False)
    calls = recorded_enumerations(monkeypatch)
    rep = tits_criterion_check(group, members)
    assert rep.ok
    assert [(pres, words) for pres, words, _ in calls] == [(colim, ())]
    assert {c.id: c for c in rep.checks}["colimit-index"].counts["index"] == 64
