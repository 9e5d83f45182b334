import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abelslab import abels, kernels
from abelslab.abels import (
    AbelsError,
    SubgroupSpec,
    abels_group,
    center_check,
    center_subgroup,
    check_abelian,
    check_abels_retraction,
    check_closure_matches_pattern,
    check_h4_fiber_product,
    check_normality,
    check_semidirect,
    check_torus_invariance,
    contracting,
    contracting_family,
    horospherical,
    horospherical_family,
    intersections,
    unipotent_and_torus,
    verify_abels,
)
from abelslab.config import BudgetExceeded
from abelslab.kernels import closure_order
from abelslab.matrices import Matrix
from abelslab.rings import RingError, make_ring
from reference_abels import spec_elements, subgroup_by_name

Z2 = make_ring("zmod:2")
Z3 = make_ring("zmod:3")
Z4 = make_ring("zmod:4")
Z5 = make_ring("zmod:5")
F4 = make_ring("polyq:2:1,1,1")


# -- patterns and orders ---------------------------------------------------


def test_ambient_orders():
    assert abels_group(4, Z2).order() == 64
    assert abels_group(4, Z3).order() == 2916
    assert abels_group(5, Z3).order() == 472392
    assert abels_group(2, Z5).order() == 5


def test_ambient_size_guard():
    with pytest.raises(AbelsError):
        abels_group(1, Z3)


def _in_pattern(spec, mats):
    cr = kernels.coded_ring(spec.ring)
    return abels._pattern_mask(spec, cr, kernels.encode_matrices(cr, mats)).tolist()


def test_ambient_membership():
    rows = [list(r) for r in Matrix.identity(Z4, 4).rows]
    rows[1][1] = 2  # not a unit mod 4
    assert _in_pattern(abels_group(4, Z4), [
        Matrix.identity(Z4, 4),
        Matrix.elementary(Z4, 4, 1, 4, 3),
        Matrix.elementary(Z4, 4, 3, 2, 1),
        Matrix(Z4, rows),
    ]) == [True, True, False, False]


def test_generator_families():
    assert len(abels_group(4, Z2).generators) == 6
    assert len(abels_group(4, Z3).generators) == 8
    assert len(abels_group(5, Z3).generators) == 13
    amb = abels_group(4, Z3)
    assert all(_in_pattern(amb, list(amb.generators)))


def test_unipotent_and_torus_orders():
    u, t = unipotent_and_torus(4, Z5)
    assert u.order() == 5**6
    assert t.order() == 16
    assert unipotent_and_torus(4, Z2)[1].order() == 1
    assert unipotent_and_torus(4, Z3)[0].order() == 729


def test_elements_sorted_by_packed_key():
    spec = horospherical(4, Z3, 1)
    assert spec.order() == 108
    coded = spec.elements_encoded()
    cr = kernels.coded_ring(Z3)
    keys = kernels.pack_keys(cr, coded, 4)
    assert (np.diff(keys) > 0).all()
    listed = np.stack(
        [kernels.encode_matrix(cr, m) for m in spec_elements(spec)]
    )
    assert (listed == coded).all()


def _generated(R, gens):
    """The subgroup of the unit group that the units ``gens`` generate."""
    span, frontier = {R.one}, [R.one]
    while frontier:
        fresh = {R.mul(x, g) for x in frontier for g in gens} - span
        span |= fresh
        frontier = list(fresh)
    return span


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(descriptor=st.integers(2, 64).map("zmod:{}".format))
# unit groups that need two or three generators
@example(descriptor="zmod:8")
@example(descriptor="zmod:15")
@example(descriptor="zmod:16")
@example(descriptor="polyq:3:0,0,0,1")
def test_unit_generators_generate_the_unit_group(descriptor):
    R = make_ring(descriptor)
    gens = abels._unit_generators(R)
    assert _generated(R, gens) == set(R.units())
    # each kept unit lies outside the subgroup of the ones kept before it
    for k, u in enumerate(gens):
        assert u not in _generated(R, gens[:k])


def test_unit_generators_of_noncyclic_unit_groups():
    assert len(abels._unit_generators(make_ring("zmod:16"))) == 2
    assert len(abels._unit_generators(make_ring("polyq:3:0,0,0,1"))) == 3
    assert abels._unit_generators(Z2) == ()


def _verified_specs(n, ring):
    """Every spec whose members ``verify_abels`` and the retraction scan."""
    return (
        abels_group(n, ring),
        *unipotent_and_torus(n, ring),
        center_subgroup(n, ring),
        *horospherical_family(n, ring),
        *contracting_family(n, ring),
        abels._window_spec(n, ring),
    )


@pytest.mark.parametrize("n, descriptor, budget", [
    (4, "zmod:3", None),
    (4, "zmod:4", None),
    (5, "zmod:2", None),
    # byte keys; A and U are over the budget, H1, H2 and H4 just fit
    (4, "zmod:16", 1 << 18),
])
def test_member_keys_pack_the_members(n, descriptor, budget):
    R = make_ring(descriptor)
    cr = kernels.coded_ring(R)
    for spec in _verified_specs(n, R):
        for cap in (budget, spec.order() - 1):
            try:
                expected = kernels.pack_keys(cr, spec.elements_encoded(cap), n)
            except BudgetExceeded as exc:
                with pytest.raises(BudgetExceeded, match=f"^{exc}$"):
                    spec.member_keys(cap)
            else:
                assert np.array_equal(spec.member_keys(cap), expected), spec


def test_center_subgroup_pattern():
    z = center_subgroup(4, Z3)
    assert z.free_positions == ((1, 4),)
    assert z.unit_positions == ()
    assert z.order() == 3


# -- horospherical families ------------------------------------------------


def test_horospherical_patterns():
    h3 = horospherical(4, Z3, 3)
    assert h3.free_positions == ((1, 2), (3, 4))
    assert h3.unit_positions == (2, 3)
    h4 = horospherical(4, Z3, 4)
    assert h4.free_positions == ((1, 3), (2, 3), (2, 4))
    assert h4.unit_positions == (2, 3)
    h1 = horospherical(5, Z3, 1)
    assert h1.free_positions == (
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    )
    h2 = horospherical(5, Z3, 2)
    assert h2.free_positions == (
        (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
    )


def test_horospherical_guards():
    with pytest.raises(AbelsError):
        horospherical(3, Z3, 1)
    with pytest.raises(AbelsError):
        horospherical(5, Z3, 4)
    with pytest.raises(AbelsError):
        horospherical(4, Z3, 5)


def test_family_order_oracles():
    assert horospherical(4, Z2, 1).order() == 8
    assert horospherical(4, Z3, 4).order() == 108
    assert contracting(4, Z2, 1).order() == 8


def test_contracting_meet_is_inner_unitriangular():
    meet = intersections([contracting(5, Z3, 1), contracting(5, Z3, 2)])
    assert meet.name == "U1&U2"
    assert meet.free_positions == ((2, 3), (2, 4), (3, 4))
    assert meet.unit_positions == ()
    assert meet.order() == 27


def test_intersections_guards():
    with pytest.raises(AbelsError):
        intersections([])
    with pytest.raises(AbelsError):
        intersections([abels_group(4, Z3), abels_group(5, Z3)])
    with pytest.raises(AbelsError):
        intersections([abels_group(4, Z3), abels_group(4, Z2)])


def test_pattern_validation():
    with pytest.raises(AbelsError):
        SubgroupSpec(Z3, 2, "bad", (("u", "f"), ("0", "0")))
    with pytest.raises(AbelsError):
        SubgroupSpec(Z3, 2, "bad", (("1", "u"), ("0", "1")))
    with pytest.raises(AbelsError):
        SubgroupSpec(Z3, 2, "bad", (("1", "f"),))


def test_subgroup_by_name():
    assert subgroup_by_name("A", 4, Z3).name == "A"
    assert subgroup_by_name("u", 4, Z3).name == "U"
    assert subgroup_by_name("T", 4, Z3).name == "T"
    assert subgroup_by_name("Z", 4, Z3).name == "Z"
    assert subgroup_by_name("H2", 4, Z3).name == "H2"
    assert subgroup_by_name("u3", 4, Z3).free_positions == ((1, 2), (3, 4))
    with pytest.raises(AbelsError):
        subgroup_by_name("H9", 4, Z3)
    with pytest.raises(AbelsError):
        subgroup_by_name("X", 4, Z3)


# -- closure ----------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        abels_group(4, Z2),
        abels_group(4, Z3),
        abels_group(5, Z2),
        unipotent_and_torus(4, Z3)[0],
        unipotent_and_torus(4, Z5)[1],
        horospherical(4, Z3, 1),
        horospherical(4, Z3, 2),
        horospherical(4, Z3, 3),
        horospherical(4, Z3, 4),
        contracting(4, Z3, 1),
        contracting(4, Z3, 2),
        contracting(4, Z3, 3),
        contracting(4, Z3, 4),
        abels_group(3, F4),
    ],
    ids=lambda s: f"{s.name}-{s.n}-{s.ring.descriptor}",
)
def test_closure_matches_pattern(spec):
    assert check_closure_matches_pattern(spec)


def test_closure_budget_guard():
    with pytest.raises(BudgetExceeded, match="inconclusive-budget"):
        check_closure_matches_pattern(abels_group(4, Z3), budget=100)


def test_closure_overflow_is_inconclusive(monkeypatch):
    # the extra generator e32(1) leaves the pattern, so the closure outgrows
    # a budget that the members fit exactly
    real = abels.abels_group

    def with_e32(n, ring):
        spec = real(n, ring)
        spec._gens = spec.generators + (Matrix.elementary(ring, n, 3, 2, ring.one),)
        return spec

    monkeypatch.setattr(abels, "abels_group", with_e32)
    budget = real(4, Z3).order()
    assert check_closure_matches_pattern(real(4, Z3), budget)
    with pytest.raises(BudgetExceeded, match="^inconclusive-budget: closure overflowed$"):
        check_closure_matches_pattern(abels.abels_group(4, Z3), budget)
    record = {c.id: c for c in verify_abels(4, Z3, budget).checks}["closure:A"]
    assert record.status == "inconclusive"
    assert record.counterexample == "inconclusive-budget: closure overflowed"


# -- center ------------------------------------------------------------------


def test_center_oracles():
    assert center_check(4, Z2)
    assert center_check(3, Z3)
    assert center_check(4, Z3)


def test_center_small_n_is_rejected():
    with pytest.raises(AbelsError):
        center_check(2, Z3)


def test_center_budget():
    with pytest.raises(BudgetExceeded, match="inconclusive-budget"):
        center_check(4, Z3, budget=100)


def test_center_by_hand():
    # corner subgroup commutes with everything; a unipotent non-corner does not
    amb = abels_group(3, Z3)
    corner = Matrix.elementary(Z3, 3, 1, 3, 1)
    off = Matrix.elementary(Z3, 3, 1, 2, 1)
    commutes_all = all(
        corner.mul(g) == g.mul(corner) for g in spec_elements(amb)
    )
    assert commutes_all
    assert any(off.mul(g) != g.mul(off) for g in spec_elements(amb))


# -- torus action, retraction, factorization ---------------------------------


def test_torus_invariance():
    assert check_torus_invariance(4, Z2)
    assert check_torus_invariance(4, Z3)
    assert check_torus_invariance(5, Z3)
    assert check_torus_invariance(5, Z5)


def test_torus_invariance_fails_for_a_narrowed_pattern(monkeypatch):
    # U1 keeps its generators but its pattern drops (1,2), where the
    # elementary generators e12(t) sit: their torus conjugates leave it
    real = abels.contracting_family

    def narrowed(n, ring):
        first, *rest = real(n, ring)
        pattern = [list(row) for row in first.pattern]
        pattern[0][1] = "0"
        spec = SubgroupSpec(ring, n, first.name, pattern)
        spec._gens = first.generators
        return (spec, *rest)

    monkeypatch.setattr(abels, "contracting_family", narrowed)
    assert not check_torus_invariance(4, Z2)
    assert not check_torus_invariance(4, Z3)
    rep = verify_abels(4, Z3)
    assert {c.id: c.status for c in rep.checks}["torus-invariance"] == "fail"


def _each_route(monkeypatch):
    """Yield on the key route, then with every product on chunk gathers."""
    yield
    monkeypatch.setattr(kernels, "TABLE_CAP", 1)
    yield


def test_retraction(monkeypatch):
    with pytest.raises(AbelsError):
        check_abels_retraction(3, Z3)
    for _ in _each_route(monkeypatch):
        assert check_abels_retraction(4, Z3)
        assert check_abels_retraction(4, Z4)
        assert check_abels_retraction(5, Z2)


def test_keyed_retraction_makes_no_batch_products(monkeypatch):
    def batch_product(*args, **kwargs):
        raise AssertionError("the retraction multiplied a batch")

    monkeypatch.setattr(kernels, "mul_batch_left", batch_product)
    monkeypatch.setattr(kernels, "_batch_keys", batch_product)
    assert check_abels_retraction(4, Z4)
    assert check_abels_retraction(5, Z2)


def test_retraction_retracts_no_member(monkeypatch):
    # the window entries of g*x come from one entry_keys call, and no
    # (|A|, n*n) retracted copy of the members is built
    rows, calls = [], []
    retract, entry_keys = abels._retract_codes, kernels.entry_keys
    monkeypatch.setattr(
        abels, "_retract_codes",
        lambda cr, vecs, *args: rows.append(len(vecs)) or retract(cr, vecs, *args),
    )
    monkeypatch.setattr(
        kernels, "entry_keys", lambda *args: calls.append(None) or entry_keys(*args)
    )
    for n, ring in ((4, Z4), (5, Z2)):
        rows.clear()
        calls.clear()
        assert check_abels_retraction(n, ring)
        assert len(calls) == 1
        assert max(rows) < abels_group(n, ring).order()


def test_retraction_budget():
    # |A_4(Z/3)| = 2916: over the budget the check is inconclusive, not a
    # pass on generator pairs alone
    with pytest.raises(BudgetExceeded, match="inconclusive-budget"):
        check_abels_retraction(4, Z3, budget=100)


def _window_pins_23(monkeypatch):
    # a window that pins (2,3) to zero: r keeps that entry of every member
    monkeypatch.setattr(abels, "_window_spec", lambda n, ring: abels._spec(
        ring, "B2window", "1uu" + "1" * (n - 3)
    ))


def _ambient_frees_32(monkeypatch):
    # an ambient pattern with a free (3,2): every image still lies in the
    # window, but e32(1)*x adds entry (2,3) of x to its (3,3), which r keeps
    real = abels.abels_group

    def with_e32(n, ring):
        pattern = [list(row) for row in real(n, ring).pattern]
        pattern[2][1] = "f"
        return SubgroupSpec(ring, n, "A", pattern)

    monkeypatch.setattr(abels, "abels_group", with_e32)


def test_retraction_fails_when_the_image_leaves_the_window(monkeypatch):
    _window_pins_23(monkeypatch)
    for _ in _each_route(monkeypatch):
        assert not check_abels_retraction(4, Z2)
        assert not check_abels_retraction(4, Z3)


def test_infinite_retraction_fails_when_the_image_leaves_the_window(monkeypatch):
    # the same broken window over Z is refused, never passed on generators
    _window_pins_23(monkeypatch)
    with pytest.raises(RingError, match="^z is not finite$"):
        check_abels_retraction(4, make_ring("z"))


def test_retraction_fails_when_the_window_is_not_fixed(monkeypatch):
    # a window with a free (1,2) still holds every image, but r clears (1,2)
    monkeypatch.setattr(abels, "_window_spec", lambda n, ring: abels._spec(
        ring, "B2window", "1uu" + "1" * (n - 3), [(2, 3), (1, 2)]
    ))
    for _ in _each_route(monkeypatch):
        assert not check_abels_retraction(4, Z2)
        assert not check_abels_retraction(4, Z3)


def test_retraction_fails_when_the_corner_survives(monkeypatch):
    # a "center" at (2,3) lies in the window, so r does not kill it
    monkeypatch.setattr(abels, "center_subgroup", lambda n, ring: abels._spec(
        ring, "Z", "1" * n, [(2, 3)]
    ))
    for _ in _each_route(monkeypatch):
        assert not check_abels_retraction(4, Z2)
        assert not check_abels_retraction(4, Z3)


def test_retraction_fails_on_the_torus_image(monkeypatch):
    # a "torus" with a free (2,3): r keeps that entry, the diagonal map drops it
    real = abels.unipotent_and_torus

    def widened(n, ring):
        uni, _ = real(n, ring)
        return uni, abels._spec(ring, "T", abels._pinned(n), [(2, 3)])

    monkeypatch.setattr(abels, "unipotent_and_torus", widened)
    for _ in _each_route(monkeypatch):
        assert not check_abels_retraction(4, Z2)
        assert not check_abels_retraction(4, Z3)


def test_retraction_fails_when_it_is_not_multiplicative(monkeypatch):
    _ambient_frees_32(monkeypatch)
    for _ in _each_route(monkeypatch):
        assert not check_abels_retraction(4, Z2)
        assert not check_abels_retraction(4, Z3)


def test_infinite_retraction_fails_when_it_is_not_multiplicative(monkeypatch):
    # over Z no generator pair stands in for the full product scan
    _ambient_frees_32(monkeypatch)
    with pytest.raises(RingError, match="^z is not finite$"):
        check_abels_retraction(4, make_ring("z"))


def test_semidirect_factorizations():
    assert check_semidirect(abels_group(4, Z3))
    assert check_semidirect(abels_group(4, Z4))
    for i in (1, 2, 3, 4):
        assert check_semidirect(horospherical(4, Z3, i))
    assert check_semidirect(unipotent_and_torus(4, Z3)[1])


def test_semidirect_fails_when_the_orders_do_not_split(monkeypatch):
    # a torus that pins entry (2,2) to one: |A| != |A & U| * |A & T|
    real = abels.unipotent_and_torus

    def narrowed(n, ring):
        uni, torus = real(n, ring)
        return uni, abels._spec(ring, "T", "11" + "u" * (n - 3) + "1")

    monkeypatch.setattr(abels, "unipotent_and_torus", narrowed)
    assert not check_semidirect(abels_group(4, Z3))


@pytest.mark.parametrize("where, code", [
    (5, 0),  # entry (2,2) zero: the diagonal part is not invertible
    (4, 1),  # entry (2,1) one: the unitriangular part leaves U
    (0, 2),  # entry (1,1) two: the diagonal part leaves T
])
def test_semidirect_fails_on_a_perturbed_member(monkeypatch, where, code):
    # the last member of A_4(Z/3) comes back with one entry changed
    real = SubgroupSpec.elements_encoded

    def perturbed(self, budget=None):
        V = real(self, budget)
        if self.name == "A":
            V[-1, where] = code
        return V

    monkeypatch.setattr(SubgroupSpec, "elements_encoded", perturbed)
    assert not check_semidirect(abels_group(4, Z3))


def test_semidirect_fails_when_the_unipotent_part_is_not_normal(monkeypatch):
    # H3 with the extra generator e23(1): its members and patterns are
    # unchanged, but e23 conjugates e12(1) out of H3 & U
    def right_product(*args, **kwargs):
        raise AssertionError("normality left the key route")

    monkeypatch.setattr(kernels, "mul_batch_right", right_product)
    spec = horospherical(4, Z3, 3)
    assert check_semidirect(spec)
    spec._gens = spec.generators + (Matrix.elementary(Z3, 4, 2, 3, Z3.one),)
    assert not check_semidirect(spec)


def test_normality():
    u4, t4 = unipotent_and_torus(4, Z3)
    assert check_normality(u4, abels_group(4, Z3))
    assert not check_normality(t4, abels_group(4, Z3))


def test_torus_is_not_normal_on_either_route(monkeypatch):
    t4 = unipotent_and_torus(4, Z3)[1]
    assert not check_normality(t4, abels_group(4, Z3))
    monkeypatch.setattr(kernels, "TABLE_CAP", 1)
    assert not check_normality(t4, abels_group(4, Z3))
    assert check_normality(unipotent_and_torus(4, Z3)[0], abels_group(4, Z3))


def test_finite_normality_inverts_no_matrix(monkeypatch):
    calls = []
    inverse = Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse", lambda self: calls.append(None) or inverse(self))
    u4, t4 = unipotent_and_torus(4, Z4)
    assert check_normality(u4, abels_group(4, Z4))
    assert not check_normality(t4, abels_group(4, Z4))
    assert calls == []


def test_infinite_normality_fails_for_the_torus(monkeypatch):
    # over Z the torus is refused before any conjugation by Matrix inverses
    calls = []
    inverse = Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse", lambda self: calls.append(None) or inverse(self))
    ZZ = make_ring("z")
    with pytest.raises(RingError, match="^z is not finite$"):
        check_normality(unipotent_and_torus(4, ZZ)[1], abels_group(4, ZZ))
    assert calls == []


@pytest.mark.parametrize("descriptor", ["z", "zloc:6"])
def test_every_check_refuses_an_infinite_ring(monkeypatch, descriptor):
    # the checks are exhaustive scans: an infinite ring is refused at
    # the order, the member scan or the coded ring, before any product
    ring = make_ring(descriptor)
    gens = [Matrix.elementary(ring, 3, 1, 2, ring.one)]

    def refuse(*args, **kwargs):
        raise AssertionError("a product was formed over an infinite ring")

    monkeypatch.setattr(Matrix, "mul", refuse)
    monkeypatch.setattr(kernels, "group_closure", refuse)
    amb = abels_group(4, ring)
    uni = unipotent_and_torus(4, ring)[0]
    for check in (
        lambda: check_closure_matches_pattern(amb),
        lambda: center_check(4, ring),
        lambda: check_torus_invariance(4, ring),
        lambda: check_abels_retraction(4, ring),
        lambda: check_h4_fiber_product(ring),
        lambda: check_normality(uni, amb),
        lambda: check_semidirect(amb),
        lambda: check_abelian(contracting(4, ring, 3)),
        lambda: verify_abels(4, ring),
        lambda: closure_order(ring, gens),
    ):
        with pytest.raises(RingError, match=f"^{descriptor} is not finite$"):
            check()


def test_abelian_contracting():
    assert check_abelian(contracting(4, Z3, 3))
    assert check_abelian(contracting(5, Z3, 3))
    assert check_abelian(contracting(4, Z5, 4))
    # family 1 contains a chain pair, so it is not abelian
    assert not check_abelian(contracting(4, Z3, 1))


# -- fiber product ------------------------------------------------------------


def test_fiber_product():
    assert check_h4_fiber_product(Z2)
    assert check_h4_fiber_product(Z3)
    assert check_h4_fiber_product(F4)


def test_fiber_product_rejects_another_family(monkeypatch):
    # H1 has the order q^3 u^2 of H4, so only the split can tell them apart
    real = abels.horospherical
    monkeypatch.setattr(
        abels, "horospherical", lambda n, ring, i: real(n, ring, 1 if i == 4 else i)
    )
    assert abels.horospherical(4, Z3, 4).order() == real(4, Z3, 4).order()
    assert not check_h4_fiber_product(Z2)
    assert not check_h4_fiber_product(Z3)


def test_fiber_product_fails_on_the_fiber_count(monkeypatch):
    # H3 has order q^2 u^2, the fiber q^3 u^2
    real = abels.horospherical
    monkeypatch.setattr(
        abels, "horospherical", lambda n, ring, i: real(n, ring, 3 if i == 4 else i)
    )
    assert not check_h4_fiber_product(Z2)
    assert not check_h4_fiber_product(Z3)


def test_fiber_product_fails_when_products_do_not_split(monkeypatch):
    # the members of H4 are right, but an extra generator e12(1) outside H4
    # mixes entry (2,4) into (1,4), so the split is not multiplicative
    real = abels.horospherical

    def with_e12(n, ring, i):
        spec = real(n, ring, i)
        if i == 4:
            spec._gens = spec.generators + (Matrix.elementary(ring, n, 1, 2, ring.one),)
        return spec

    monkeypatch.setattr(abels, "horospherical", with_e12)
    assert not check_h4_fiber_product(Z2)
    assert not check_h4_fiber_product(Z3)


def test_fiber_product_fails_when_a_member_is_not_rebuilt(monkeypatch):
    # a split whose second factor drops entry (2,4): both factors keep their
    # patterns and share (2,2), but the split no longer determines the member
    real = abels._h4_split

    def lossy(cr, vecs):
        left, right = real(cr, vecs)
        right[:, 7] = cr.zero
        return left, right

    monkeypatch.setattr(abels, "_h4_split", lossy)
    assert not check_h4_fiber_product(Z2)
    assert not check_h4_fiber_product(Z3)


def test_fiber_product_budget():
    with pytest.raises(BudgetExceeded, match="inconclusive-budget"):
        check_h4_fiber_product(Z3, budget=10)


def test_finite_checks_run_on_coded_members(monkeypatch):
    # over a finite ring the three checks read members only as codes
    def refuse(*args):
        raise AssertionError("Matrix arithmetic on a finite ring")

    monkeypatch.setattr(Matrix, "mul", refuse)
    monkeypatch.setattr(Matrix, "inverse", refuse)
    for ring in (Z3, F4):
        assert check_h4_fiber_product(ring)
        assert check_torus_invariance(4, ring)
        assert check_abels_retraction(4, ring)


# -- aggregated report --------------------------------------------------------


def test_verify_abels_n4():
    rep = verify_abels(4, Z3)
    assert rep.ok
    assert rep.inconclusive_count == 0
    ids = {c.id for c in rep.checks}
    assert "closure:A" in ids
    assert "closure:U4" in ids
    assert "factorization:H4" in ids
    assert "center" in ids
    assert "torus-invariance" in ids
    assert "retraction" in ids
    assert "fiber-product" in ids
    assert "contracting-meet" in ids
    assert "abelian:U3" in ids
    assert "abelian:U4" in ids


def test_verify_abels_n5():
    rep = verify_abels(5, Z2)
    assert rep.ok
    ids = {c.id for c in rep.checks}
    assert "fiber-product" not in ids
    assert "abelian:U4" not in ids
    assert "closure:H3" in ids


def test_verify_abels_budget_marks_inconclusive():
    rep = verify_abels(4, Z3, budget=50)
    assert rep.inconclusive_count > 0
    assert rep.ok  # inconclusive is not a failure
