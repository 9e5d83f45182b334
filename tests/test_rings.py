import random
from fractions import Fraction
from itertools import product

import pytest

from abelslab.matrices import Matrix
from abelslab.rings import (
    GFRing,
    IntegerRing,
    LaurentRing,
    LocalizedIntegersRing,
    PolyQuotientRing,
    RingError,
    ZModRing,
    additive_presentation,
    make_ring,
)
from reference_rings import substitute, verify_additive_presentation


def exhaustive_axiom_check(R):
    els = R.elements()
    for a in els:
        assert R.add(a, R.zero) == a
        assert R.add(a, R.neg(a)) == R.zero
        assert R.mul(a, R.one) == a
        inv = R.try_inverse(a)
        if inv is not None:
            assert R.mul(a, inv) == R.one
    for a, b in product(els, els):
        assert R.add(a, b) == R.add(b, a)
        assert R.mul(a, b) == R.mul(b, a)
    sample = els if len(els) <= 8 else els[:: max(1, len(els) // 8)]
    for a, b, c in product(sample, sample, sample):
        assert R.add(R.add(a, b), c) == R.add(a, R.add(b, c))
        assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))
        assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))


def test_descriptor_grammar():
    assert make_ring("z").descriptor == "z"
    assert make_ring("zmod:6").descriptor == "zmod:6"
    assert make_ring("gf:5").descriptor == "gf:5"
    assert make_ring("polyq:2:0,0,1").descriptor == "polyq:2:0,0,1"
    assert make_ring("zloc:6").descriptor == "zloc:6"
    r = make_ring("zmod:4")
    assert make_ring(r) is r


@pytest.mark.parametrize(
    "bad",
    ["zmod:1", "gf:6", "gf:1", "polyq:4:0,1", "polyq:2:1,2", "zloc:1", "nope", "zmod:x", ""],
)
def test_descriptor_rejections(bad):
    with pytest.raises(RingError):
        make_ring(bad)


def test_structural_equality():
    assert make_ring("gf:5") != make_ring("zmod:5")
    assert make_ring("zmod:5") == ZModRing(5)
    assert hash(make_ring("gf:7")) == hash(GFRing(7))


def test_zmod4_units_and_inverse():
    R = ZModRing(4)
    assert R.try_inverse(3) == 3
    assert R.try_inverse(2) is None
    assert R.units() == [1, 3]
    assert R.order() == 4
    assert R.elements() == [0, 1, 2, 3]
    assert [R.encode(a) for a in R.elements()] == [0, 1, 2, 3]


def test_zmod_axioms():
    for m in (2, 3, 4, 5, 6, 9):
        exhaustive_axiom_check(ZModRing(m))


def test_gf_is_field():
    for p in (2, 3, 5, 7):
        R = GFRing(p)
        exhaustive_axiom_check(R)
        assert len(R.units()) == p - 1


def test_polyq_gf2_x2():
    # gf(2)[x]/(x^2): four elements, x*x = 0
    R = PolyQuotientRing(2, (0, 0, 1))
    assert R.order() == 4
    x = (0, 1)
    assert R.mul(x, x) == R.zero
    assert R.try_inverse(x) is None
    one_plus_x = (1, 1)
    assert R.mul(one_plus_x, one_plus_x) == R.one
    assert sorted(R.units()) == [(1, 0), (1, 1)]
    exhaustive_axiom_check(R)
    assert [R.encode(e) for e in R.elements()] == list(range(4))
    for c in range(4):
        assert R.encode(R.decode(c)) == c


def test_polyq_field_case():
    # gf(2)[x]/(x^2+x+1) is the four-element field
    R = PolyQuotientRing(2, (1, 1, 1))
    assert len(R.units()) == 3
    exhaustive_axiom_check(R)
    # gf(3)[x]/(x^2+1) is the nine-element field
    R9 = PolyQuotientRing(3, (1, 0, 1))
    assert len(R9.units()) == 8
    exhaustive_axiom_check(R9)


def test_polyq_reduction_rows():
    # gf(3)[x]/(x^3 + 2x + 1): x^3 = -2x - 1 = x + 2... check via mul
    R = PolyQuotientRing(3, (1, 2, 0, 1))
    x = (0, 1, 0)
    x3 = R.mul(R.mul(x, x), x)
    assert x3 == (2, 1, 0)
    exhaustive_axiom_check(R)


def test_integers():
    R = IntegerRing()
    assert R.try_inverse(1) == 1
    assert R.try_inverse(-1) == -1
    assert R.try_inverse(2) is None
    assert R.characteristic() == 0
    assert not R.finite
    with pytest.raises(RingError):
        R.order()


def test_localized_integers():
    R = LocalizedIntegersRing(6)
    half = Fraction(1, 2)
    assert R.try_inverse(Fraction(2)) == half
    assert R.try_inverse(Fraction(5)) is None
    assert R.try_inverse(Fraction(-9)) == Fraction(-1, 9)
    assert R.mul(half, Fraction(2)) == R.one
    assert R.characteristic() == 0


def test_power_and_scale():
    R = ZModRing(7)
    assert R.power(3, 6) == 1
    assert R.power(3, -1) == 5
    assert R.scale_int(10, 3) == 2
    Z = IntegerRing()
    assert Z.power(2, 10) == 1024
    assert Z.scale_int(-3, 4) == -12


def test_additive_presentation_zmod():
    R = ZModRing(4)
    pres = additive_presentation(R)
    assert pres.generators == (1,)
    assert pres.relators == ((4,),)
    assert pres.products == (((1,),),)
    assert verify_additive_presentation(pres)


def test_additive_presentation_polyq():
    R = PolyQuotientRing(2, (0, 0, 1))
    pres = additive_presentation(R)
    assert pres.generators == ((1, 0), (0, 1))
    assert pres.relators == ((2, 0), (0, 2))
    # x * x = 0: the (1, 1) product row is all zeros
    assert pres.products[1][1] == (0, 0)
    assert verify_additive_presentation(pres)


def test_additive_presentation_integers():
    pres = additive_presentation(IntegerRing())
    assert pres.relators == ()
    assert verify_additive_presentation(pres)


def test_additive_presentation_cardinality_detects_errors():
    R = ZModRing(4)
    pres = additive_presentation(R)
    broken = type(pres)(
        ring=R, generators=(1,), relators=((2,),), products=(((1,),),)
    )
    assert not verify_additive_presentation(broken)


def test_laurent_ring_basics():
    Z = IntegerRing()
    L = LaurentRing(Z, ("u", "r"), unit_names=("u",))
    u = L.variable("u")
    r = L.variable("r")
    uinv = L.try_inverse(u)
    assert uinv is not None
    assert L.mul(u, uinv) == L.one
    assert L.try_inverse(r) is None
    expr = L.add(L.mul(u, r), L.neg(L.mul(r, u)))
    assert expr == L.zero
    sq = L.mul(L.add(r, L.one), L.add(r, L.one))
    # (r+1)^2 = r^2 + 2r + 1
    expect = L.add(L.mul(r, r), L.add(L.scale_int(2, r), L.one))
    assert sq == expect


def test_laurent_negative_exponent_guard():
    Z = IntegerRing()
    L = LaurentRing(Z, ("u", "r"), unit_names=("u",))
    r = L.variable("r")
    assert L.try_inverse(r) is None
    u = L.variable("u")
    # u^-1 * r stays legal; r never gains a negative exponent
    expr = L.mul(L.try_inverse(u), r)
    assert expr != L.zero


def test_laurent_substitution_matches_direct():
    base = ZModRing(5)
    L = LaurentRing(base, ("u", "r"), unit_names=("u",))
    u, r = L.variable("u"), L.variable("r")
    expr = L.add(L.mul(L.mul(u, u), r), L.neg(L.try_inverse(u)))
    rng = random.Random(7)
    for _ in range(20):
        uv = rng.choice([1, 2, 3, 4])
        rv = rng.randrange(5)
        direct = base.add(base.mul(base.mul(uv, uv), rv), base.neg(base.inverse(uv)))
        assert substitute(L, expr, {"u": uv, "r": rv}) == direct


def test_element_reprs():
    assert ZModRing(5).element_repr(3) == "3"
    R = PolyQuotientRing(2, (0, 0, 1))
    assert R.element_repr((0, 0)) == "0"
    assert R.element_repr((1, 1)) == "1+x"
    assert R.element_repr((0, 1)) == "x"


# -- matrix products over Laurent rings -----------------------------------


def test_laurent_matmul_checks_term_budget():
    for max_terms, raises in ((2, True), (3, False)):
        L = LaurentRing(ZModRing(5), ("x", "y"), max_terms=max_terms)
        x, y, one, z = L.variable("x"), L.variable("y"), L.one, L.zero
        a = Matrix(L, ((x, y, one), (z, one, z), (z, z, one)))
        b = Matrix(L, ((one, z, z), (one, one, z), (L.mul(x, y), z, one)))
        # entry (1,1) is x + y + xy: three terms
        if raises:
            with pytest.raises(RingError, match="exceeds budget"):
                a.mul(b)
        else:
            assert len(a.mul(b).entry(1, 1)) == 3
