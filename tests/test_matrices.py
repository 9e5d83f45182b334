import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelslab.chevalley import SUPPORTED_LABELS, matrix_model, root_element
from abelslab.matrices import Matrix, MatrixError, conjugate_by_diagonal
from abelslab.rings import ZModRing, make_ring
from reference_matrices import commutator, hall_identity_check


Z5 = ZModRing(5)
Z4 = ZModRing(4)
Z7 = ZModRing(7)


def test_constructors_and_errors():
    I = Matrix.identity(Z5, 3)
    assert I.is_identity()
    e = Matrix.elementary(Z5, 3, 1, 3, 2)
    assert e.rows[0][2] == 2
    assert e.rows[0][0] == 1
    with pytest.raises(MatrixError):
        Matrix.elementary(Z5, 3, 2, 2, 1)
    with pytest.raises(MatrixError):
        Matrix.elementary(Z5, 3, 0, 1, 1)
    with pytest.raises(MatrixError):
        Matrix.elementary(Z5, 3, 1, 4, 1)
    with pytest.raises(MatrixError):
        Matrix.diagonal(Z4, (2, 1))
    d = Matrix.diagonal(Z4, (3, 1))
    assert d.rows[0][0] == 3


def test_elementary_product_rule():
    # e_ij(r) e_ij(s) = e_ij(r+s)
    for r in range(5):
        for s in range(5):
            lhs = Matrix.elementary(Z5, 3, 1, 2, r).mul(
                Matrix.elementary(Z5, 3, 1, 2, s)
            )
            assert lhs == Matrix.elementary(Z5, 3, 1, 2, (r + s) % 5)


def test_chain_commutator_rule():
    # [e_ij(r), e_jl(s)] = e_il(rs) for distinct i, j, l
    for r in range(4):
        for s in range(4):
            x = Matrix.elementary(Z4, 3, 1, 2, r)
            y = Matrix.elementary(Z4, 3, 2, 3, s)
            assert commutator(x, y) == Matrix.elementary(Z4, 3, 1, 3, (r * s) % 4)


def test_disjoint_commutator_trivial():
    x = Matrix.elementary(Z4, 3, 1, 2, 2)
    y = Matrix.elementary(Z4, 3, 2, 3, 2)
    # over zmod(4), rs = 0 here, so the commutator collapses to the identity
    assert commutator(x, y).is_identity()
    a = Matrix.elementary(Z5, 4, 1, 2, 3)
    b = Matrix.elementary(Z5, 4, 3, 4, 2)
    assert commutator(a, b).is_identity()


def test_diagonal_conjugation_examples():
    # Diag(2,1) e12(1) Diag(2,1)^-1 = e12(2) over zmod(5)
    d = Matrix.diagonal(Z5, (2, 1))
    e = Matrix.elementary(Z5, 2, 1, 2, 1)
    assert conjugate_by_diagonal(d, e) == Matrix.elementary(Z5, 2, 1, 2, 2)
    # Diag(1,3) e12(2) Diag(1,3)^-1 = e12(3) over zmod(7): 2 * 3^-1 = 2 * 5 = 3
    d7 = Matrix.diagonal(Z7, (1, 3))
    e7 = Matrix.elementary(Z7, 2, 1, 2, 2)
    assert conjugate_by_diagonal(d7, e7) == Matrix.elementary(Z7, 2, 1, 2, 3)


def test_diagonal_conjugation_matches_generic():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        d = Matrix.diagonal(Z5, tuple(rng.choice([1, 2, 3, 4]) for _ in range(n)))
        m = Matrix.from_rows(
            Z5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)]
        )
        assert conjugate_by_diagonal(d, m) == d.mul(m).mul(d.inverse())


def test_inverse_triangular():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.choice([2, 3, 4, 5])
        rows = [[Z5.zero] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.choice([1, 2, 3, 4])
            for j in range(i + 1, n):
                rows[i][j] = rng.randrange(5)
        m = Matrix.from_rows(Z5, rows)
        assert m.mul(m.inverse()).is_identity()
        assert m.inverse().mul(m).is_identity()
        mt = m.transpose()
        assert mt.mul(mt.inverse()).is_identity()


def test_inverse_general_and_det():
    w = Matrix.from_rows(Z5, [[0, 1], [4, 0]])
    assert w.det() == Z5.one
    assert w.mul(w.inverse()).is_identity()
    m = Matrix.from_rows(Z7, [[1, 2, 3], [0, 4, 5], [6, 0, 1]])
    d = m.det()
    # cross-check the subset-DP determinant by cofactor expansion
    cof = (
        1 * (4 * 1 - 5 * 0) - 2 * (0 * 1 - 5 * 6) + 3 * (0 * 0 - 4 * 6)
    ) % 7
    assert d == cof
    if Z7.is_unit(d):
        assert m.mul(m.inverse()).is_identity()
    sing = Matrix.from_rows(Z4, [[2, 0], [0, 1]])
    with pytest.raises(MatrixError):
        sing.inverse()


INVERSE_RINGS = ("zmod:4", "zmod:6", "zmod:7", "polyq:2:0,0,1", "z")
INVERSE_SHAPES = ("full", "diagonal", "upper", "lower")


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(
    descriptor=st.sampled_from(INVERSE_RINGS),
    shape=st.sampled_from(INVERSE_SHAPES),
    unit_diagonal=st.booleans(),
    data=st.data(),
)
def test_inverse_exactly_when_determinant_is_a_unit(descriptor, shape, unit_diagonal, data):
    R = make_ring(descriptor)
    n = data.draw(st.integers(1, 4))
    if R.finite:
        entry, unit = st.sampled_from(R.elements()), st.sampled_from(R.units())
    else:
        entry, unit = st.integers(-3, 3), st.sampled_from([1, -1])
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    for i in range(n):
        if shape != "full":
            rows[i] = [
                v if (shape == "upper" and j >= i) or (shape == "lower" and j <= i)
                else R.zero
                for j, v in enumerate(rows[i])
            ]
        if unit_diagonal:
            rows[i][i] = data.draw(unit)
    m = Matrix.from_rows(R, rows)
    if R.is_unit(m.det()):
        inv = m.inverse()
        assert m.mul(inv).is_identity()
        assert inv.mul(m).is_identity()
    else:
        with pytest.raises(MatrixError):
            m.inverse()


def test_inverse_without_unit_pivot_takes_the_adjugate():
    # over Z/6 no entry of [[2,3],[3,2]] is a unit, yet det = -5 = 1 is
    Z6 = ZModRing(6)
    m = Matrix.from_rows(Z6, [[2, 3], [3, 2]])
    assert m._inverse_unit_pivots() is None
    inv = m.inverse()
    # the adjugate [[2,-3],[-3,2]] is m itself
    assert inv == m
    assert m.mul(inv).is_identity() and inv.mul(m).is_identity()


def test_inverse_of_singular_full_matrix_raises():
    # neither diagonal nor triangular, with a unit pivot in the first
    # column but not in the last, and det = 0 over Z/4
    for rows in ([[1, 2], [2, 0]], [[1, 1], [1, 1]], [[3, 1, 2], [1, 0, 2], [2, 1, 0]]):
        m = Matrix.from_rows(Z4, rows)
        assert not Z4.is_unit(m.det())
        with pytest.raises(MatrixError):
            m.inverse()


def test_det_multiplicative():
    rng = random.Random(3)
    for _ in range(20):
        a = Matrix.from_rows(Z7, [[rng.randrange(7) for _ in range(3)] for _ in range(3)])
        b = Matrix.from_rows(Z7, [[rng.randrange(7) for _ in range(3)] for _ in range(3)])
        assert a.mul(b).det() == Z7.mul(a.det(), b.det())


def test_weyl_element_shape():
    # x(1) x(-1)^T-ish sandwich: e12(1) e21(-1) e12(1) = ((0,1),(-1,0))
    x = Matrix.elementary(Z5, 2, 1, 2, 1)
    y = Matrix.elementary(Z5, 2, 2, 1, Z5.neg(Z5.one))
    w = x.mul(y).mul(x)
    assert w == Matrix.from_rows(Z5, [[0, 1], [4, 0]])


def test_hall_identities_random_invertibles():
    rng = random.Random(17)
    found = 0
    while found < 30:
        rows = [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
        a = Matrix.from_rows(Z5, rows)
        if not Z5.is_unit(a.det()):
            continue
        b = Matrix.from_rows(
            Z5, [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
        )
        if not Z5.is_unit(b.det()):
            continue
        c = Matrix.from_rows(
            Z5, [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
        )
        if not Z5.is_unit(c.det()):
            continue
        assert hall_identity_check(a, b, c)
        found += 1


def test_hall_identities_unitriangular():
    rng = random.Random(23)
    for _ in range(20):
        mats = []
        for _ in range(3):
            rows = [[Z4.zero] * 4 for _ in range(4)]
            for i in range(4):
                rows[i][i] = Z4.one
                for j in range(i + 1, 4):
                    rows[i][j] = rng.randrange(4)
            mats.append(Matrix.from_rows(Z4, rows))
        assert hall_identity_check(*mats)


def test_ring_mismatch_rejected():
    a = Matrix.identity(Z5, 2)
    b = Matrix.identity(Z4, 2)
    with pytest.raises(MatrixError):
        a.mul(b)
    with pytest.raises(MatrixError):
        a.mul(Matrix.identity(Z5, 3))
    gf5 = make_ring("gf:5")
    c = Matrix.identity(gf5, 2)
    with pytest.raises(MatrixError):
        a.mul(c)


def test_polyq_matrices():
    R = make_ring("polyq:2:0,0,1")
    x = (0, 1)
    e = Matrix.elementary(R, 2, 1, 2, x)
    # x + x = 0 in characteristic 2
    assert e.mul(e).is_identity()
    d = Matrix.diagonal(R, ((1, 1), (1, 0)))
    conj = conjugate_by_diagonal(d, e)
    assert conj == Matrix.elementary(R, 2, 1, 2, R.mul((1, 1), x))


CONJUGATION_RINGS = ("zmod:4", "zmod:6", "zmod:7", "gf:5", "polyq:2:0,0,1",
                     "polyq:3:1,0,1", "z", "zloc:6")


def _units(R):
    if R.finite:
        return R.units()
    if R.descriptor == "z":
        return [1, -1]
    return [Fraction(s * 2**i, 3**j) for s in (1, -1) for i in range(3) for j in range(3)]


def _entries(R):
    if R.finite:
        return R.elements()
    extra = [Fraction(5, 6), Fraction(-7, 4)] if R.descriptor != "z" else []
    return [R.one * k for k in range(-4, 5)] + extra


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(descriptor=st.sampled_from(CONJUGATION_RINGS), data=st.data())
def test_conjugate_by_diagonal_matches_products(descriptor, data):
    R = make_ring(descriptor)
    r = data.draw(st.sampled_from(_entries(R)))
    if data.draw(st.booleans()):
        n = data.draw(st.integers(2, 8))
        i, j = data.draw(
            st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
        )
        e = Matrix.elementary(R, n, i, j, r)
    else:
        labels = [
            label for label in SUPPORTED_LABELS
            if R.characteristic() != 2 or label not in ("B3", "G2")
        ]
        model = matrix_model(data.draw(st.sampled_from(labels)), R)
        alpha = data.draw(st.sampled_from(sorted(model.tabulated_roots)))
        e = root_element(model, alpha, r)
    units = _units(R)
    d = Matrix.diagonal(
        R, data.draw(st.lists(st.sampled_from(units), min_size=e.n, max_size=e.n))
    )
    assert conjugate_by_diagonal(d, e) == d.mul(e).mul(d.inverse())
