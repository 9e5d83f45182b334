from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_complexes import perm_matrix

from abelslab import complexes, kernels
from abelslab.abels import (
    abels_group,
    check_closure_matches_pattern,
    contracting_family,
    verify_abels,
)
from abelslab.complexes import verify_complex
from abelslab.config import BudgetExceeded
from abelslab.kernels import (
    KernelError,
    closure_order,
    coded_ring,
    coset_labels,
    elementary_codes,
    encode_matrices,
    encode_matrix,
    fits_packing,
    group_closure,
    identity_vec,
    mul_batch_left,
    mul_batch_right,
    mul_pairs,
    mul_rows,
    pack_keys,
    unpack_keys,
)
from abelslab.matrices import Matrix
from abelslab.presentation import tits_criterion_check, verify_presentations
from abelslab.rings import RingError, ZModRing, make_ring
from reference_abels import spec_elements, subgroup_by_name
from reference_complexes import nerve_oracle
from reference_kernels import closure_set, decode_matrix

# deterministic and bounded, so the properties run the same way every time
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def unitriangular_generators(ring, n):
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(Matrix.elementary(ring, n, i, j, ring.one))
    return out


def strictly_sorted(keys):
    """Ascending without repeats, for int64 and byte keys alike."""
    return np.array_equal(np.sort(keys), keys) and (
        np.unique(keys).shape == keys.shape
    )


def test_coded_ring_tables():
    R = ZModRing(4)
    cr = coded_ring(R)
    assert cr.q == 4
    assert cr.add[3, 3] == 2
    assert cr.mul[3, 3] == 1
    assert cr.neg[1] == 3
    assert cr.inv[3] == 3
    assert cr.inv[2] == -1
    assert list(cr.unit_codes) == [1, 3]
    assert coded_ring(R) is cr


def test_encode_decode_roundtrip():
    R = make_ring("polyq:2:0,0,1")
    cr = coded_ring(R)
    m = Matrix.elementary(R, 3, 1, 2, (1, 1))
    vec = encode_matrix(cr, m)
    assert decode_matrix(cr, vec, 3) == m
    ident = identity_vec(cr, 3)
    assert decode_matrix(cr, ident, 3).is_identity()


def test_elementary_codes_refuse_a_position_off_the_matrix():
    cr = coded_ring(make_ring("zmod:3"))
    for position in ((2, 2), (0, 1), (1, 4)):
        with pytest.raises(KernelError, match="no elementary position"):
            elementary_codes(cr, 3, [position])


def test_packing_guard():
    assert fits_packing(2, 5)
    assert fits_packing(3, 5)
    assert fits_packing(5, 5)
    assert not fits_packing(7, 5)
    assert not fits_packing(2, 8)


def test_route_rule():
    # key tables exactly where the keys are int64 and q**n <= TABLE_CAP
    assert kernels.TABLE_CAP == 4096
    assert kernels._keyed(8, 4) and kernels._keyed(2, 7) and kernels._keyed(7, 4)
    assert not kernels._keyed(9, 4)  # int64 keys, 6 561 line keys
    assert not kernels._keyed(1009, 2)
    assert not kernels._keyed(2, 8)  # byte keys, 256 line keys


@pytest.mark.parametrize("descriptor, n", [
    ("zmod:5", 4),  # int64 keys
    ("zmod:6", 5),  # one byte per code
    ("zmod:257", 3),  # two bytes per code
])
def test_keys_sort_like_base_q(descriptor, n):
    cr = coded_ring(make_ring(descriptor))
    rng = np.random.default_rng(3)
    # codes on both sides of a byte boundary when q = 257, and repeated rows
    vecs = rng.choice([0, 1, cr.q - 2, cr.q - 1], (300, n * n))
    vecs[1::3] = vecs[::3]
    keys = pack_keys(cr, vecs, n)
    base_q = [reduce(lambda k, c: k * cr.q + int(c), row, 0) for row in vecs]
    assert list(np.argsort(keys, kind="stable")) == sorted(
        range(300), key=base_q.__getitem__
    )
    assert np.unique(keys).shape[0] == len(set(base_q))
    assert np.array_equal(unpack_keys(keys, cr, n), vecs)


def test_mul_matches_exact():
    R = ZModRing(5)
    cr = coded_ring(R)
    rng = np.random.default_rng(42)
    n = 3
    for _ in range(10):
        a = Matrix.from_rows(R, rng.integers(0, 5, (n, n)).tolist())
        b = Matrix.from_rows(R, rng.integers(0, 5, (n, n)).tolist())
        va, vb = encode_matrix(cr, a), encode_matrix(cr, b)
        out = mul_batch_left(cr, va, vb[None, :], n)
        assert out.shape == (1, n * n)
        assert decode_matrix(cr, out[0], n) == a.mul(b)


def test_batch_muls():
    R = ZModRing(3)
    cr = coded_ring(R)
    rng = np.random.default_rng(7)
    n = 3
    mats = [
        Matrix.from_rows(R, rng.integers(0, 3, (n, n)).tolist()) for _ in range(6)
    ]
    fixed = Matrix.from_rows(R, rng.integers(0, 3, (n, n)).tolist())
    As = encode_matrices(cr, mats)
    vf = encode_matrix(cr, fixed)
    right = mul_batch_right(cr, As, vf, n)
    left = mul_batch_left(cr, vf, As, n)
    for idx, m in enumerate(mats):
        assert decode_matrix(cr, right[idx], n) == m.mul(fixed)
        assert decode_matrix(cr, left[idx], n) == fixed.mul(m)


def test_closure_unitriangular_order():
    R = ZModRing(3)
    cr = coded_ring(R)
    n = 4
    gens = encode_matrices(cr, unitriangular_generators(R, n))
    status, keys = group_closure(cr, gens, n)
    assert status == "complete"
    assert keys.shape[0] == 3**6
    assert strictly_sorted(keys)
    recomputed = pack_keys(cr, unpack_keys(keys, cr, n), n)
    assert (recomputed == keys).all()


def test_closure_overflow():
    R = ZModRing(3)
    cr = coded_ring(R)
    n = 4
    gens = encode_matrices(cr, unitriangular_generators(R, n))
    status, keys = group_closure(cr, gens, n, budget=50)
    assert status == "overflow"
    assert strictly_sorted(keys)
    # no budget-sized table is allocated, so a large budget is no error
    status, keys = group_closure(cr, gens, n, budget=2**26 + 1)
    assert status == "complete"
    assert keys.shape[0] == 3**6


def test_center_mask():
    R = ZModRing(3)
    cr = coded_ring(R)
    n = 3
    gen_mats = unitriangular_generators(R, n)
    gens = encode_matrices(cr, gen_mats)
    status, keys = group_closure(cr, gens, n)
    assert status == "complete"
    elems = unpack_keys(keys, cr, n)
    mask = kernels.center_mask(cr, elems, gens, n)
    # center of the Heisenberg group over zmod(3) is the corner subgroup
    center = {Matrix.elementary(R, n, 1, 3, r) for r in range(3)}
    got = {decode_matrix(cr, elems[i], n) for i in np.where(mask)[0]}
    assert got == center


def test_coset_labels():
    R = ZModRing(2)
    cr = coded_ring(R)
    n = 3
    gens = encode_matrices(cr, unitriangular_generators(R, n))
    status, keys = group_closure(cr, gens, n)
    elems = unpack_keys(keys, cr, n)
    sub_mats = [Matrix.identity(R, n), Matrix.elementary(R, n, 1, 2, 1)]
    sub = encode_matrices(cr, sub_mats)
    labels, reps = coset_labels(cr, elems, keys, sub, n)
    assert labels.min() == 0
    assert labels.max() == len(reps) - 1
    assert len(reps) == elems.shape[0] // 2
    # same label iff same left coset; representative is minimal in key order
    counts = np.bincount(labels)
    assert (counts == 2).all()
    for c, rep_idx in enumerate(reps):
        members = np.where(labels == c)[0]
        assert members.min() == rep_idx


def test_coset_labels_escape_detected():
    R = ZModRing(2)
    cr = coded_ring(R)
    n = 3
    # element set missing most of the group: subgroup products escape
    sub_mats = [Matrix.identity(R, n), Matrix.elementary(R, n, 2, 3, 1)]
    sub = encode_matrices(cr, sub_mats)
    only = encode_matrices(cr, [Matrix.elementary(R, n, 1, 2, 1)])
    keys = pack_keys(cr, only, n)
    order = np.argsort(keys)
    with pytest.raises(KernelError):
        coset_labels(cr, only[order], keys[order], sub, n)


def test_trivial_generator_closure():
    R = ZModRing(3)
    cr = coded_ring(R)
    empty = np.empty((0, 9), np.int64)
    status, keys = group_closure(cr, empty, 3)
    assert status == "complete"
    assert np.array_equal(unpack_keys(keys, cr, 3), identity_vec(cr, 3)[None])


def test_closure_python_agrees():
    R = ZModRing(3)
    n = 3
    gen_mats = unitriangular_generators(R, n)
    status, pyset = kernels.closure_python(R, gen_mats)
    assert status == "complete"
    cr = coded_ring(R)
    gens = encode_matrices(cr, gen_mats)
    elems = unpack_keys(group_closure(cr, gens, n)[1], cr, n)
    coded = {decode_matrix(cr, elems[i], n) for i in range(elems.shape[0])}
    assert coded == pyset


def test_closure_python_budget_is_exact():
    R = ZModRing(3)
    gen_mats = unitriangular_generators(R, 3)
    # levels of U_3(Z/3) from the identity: 1, 3, 6, ... of 27 elements
    status, seen = kernels.closure_python(R, gen_mats, budget=7)
    assert status == "overflow"
    assert len(seen) == 7
    status, seen = kernels.closure_python(R, gen_mats, budget=26)
    assert status == "overflow"
    assert len(seen) == 26
    status, seen = kernels.closure_python(R, gen_mats, budget=27)
    assert status == "complete"
    assert len(seen) == 27


def test_closure_set_raises_on_overflow():
    R = ZModRing(3)
    gen_mats = unitriangular_generators(R, 3)
    assert len(closure_set(R, gen_mats, budget=27)) == 27
    with pytest.raises(
        BudgetExceeded, match=r"^inconclusive-budget: group closure overflowed$"
    ):
        closure_set(R, gen_mats, budget=26)
    with pytest.raises(BudgetExceeded, match=r"^inconclusive-budget: closure overflowed$"):
        closure_set(R, gen_mats, budget=26, what="closure")


# -- properties against plain Matrix arithmetic -------------------------

PRODUCT_RINGS = ("zmod:2", "zmod:3", "zmod:4", "zmod:6", "gf:5",
                 "polyq:2:1,1,1", "polyq:3:0,0,1")


@PROPERTY
@given(
    descriptor=st.sampled_from(PRODUCT_RINGS),
    n=st.integers(2, 6),
    size=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
)
# q**n = 5**6 is above the table cap: the chunks' partial sums are combined
@example(descriptor="gf:5", n=6, size=5000, seed=0)
def test_batch_products_match_matrix(descriptor, n, size, seed):
    R = make_ring(descriptor)
    cr = coded_ring(R)
    # batches run from one row to past q**n, so narrow and full chunks occur
    size = min(size, cr.q**n + 3)
    rng = np.random.default_rng(seed)
    batch = rng.integers(0, cr.q, (size, n * n))
    fixed = rng.integers(0, cr.q, n * n)
    left = mul_batch_left(cr, fixed, batch, n)
    right = mul_batch_right(cr, batch, fixed, n)
    g = decode_matrix(cr, fixed, n)
    rows = {0, size - 1} | set(rng.integers(0, size, 6).tolist())
    for r in rows:
        x = decode_matrix(cr, batch[r], n)
        assert decode_matrix(cr, left[r], n) == g.mul(x)
        assert decode_matrix(cr, right[r], n) == x.mul(g)


MUL_ROWS_RINGS = ("zmod:2", "zmod:4", "zmod:6", "gf:5", "polyq:2:0,0,1",
                  "polyq:3:1,0,1")


@pytest.mark.parametrize("descriptor", MUL_ROWS_RINGS)
@PROPERTY
@given(
    n=st.integers(1, 8),
    size=st.integers(1, 6),
    density=st.sampled_from((0.2, 0.5, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=8, size=3, density=1.0, seed=0)
def test_mul_rows_matches_matrix_mul(descriptor, n, size, density, seed):
    R = make_ring(descriptor)
    cr = coded_ring(R)
    rng = np.random.default_rng(seed)

    def batch():
        codes = rng.integers(0, cr.q, (size, n * n))
        return np.where(rng.random((size, n * n)) < density, codes, cr.zero)

    As, Bs = batch(), batch()
    out = mul_rows(cr, As, Bs, n)
    assert out.shape == (size, n * n)
    for a, b, ab in zip(As, Bs, out):
        expected = decode_matrix(cr, a, n).mul(decode_matrix(cr, b, n))
        assert decode_matrix(cr, ab, n) == expected


# (ring, n): zmod and polyq with int64 keys, and n = 8 over Z/4, the
# byte-key shape of D4 over Z/4
PAIR_SHAPES = (("zmod:3", 3), ("zmod:6", 2), ("polyq:2:1,1,1", 3), ("zmod:4", 8))


@pytest.mark.parametrize("descriptor,n", PAIR_SHAPES)
@PROPERTY
@given(
    p=st.integers(1, 5),
    m=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=1, m=7, seed=0)
@example(p=4, m=1, seed=0)
@example(p=1, m=1, seed=0)
def test_mul_pairs_matches_row_products(descriptor, n, p, m, seed):
    cr = coded_ring(make_ring(descriptor))
    assert fits_packing(cr.q, n) == (n < 8)
    rng = np.random.default_rng(seed)
    As = rng.integers(0, cr.q, (p, n * n))
    Bs = rng.integers(0, cr.q, (m, n * n))
    out = mul_pairs(cr, As, Bs, n)
    # row a*m + b is As[a] * Bs[b]
    a, b = np.indices((p, m)).reshape(2, -1)
    assert out.shape == (p * m, n * n)
    assert (out == mul_rows(cr, As[a], Bs[b], n)).all()
    for k in {0, p * m - 1} | set(rng.integers(0, p * m, 3).tolist()):
        expected = decode_matrix(cr, As[a[k]], n).mul(decode_matrix(cr, Bs[b[k]], n))
        assert decode_matrix(cr, out[k], n) == expected
    assert (mul_pairs(cr, As[:1], Bs, n) == mul_batch_left(cr, As[0], Bs, n)).all()


SMALL_GROUPS = (
    ("A", 3, "zmod:2"),
    ("A", 3, "zmod:4"),
    ("A", 3, "gf:5"),
    ("U", 3, "polyq:2:1,1,1"),
    ("A", 4, "zmod:2"),
    ("H1", 4, "zmod:3"),
    ("T", 4, "zmod:5"),
    ("U", 2, "zmod:6"),
    # q**(n*n) >= 2**63: byte keys
    ("U3", 5, "zmod:6"),
    ("H3", 5, "zmod:6"),
    ("U3", 4, "zmod:16"),
    ("Z", 8, "zmod:2"),
)


@PROPERTY
@given(case=st.sampled_from(SMALL_GROUPS), data=st.data())
def test_center_mask_matches_matrix(case, data):
    name, n, descriptor = case
    R = make_ring(descriptor)
    cr = coded_ring(R)
    spec = subgroup_by_name(name, n, R)
    gens = data.draw(
        st.lists(st.sampled_from(spec.generators), min_size=1, max_size=4)
    )
    elems = spec.elements_encoded()
    mask = kernels.center_mask(cr, elems, encode_matrices(cr, gens), n)
    for idx, x in enumerate(spec_elements(spec)):
        expected = all(x.mul(g) == g.mul(x) for g in gens)
        assert bool(mask[idx]) == expected


@PROPERTY
@given(case=st.sampled_from(SMALL_GROUPS), data=st.data())
def test_group_closure_matches_closure_python(case, data):
    name, n, descriptor = case
    R = make_ring(descriptor)
    cr = coded_ring(R)
    spec = subgroup_by_name(name, n, R)
    gens = data.draw(
        st.lists(st.sampled_from(spec.generators), min_size=1, max_size=4)
    )
    budget = data.draw(st.integers(1, spec.order() + 1))
    status, keys = group_closure(cr, encode_matrices(cr, gens), n, budget=budget)
    py_status, seen = kernels.closure_python(R, gens, budget=budget)
    assert status == py_status
    assert len(seen) <= budget
    assert keys.shape[0] <= budget
    assert strictly_sorted(keys)
    elems = unpack_keys(keys, cr, n)
    assert np.array_equal(pack_keys(cr, elems, n), keys)
    if status == "complete":
        coded = {decode_matrix(cr, elems[i], n) for i in range(elems.shape[0])}
        assert coded == seen


# -- closure_order against the Matrix closure ----------------------------


def _order_or_overflow(ring, gens, budget, what="group closure"):
    try:
        return closure_order(ring, gens, budget, what)
    except BudgetExceeded as exc:
        return str(exc)


def _reference_order_or_overflow(ring, gens, budget, what="group closure"):
    status, seen = kernels.closure_python(ring, gens, budget=budget)
    if status != "complete":
        return f"inconclusive-budget: {what} overflowed"
    return len(seen)


@PROPERTY
@given(case=st.sampled_from(SMALL_GROUPS), data=st.data())
def test_closure_order_matches_closure_python(case, data):
    name, n, descriptor = case
    R = make_ring(descriptor)
    spec = subgroup_by_name(name, n, R)
    gens = data.draw(
        st.lists(st.sampled_from(spec.generators), min_size=1, max_size=4)
    )
    order = len(kernels.closure_python(R, gens)[1])
    drawn = data.draw(st.integers(1, order))
    for budget in (order - 1, order, order + 1, drawn):
        assert _order_or_overflow(R, gens, budget) == (
            _reference_order_or_overflow(R, gens, budget)
        )


def test_closure_order_uncoded_route(monkeypatch):
    # S3 on 3 x 3 permutation matrices over Z: the Matrix closure finds all
    # six, but closure_order has no uncoded route and refuses the ring
    def matrix_route(*args, **kwargs):
        raise AssertionError("closure_python ran inside closure_order")

    Z = make_ring("z")
    gens = [
        Matrix.from_rows(Z, [[int(v) for v in row] for row in m.rows])
        for m in (perm_matrix((1, 0)), perm_matrix((0, 2, 1)))
    ]
    assert _reference_order_or_overflow(Z, gens, None) == 6
    monkeypatch.setattr(kernels, "closure_python", matrix_route)
    for budget in (5, 6, 7, None):
        with pytest.raises(RingError, match="^z is not finite$"):
            closure_order(Z, gens, budget)


def test_closure_order_needs_generators():
    with pytest.raises(KernelError):
        closure_order(ZModRing(3), [])
    with pytest.raises(KernelError):
        closure_order(make_ring("z"), [])


def test_packable_callers_take_the_coded_closure(monkeypatch):
    def matrix_route(*args, **kwargs):
        raise AssertionError("closure_python ran on a finite ring")

    monkeypatch.setattr(kernels, "closure_python", matrix_route)
    Z2 = make_ring("zmod:2")
    for rep in (
        verify_presentations(4, make_ring("zmod:3")),
        tits_criterion_check(abels_group(4, Z2), contracting_family(4, Z2)),
        verify_complex(4, Z2),
    ):
        assert {c.status for c in rep.checks} == {"pass"}
    # inputs whose int64 keys would overflow take the coded route on byte
    # keys: S3 as 8 x 8 permutation matrices over Z/2, and U3 of A_4(Z/16)
    a, b = perm_matrix((1, 0), size=8), perm_matrix((0, 2, 1), size=8)
    assert not fits_packing(2, 8) and not fits_packing(16, 4)
    assert closure_order(Z2, [a, b]) == 6
    with pytest.raises(BudgetExceeded, match="generation check overflowed"):
        closure_order(Z2, [a, b], 5, "generation check")
    cx = complexes.coset_complex([a, b], ([a], [b]))
    assert cx.f_vector == (6, 6)
    spec = subgroup_by_name("U3", 4, make_ring("zmod:16"))
    assert check_closure_matches_pattern(spec)
    # the nerve oracle builds its cosets from Matrix objects on purpose
    monkeypatch.undo()
    assert nerve_oracle([a, b], ([a], [b])) == cx


# -- key tables against chunk gathers --------------------------------------


def _on_both_routes(run):
    """run() on the key route and with every product on the chunk route."""
    key = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "TABLE_CAP", 1)
        chunk = run()
    return key, chunk


@PROPERTY
@given(case=st.sampled_from(SMALL_GROUPS), data=st.data())
def test_closure_routes_agree(case, data):
    name, n, descriptor = case
    cr = coded_ring(make_ring(descriptor))
    spec = subgroup_by_name(name, n, cr.ring)
    gens = encode_matrices(
        cr, data.draw(st.lists(st.sampled_from(spec.generators), min_size=1, max_size=4))
    )
    order = group_closure(cr, gens, n)[1].shape[0]
    drawn = data.draw(st.integers(1, order + 1))
    for budget in sorted({max(order - 1, 1), order, order + 1, drawn}):
        key, chunk = _on_both_routes(lambda: group_closure(cr, gens, n, budget))
        # one generator per closure block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_CLOSURE_BLOCK", 1)
            single = group_closure(cr, gens, n, budget)
        for other in (chunk, single):
            assert key[0] == other[0]
            assert np.array_equal(key[1], other[1])


@PROPERTY
@given(case=st.sampled_from(SMALL_GROUPS), data=st.data())
def test_center_routes_agree(case, data):
    name, n, descriptor = case
    cr = coded_ring(make_ring(descriptor))
    spec = subgroup_by_name(name, n, cr.ring)
    gens = encode_matrices(
        cr, data.draw(st.lists(st.sampled_from(spec.generators), min_size=1, max_size=4))
    )
    elems = spec.elements_encoded()
    key, chunk = _on_both_routes(lambda: kernels.center_mask(cr, elems, gens, n))
    assert np.array_equal(key, chunk)
    # element chunks smaller than the group, so that some chunk boundary
    # falls inside it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_CENTER_CHUNK", 7)
        small = _on_both_routes(lambda: kernels.center_mask(cr, elems, gens, n))
    assert np.array_equal(small[0], key) and np.array_equal(small[1], key)


# every (ring, n) of PRODUCT_RINGS whose products run on key tables
KEYED = tuple(
    (descriptor, n)
    for descriptor in PRODUCT_RINGS
    for n in range(2, 8)
    if kernels._keyed(make_ring(descriptor).order(), n)
)


@PROPERTY
@given(
    case=st.sampled_from(KEYED),
    size=st.integers(1, 300),
    gens=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
# the longest lines: q**n = 4096 = TABLE_CAP
@example(case=("zmod:8", 4), size=300, gens=2, seed=0)
def test_key_tables_match_batch_products(case, size, gens, seed):
    descriptor, n = case
    cr = coded_ring(make_ring(descriptor))
    assert kernels._keyed(cr.q, n)
    rng = np.random.default_rng(seed)
    X = rng.integers(0, cr.q, (size, n * n))
    G = rng.integers(0, cr.q, (gens, n * n))
    got = list(kernels.product_keys(cr, X, G, n))
    assert len(got) == gens
    for g, (left, right) in zip(G, got):
        assert np.array_equal(left, pack_keys(cr, mul_batch_left(cr, g, X, n), n))
        assert np.array_equal(right, pack_keys(cr, mul_batch_right(cr, X, g, n), n))


@PROPERTY
@given(
    descriptor=st.sampled_from(PRODUCT_RINGS),
    n=st.integers(2, 5),
    size=st.integers(1, 300),
    gens=st.integers(1, 3),
    entries=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**32 - 1),
)
# the retraction's window on A_4(Z/4): column 3 gives two entries
@example(descriptor="zmod:4", n=4, size=300, gens=2,
         entries=[(1, 1), (1, 2), (2, 2)], seed=0)
def test_entry_keys_match_batch_products(descriptor, n, size, gens, entries, seed):
    cr = coded_ring(make_ring(descriptor))
    entries = [(i % n, j % n) for i, j in entries]
    rng = np.random.default_rng(seed)
    X = rng.integers(0, cr.q, (size, n * n))
    G = rng.integers(0, cr.q, (gens, n * n))
    flat = [i * n + j for i, j in entries]
    place = cr.q ** np.arange(len(entries) - 1, -1, -1)
    expected = [mul_batch_left(cr, g, X, n)[:, flat] @ place for g in G]
    for got in _on_both_routes(
        lambda: list(kernels.entry_keys(cr, X, G, n, entries))
    ):
        assert len(got) == gens
        for want, keys in zip(expected, got):
            assert np.array_equal(keys, want)


def test_center_mask_builds_each_table_once(monkeypatch):
    cr = coded_ring(make_ring("zmod:3"))
    spec = abels_group(4, cr.ring)
    elems = spec.elements_encoded()
    gens = encode_matrices(cr, list(spec.generators))
    expected = kernels.center_mask(cr, elems, gens, 4)
    assert expected.sum() == 3  # the corner root subgroup
    lines = []
    tables = kernels._tables
    monkeypatch.setattr(
        kernels, "_tables", lambda *args: lines.append(len(args[1])) or tables(*args)
    )
    # 30 element chunks, and still one build per side over every generator
    monkeypatch.setattr(kernels, "_CENTER_CHUNK", 100)
    assert np.array_equal(kernels.center_mask(cr, elems, gens, 4), expected)
    assert lines == [4 * len(gens)] * 2
    # one generator per block: each generator's tables are built once
    lines.clear()
    monkeypatch.setattr(kernels, "_TABLE_BLOCK", 1)
    assert np.array_equal(kernels.center_mask(cr, elems, gens, 4), expected)
    assert lines == [4] * (2 * len(gens))


def test_keyed_inputs_take_the_key_route(monkeypatch):
    def chunk_route(*args, **kwargs):
        raise AssertionError("a chunk route ran on a keyed input")

    monkeypatch.setattr(kernels, "_chunk_steps", chunk_route)
    # in these suites only the center scan and finite normality, through
    # product_keys, would multiply on the right
    monkeypatch.setattr(kernels, "mul_batch_right", chunk_route)
    Z2 = make_ring("zmod:2")
    for rep in (
        verify_abels(4, make_ring("zmod:4")),
        verify_abels(5, Z2),
        verify_presentations(4, make_ring("zmod:3")),
        verify_complex(4, Z2),
    ):
        assert {c.status for c in rep.checks} == {"pass"}


def test_byte_keys_take_the_chunk_route(monkeypatch):
    def key_route(*args, **kwargs):
        raise AssertionError("key tables built for byte keys")

    monkeypatch.setattr(kernels, "_key_steps", key_route)
    monkeypatch.setattr(kernels, "_line_keys", key_route)
    spec = subgroup_by_name("U3", 4, make_ring("zmod:16"))
    assert check_closure_matches_pattern(spec)
    cr = coded_ring(spec.ring)
    elems = spec.elements_encoded()
    assert kernels.center_mask(cr, elems, elems, 4).all()
