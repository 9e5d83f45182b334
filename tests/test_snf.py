import random
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_snf as reference
from abelslab import snf
from abelslab.snf import rational_rank, smith_invariant_factors
from reference_rings import quotient_order
from reference_snf import dense_to_triplets


def factors_of(rows):
    t = dense_to_triplets(rows)
    return smith_invariant_factors(t, len(rows), len(rows[0]) if rows else 0)


def test_zero_matrix():
    assert factors_of([[0, 0], [0, 0]]) == []
    assert rational_rank([], 2, 2) == 0


def test_identity_and_diagonal():
    assert factors_of([[1, 0], [0, 1]]) == [1, 1]
    assert factors_of([[2, 0], [0, 4]]) == [2, 4]
    # divisibility chain fixup: diag(4, 6) ~ diag(2, 12)
    assert factors_of([[4, 0], [0, 6]]) == [2, 12]


def test_known_small_cases():
    assert factors_of([[1, 2], [3, 4]]) == [1, 2]
    assert factors_of([[2, 4], [4, 8]]) == [2]
    assert factors_of([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert factors_of([[6]]) == [6]
    assert factors_of([[-6]]) == [6]


def test_quotient_order():
    assert quotient_order(dense_to_triplets([[4]]), 1, 1) == 4
    assert quotient_order(dense_to_triplets([[2, 0], [0, 3]]), 2, 2) == 6
    # rank deficit means an infinite quotient
    assert quotient_order(dense_to_triplets([[2, 4]]), 1, 2) is None
    # empty relator set over zero generators: trivial group
    assert quotient_order([], 0, 0) == 1


def test_rank_agrees_with_rational_route():
    rng = random.Random(20240817)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [
            [rng.randint(-5, 5) if rng.random() < 0.6 else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        t = dense_to_triplets(rows)
        snf_rank = len(smith_invariant_factors(t, nrows, ncols))
        assert snf_rank == rational_rank(t, nrows, ncols)


def test_invariant_factors_chain():
    rng = random.Random(99)
    for _ in range(30):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = [
            [rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)
        ]
        fs = smith_invariant_factors(dense_to_triplets(rows), nrows, ncols)
        for a, b in zip(fs, fs[1:]):
            assert b % a == 0


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    data=st.data(),
)
def test_invariant_factors_match_sympy(shape, data):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    nrows, ncols = shape
    entry = st.one_of(st.just(0), st.integers(-12, 12))
    rows = data.draw(
        st.lists(
            st.lists(entry, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    diagonal = [abs(int(snf[i, i])) for i in range(min(nrows, ncols))]
    # positive factors in a divisibility chain are in increasing order
    expected = sorted(d for d in diagonal if d)
    assert factors_of(rows) == expected


# -- the reference routes ------------------------------------------------------


def smith_moves(module, triplets, nrows, ncols):
    """Invariant factors, and the (a, v) of every balanced division made."""
    moves = []
    quotient = module._balanced_quotient

    def recorded(a, v):
        moves.append((a, v))
        return quotient(a, v)

    with mock.patch.object(module, "_balanced_quotient", recorded):
        factors = module.smith_invariant_factors(triplets, nrows, ncols)
    return factors, moves


def assert_routes_match_reference(triplets, nrows, ncols):
    """Both routes agree with the reference ones on this matrix.

    SNF must make the reference's row and column moves in the same order,
    not only reach the same factors.  Every echelon column of the rational
    route must be primitive and lead at the highest row, the row it is
    filed under, and there must be as many as the reference's row echelon
    has rows.
    """
    assert smith_moves(snf, triplets, nrows, ncols) == smith_moves(
        reference, triplets, nrows, ncols
    )
    echelon = snf._rational_echelon(triplets, nrows, ncols)
    for lead, column in echelon.items():
        assert max(column) == lead
        assert gcd(*column.values()) == 1
    assert len(echelon) == reference.rational_rank(triplets, nrows, ncols)
    assert len(echelon) == len(reference._rational_echelon(triplets, nrows, ncols))


def matrices(entry, max_side):
    return st.integers(1, max_side).flatmap(
        lambda ncols: st.lists(
            st.lists(entry, min_size=ncols, max_size=ncols),
            min_size=1,
            max_size=max_side,
        )
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rows=matrices(st.one_of(st.just(0), st.integers(-12, 12)), 8))
# the leading entry 3 is no multiple of the pivot 2: the row is scaled by
# 2, the pivot subtracted 3 times and the content 3 divided out
@example(rows=[[2, 1], [3, 0]])
@example(rows=[[4, 6, 0], [6, 0, 9], [10, 15, 3]])
# column operations leave residues in a row that then hands the pivot to
# another row; SNF must still find those residues when they are least
@example(rows=[[-8, 6, 0, -8], [-8, 0, 6, 6], [-9, 6, -9, -8]])
@example(rows=[[0, 0, 8, 9, 9, 0], [0, 9, 0, 0, 8, 9], [-6, -6, 0, 0, 9, 9]])
def test_integer_matrices_match_reference(rows):
    assert_routes_match_reference(dense_to_triplets(rows), len(rows), len(rows[0]))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(rows=matrices(st.sampled_from((0, 0, 0, 0, 1, -1)), 12))
def test_sparse_unit_matrices_match_reference(rows):
    assert_routes_match_reference(dense_to_triplets(rows), len(rows), len(rows[0]))



@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rows=matrices(st.one_of(st.just(0), st.integers(-30, 30)), 10))
# dependent columns: the third is the sum of the first two
@example(rows=[[1, 2, 3], [4, 5, 9], [7, 8, 15]])
def test_rational_rank_in_cell_order_matches_row_echelon(rows):
    """Column reduction in cell order and the row echelon it replaced
    rank every integer matrix alike, as do the transpose's routes."""
    t = dense_to_triplets(rows)
    nrows, ncols = len(rows), len(rows[0])
    rank = len(reference._rational_echelon(t, nrows, ncols))
    assert rational_rank(t, nrows, ncols) == rank
    transposed = [(j, i, v) for i, j, v in t]
    assert rational_rank(transposed, ncols, nrows) == rank


@pytest.mark.parametrize("triplets", ([(0, 5, 1)], [(3, 0, 1)]), ids=("column", "row"))
def test_out_of_shape_triplet_refused_by_both_routes(triplets):
    messages = []
    for route in (smith_invariant_factors, rational_rank):
        with pytest.raises(ValueError) as exc:
            route(triplets, 1, 2)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "outside 1x2 shape" in messages[0]


# -- coreduction ---------------------------------------------------------------


SEGMENT = [([(0, 0, -1), (1, 0, 1)], (2, 1))]
# RP² with one cell per degree: ∂1 = 0 and ∂2 = 2e
RP2_CELLS = [([], (1, 1)), ([(0, 0, 2)], (1, 1))]
# the boundary of a triangle: vertices 0, 1, 2 and edges 3 = 01, 4 = 02,
# 5 = 12, numbered as check_matching reads them
HOLLOW_TRIANGLE = [([(0, 0, -1), (1, 0, 1), (0, 1, -1), (2, 1, 1), (1, 2, -1), (2, 2, 1)], (3, 3))]


def test_morse_complex_pairs_only_unit_faces():
    # a segment: one vertex stays critical, the edge (cell 2) pairs with the
    # other vertex
    assert snf.morse_complex(SEGMENT) == ([([], (1, 0))], [(1, 2)])
    # the edge is the disk's only face, but with coefficient 2, so every
    # cell stays critical
    assert snf.morse_complex(RP2_CELLS) == (RP2_CELLS, [])


def test_check_matching_counts_critical_cells():
    assert snf.check_matching(SEGMENT, [(1, 2)]) == (1, 0)
    assert snf.check_matching(RP2_CELLS, []) == (1, 1, 1)
    # a path around the triangle leaves one vertex and one edge critical
    assert snf.check_matching(HOLLOW_TRIANGLE, [(1, 3), (2, 4)]) == (1, 1)
    assert snf.check_matching(HOLLOW_TRIANGLE, snf.morse_complex(HOLLOW_TRIANGLE)[1]) == (1, 1)


@pytest.mark.parametrize(
    "boundaries, pairs, message",
    [
        (SEGMENT, [(0, 1)], r"pair \(0, 1\) is not a face with coefficient ±1"),
        (RP2_CELLS, [(1, 2)], r"pair \(1, 2\) is not a face with coefficient ±1"),
        (SEGMENT, [(0, 2), (1, 2)], r"pair \(1, 2\) shares a cell with another pair"),
        # each vertex is matched up to the next edge round the triangle:
        # 0 -> 01 -> 1 -> 12 -> 2 -> 02 -> 0
        (HOLLOW_TRIANGLE, [(0, 3), (1, 5), (2, 4)], "the matching has a cycle"),
    ],
    ids=("not-a-face", "coefficient-2", "cell-in-two-pairs", "cyclic"),
)
def test_check_matching_refuses(boundaries, pairs, message):
    with pytest.raises(ValueError, match=message):
        snf.check_matching(boundaries, pairs)


def test_morse_complex_refuses_inconsistent_shapes():
    with pytest.raises(ValueError, match="outside 1x2 shape"):
        snf.morse_complex([([(0, 5, 1)], (1, 2))])
    with pytest.raises(ValueError, match="boundary 2 has 3 rows, not 2"):
        snf.morse_complex([([], (1, 2)), ([], (3, 1))])
