"""Reference implementations of the Smith normal form and the rational rank.

These are the `abelslab.snf` routes before their pivot searches were
rewritten: `smith_invariant_factors` scans every live entry for the
minimum key (|v|, i, j) at each step, and `rational_rank` runs Gaussian
elimination over Fractions.  `_rational_echelon` is the integer row
elimination `abelslab.snf` ran before it reduced columns in cell order:
one row per (k-1)-cell of a boundary map, led by its lowest column.
They are kept, unchanged, only so the tests can require the current
functions to give the same invariant factors and ranks, and the Smith
route the same sequence of row and column moves.
`homology_h1` is first homology from Smith normal form of the whole of
∂1 and ∂2, the route `abelslab.complexes` took before it coreduced the
complex; the tests require the Morse route to give the same rank and
torsion.  `dense_to_triplets` writes a dense integer matrix as the
(i, j, value) triplets that both the reference and the current routes read.
"""

from collections import defaultdict
from fractions import Fraction
from math import gcd


def dense_to_triplets(rows):
    """Convert a list-of-lists matrix to (i, j, value) triplets."""
    out = []
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                out.append((i, j, int(v)))
    return out


def _build_sparse(triplets, nrows, ncols):
    rows = [dict() for _ in range(nrows)]
    for i, j, v in triplets:
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise ValueError(f"triplet ({i},{j}) outside {nrows}x{ncols} shape")
        if v:
            w = rows[i].get(j, 0) + int(v)
            if w:
                rows[i][j] = w
            else:
                rows[i].pop(j, None)
    colrows = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            colrows[j].add(i)
    return rows, colrows


def _balanced_quotient(a, v):
    # quotient q with remainder r = a - q*v of magnitude at most |v|/2
    q = a // v
    r = a - q * v  # sign of v
    if (v > 0 and 2 * r > v) or (v < 0 and 2 * r < v):
        r -= v
        q += 1
    return q, r


def smith_invariant_factors(triplets, nrows, ncols):
    """Nonzero invariant factors d1 | d2 | ... of the integer matrix.

    The number of factors equals the rank; the cokernel of the row span in
    Z^ncols is the direct sum of Z/d_i plus a free part of rank
    ncols - len(factors).
    """
    rows, colrows = _build_sparse(triplets, nrows, ncols)
    retired_rows = set()
    retired_cols = set()
    diag = []

    def add_multiple_of_row(dst, src, factor):
        # row[dst] += factor * row[src]
        rdst = rows[dst]
        for j, v in rows[src].items():
            w = rdst.get(j, 0) + factor * v
            if w:
                if j not in rdst:
                    colrows[j].add(dst)
                rdst[j] = w
            else:
                if j in rdst:
                    del rdst[j]
                    colrows[j].discard(dst)

    while True:
        pivot = None
        for i, row in enumerate(rows):
            if i in retired_rows:
                continue
            for j, v in row.items():
                key = (abs(v), i, j)
                if pivot is None or key < pivot:
                    pivot = key
        if pivot is None:
            break
        _, i0, j0 = pivot

        while True:
            v = rows[i0][j0]
            dirty = False
            for i in sorted(colrows[j0] - {i0}):
                if i in retired_rows:
                    continue
                a = rows[i].get(j0)
                if a is None:
                    continue
                q, r = _balanced_quotient(a, v)
                if q:
                    add_multiple_of_row(i, i0, -q)
                if r:
                    dirty = True
            if dirty:
                # smaller residue exists in column j0; re-pivot inside it
                best = None
                for i in sorted(colrows[j0]):
                    if i in retired_rows:
                        continue
                    a = rows[i].get(j0)
                    if a is None:
                        continue
                    key = (abs(a), i)
                    if best is None or key < best:
                        best = key
                i0 = best[1]
                continue
            # column j0 clear except pivot; clear row i0 by column ops.
            # Only row i0 carries entries in those columns' pivot row, so a
            # column op col_j -= q*col_j0 touches row i0 alone.
            dirty = False
            v = rows[i0][j0]
            for j in sorted(set(rows[i0]) - {j0}):
                a = rows[i0][j]
                q, r = _balanced_quotient(a, v)
                if q:
                    w = a - q * v
                    if w:
                        rows[i0][j] = w
                    else:
                        del rows[i0][j]
                        colrows[j].discard(i0)
                if r:
                    dirty = True
            if not dirty:
                break
            # row residues are smaller than |v|; move pivot onto one
            best = None
            for j in sorted(rows[i0]):
                key = (abs(rows[i0][j]), j)
                if best is None or key < best:
                    best = key
            j0 = best[1]

        diag.append(abs(rows[i0][j0]))
        del rows[i0][j0]
        colrows[j0].discard(i0)
        retired_rows.add(i0)
        retired_cols.add(j0)
        if rows[i0] or colrows[j0] - retired_rows:
            raise AssertionError("pivot row/column not clear at retirement")

    # enforce the divisibility chain: diag(a, b) ~ diag(gcd, lcm)
    changed = True
    while changed:
        changed = False
        for a in range(len(diag)):
            for b in range(a + 1, len(diag)):
                if diag[b] % diag[a]:
                    g = gcd(diag[a], diag[b])
                    diag[a], diag[b] = g, diag[a] // g * diag[b]
                    changed = True
    diag.sort()
    return diag


def rational_rank(triplets, nrows, ncols):
    """Rank over Q via Fraction Gaussian elimination (independent route)."""
    rows = [dict() for _ in range(nrows)]
    for i, j, v in triplets:
        if v:
            w = rows[i].get(j, Fraction(0)) + Fraction(v)
            if w:
                rows[i][j] = w
            else:
                rows[i].pop(j, None)
    pivots = {}  # leading column -> normalized row
    rank = 0
    for row in rows:
        work = dict(row)
        while work:
            lead = min(work)
            if lead not in pivots:
                inv = 1 / work[lead]
                pivots[lead] = {j: v * inv for j, v in work.items()}
                rank += 1
                break
            coef = work[lead]
            for j, v in pivots[lead].items():
                w = work.get(j, Fraction(0)) - coef * v
                if w:
                    work[j] = w
                else:
                    work.pop(j, None)
    return rank


def _primitive(row):
    """The integer row divided by the gcd of its entries (its content)."""
    g = gcd(*row.values())
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _rational_echelon(triplets, nrows, ncols):
    """Echelon basis of the row space over Q, keyed by leading column.

    Every basis row is a primitive integer row.  A row whose leading column
    has a basis row, with pivot p there and leading entry c, becomes
    row - (c/p)*pivot when p divides c, and otherwise
    (p/g)*row - (c/g)*pivot with g = gcd(p, c), divided by its content.
    Scaling a row by a nonzero integer keeps the span over Q, so the
    number of basis rows is the rank.
    """
    rows, _ = _build_sparse(triplets, nrows, ncols)
    pivots = {}  # leading column -> primitive row
    for work in rows:
        while work:
            lead = min(work)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _primitive(work)
                break
            p, c = pivot[lead], work[lead]
            q, r = divmod(c, p)
            if r:
                g = gcd(p, c)
                q = c // g
                work = {j: p // g * v for j, v in work.items()}
            for j, v in pivot.items():
                w = work.get(j, 0) - q * v
                if w:
                    work[j] = w
                else:
                    work.pop(j, None)
            if r and work:
                work = _primitive(work)
    return pivots


def homology_h1(d1, d2=None):
    """(rank, torsion factors) of H1 from Smith normal form of the unreduced
    ∂1 and ∂2, each given as (triplets, (nrows, ncols)); no ∂2 for a graph."""
    t1, (nv, ne) = d1
    factors = smith_invariant_factors(d2[0], *d2[1]) if d2 else []
    rank = ne - len(smith_invariant_factors(t1, nv, ne)) - len(factors)
    return rank, tuple(d for d in factors if d > 1)
