"""Exact integer Smith normal form, rational rank, and coreduction.

Two deliberately independent code paths: `smith_invariant_factors` reduces an
integer matrix by exact row/column operations (sparse dict rows, pivots taken
in order of the key (|v|, i, j) from a heap, balanced remainders), while
`rational_rank` runs Gaussian elimination over Q on primitive integer rows,
without column operations.  Homology checks cross-validate one against the
other, so neither may be rewritten in terms of the other.  They share only
`_sparse_rows`, which reads the triplets and refuses one outside the shape.

The Smith route does not run on a chain complex's own boundary maps:
`morse_complex` first coreduces the complex (Mrozek and Batko, *Coreduction
homology algorithm*, 2009).  Each pairing of a cell with its only live face
is an elementary reduction with a unit pivot (Kaczynski, Mrozek and
Ślusarek, 1998), so integral homology, torsion included, is that of the
small Morse complex of critical cells that is left, and
`smith_invariant_factors` runs on its boundaries only.
"""

from collections import defaultdict, deque
from heapq import heapify, heappop, heappush
from math import gcd


def _sparse_rows(triplets, nrows, ncols):
    """The rows {j: v} of the matrix, repeated triplets summed; a triplet
    outside the nrows x ncols shape raises ValueError."""
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
    return rows


def _build_sparse(triplets, nrows, ncols):
    rows = _sparse_rows(triplets, nrows, ncols)
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
    ncols - len(factors).  Each step pivots on the live entry with the least
    key (|v|, i, j): a unit wherever one is left, as boundary maps mostly
    have.
    """
    rows, colrows = _build_sparse(triplets, nrows, ncols)
    retired_rows = set()
    diag = []
    # the key (|v|, i, j) as one integer, |v|*span + i*ncols + j.  A key is
    # pushed whenever an entry is written, so every live entry has a current
    # key; keys of retired rows or of entries written since are stale and
    # dropped when they reach the top
    span = nrows * ncols
    heap = [
        abs(v) * span + i * ncols + j for i, row in enumerate(rows) for j, v in row.items()
    ]
    heapify(heap)

    def add_multiple_of_row(dst, src, factor):
        # row[dst] += factor * row[src]
        rdst = rows[dst]
        for j, v in rows[src].items():
            w = rdst.get(j, 0) + factor * v
            if w:
                if j not in rdst:
                    colrows[j].add(dst)
                rdst[j] = w
                heappush(heap, abs(w) * span + dst * ncols + j)
            else:
                if j in rdst:
                    del rdst[j]
                    colrows[j].discard(dst)

    while heap:
        key, cell = divmod(heap[0], span)
        i0, j0 = divmod(cell, ncols)
        if i0 in retired_rows or abs(rows[i0].get(j0, 0)) != key:
            heappop(heap)
            continue

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
                        heappush(heap, abs(w) * span + i0 * ncols + j)
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
        if rows[i0] or colrows[j0] - retired_rows:
            raise AssertionError("pivot row/column not clear at retirement")
    if any(rows):
        raise AssertionError("live entry left without a heap key")

    # enforce the divisibility chain: diag(a, b) ~ diag(gcd, lcm).  A unit
    # divides every factor, so only the factors above 1 can change.
    big = [d for d in diag if d > 1]
    changed = True
    while changed:
        changed = False
        for a in range(len(big)):
            for b in range(a + 1, len(big)):
                if big[b] % big[a]:
                    g = gcd(big[a], big[b])
                    big[a], big[b] = g, big[a] // g * big[b]
                    changed = True
    return [1] * (len(diag) - len(big)) + sorted(big)


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
    rows = _sparse_rows(triplets, nrows, ncols)
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


def rational_rank(triplets, nrows, ncols):
    """Rank over Q by integer row elimination (independent route)."""
    return len(_rational_echelon(triplets, nrows, ncols))


def morse_complex(boundaries):
    """The Morse boundaries left by coreducing a chain complex.

    ``boundaries`` lists ∂1..∂k, each as (triplets, (nrows, ncols)) with one
    row per (d-1)-cell and one column per d-cell.  One vertex becomes
    critical; then a live cell whose only live face has coefficient ±1 is
    paired with that face, again and again; when no such cell is left, the
    lowest-dimensional live cell becomes critical.  Critical cells stay in
    the complex, so the correction term of each pairing lands on them
    alone.  The result has the form of ``boundaries``, with rows and
    columns indexed by the critical cells in the order they became
    critical, and the same integral homology.
    """
    sizes = [boundaries[0][1][0]] + [ncols for _, (_, ncols) in boundaries]
    live = [{} for _ in range(sizes[0])]  # cell -> {live face: coefficient}
    for d, (triplets, (nrows, ncols)) in enumerate(boundaries):
        if nrows != sizes[d]:
            raise ValueError(f"boundary {d + 1} has {nrows} rows, not {sizes[d]}")
        base, columns = len(live) - nrows, [{} for _ in range(ncols)]
        for i, row in enumerate(_sparse_rows(triplets, nrows, ncols)):
            for j, v in row.items():
                columns[j][base + i] = v
        live += columns
    cofaces = [[] for _ in live]
    for c, faces in enumerate(live):
        for f in faces:
            cofaces[f].append(c)
    degree = [d for d, size in enumerate(sizes) for _ in range(size)]
    alive = bytearray(b"\x01") * len(live)
    morse = [{} for _ in live]  # cell -> {critical face: coefficient}
    critical = [[] for _ in sizes]
    index = {}
    queue = deque(c for c, faces in enumerate(live) if len(faces) == 1)

    def drop_face(a, c):
        # the live face a of c dies; queue c if one live face is left
        coef = live[c].pop(a)
        if len(live[c]) == 1:
            queue.append(c)
        return coef

    nxt = 0
    while True:
        while queue:
            b = queue.popleft()
            if not (alive[b] and len(live[b]) == 1):
                continue
            ((a, s),) = live[b].items()
            if s not in (1, -1):
                continue
            # ∂c -= (<∂c, a> / s) ∂b for every live coface c of a; ∂b is
            # s·a plus its critical faces, so only those entries change
            alive[a] = alive[b] = 0
            for c in cofaces[a]:
                if alive[c]:
                    f = drop_face(a, c) * s
                    target = morse[c]
                    for x, v in morse[b].items():
                        w = target.get(x, 0) - f * v
                        if w:
                            target[x] = w
                        else:
                            del target[x]
            for c in cofaces[b]:
                if alive[c]:
                    drop_face(b, c)
        while nxt < len(live) and not alive[nxt]:
            nxt += 1
        if nxt == len(live):
            break
        # every face of the lowest live cell is dead: its boundary is final
        alive[nxt] = 0
        index[nxt] = len(critical[degree[nxt]])
        critical[degree[nxt]].append(nxt)
        for c in cofaces[nxt]:
            if alive[c]:
                morse[c][nxt] = drop_face(nxt, c)
    return [
        (
            [(index[x], index[c], v) for c in critical[d] for x, v in morse[c].items()],
            (len(critical[d - 1]), len(critical[d])),
        )
        for d in range(1, len(sizes))
    ]
