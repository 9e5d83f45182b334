"""Exact integer Smith normal form, rational rank, and coreduction.

Two deliberately independent code paths: `smith_invariant_factors` reduces an
integer matrix by exact row/column operations (sparse dict rows, pivots taken
in order of the key (|v|, i, j) from a heap, balanced remainders), while
`rational_rank` runs Gaussian elimination over Q on primitive integer
columns, without row operations: on a boundary map, one vector per k-cell,
led by its highest-indexed face, the column reduction of persistent
homology (Edelsbrunner, Letscher and Zomorodian, *Topological persistence
and simplification*, 2002; Zomorodian and Carlsson, *Computing persistent
homology*, 2005).  Homology checks cross-validate one against the other, so
neither may be rewritten in terms of the other.  They share only
`_sparse_rows`, which reads the triplets and refuses one outside the shape.

The Smith route does not run on a chain complex's own boundary maps:
`morse_complex` first coreduces the complex (Mrozek and Batko, *Coreduction
homology algorithm*, 2009).  Each pairing of a cell with its only live face
is an elementary reduction with a unit pivot (Kaczynski, Mrozek and
Ślusarek, 1998), so integral homology, torsion included, is that of the
small Morse complex of critical cells that is left, and
`smith_invariant_factors` runs on its boundaries only.  The pairs made form
an acyclic matching, and `check_matching` verifies that from the original
boundaries alone, trusting nothing of the coreduction.  On a simplicial
complex, a checked matching makes the complex homotopy equivalent to a CW
complex with one cell per critical cell (Forman, 1998); `complexes` reads
a trivial fundamental group off it.
"""

from bisect import bisect_right
from collections import defaultdict, deque
from heapq import heapify, heappop, heappush
from math import gcd


def _sparse_rows(triplets, nrows, ncols, columns=False):
    """The rows {j: v} of the matrix, or its columns {i: v} if ``columns``,
    repeated triplets summed; a triplet outside the nrows x ncols shape
    raises ValueError."""
    lines = [dict() for _ in range(ncols if columns else nrows)]
    for i, j, v in triplets:
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise ValueError(f"triplet ({i},{j}) outside {nrows}x{ncols} shape")
        if v:
            if columns:
                i, j = j, i
            w = lines[i].get(j, 0) + int(v)
            if w:
                lines[i][j] = w
            else:
                lines[i].pop(j, None)
    return lines


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
    """The integer vector {index: v} divided by the gcd of its entries (its
    content)."""
    g = gcd(*row.values())
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _rational_echelon(triplets, nrows, ncols):
    """Echelon basis of the column space over Q, keyed by leading row.

    Columns are eliminated in order, each led by its highest nonzero row:
    for a boundary map, one row per k-cell led by its highest-indexed face,
    the column reduction of persistent homology.  Every basis column is a
    primitive integer vector.  A column whose leading row has a basis
    column, with pivot p there and leading entry c, becomes
    column - (c/p)*pivot when p divides c, and otherwise
    (p/g)*column - (c/g)*pivot with g = gcd(p, c), divided by its content.
    Scaling by a nonzero integer keeps the span over Q, so the number of
    basis columns is the rank.
    """
    pivots = {}  # leading row -> primitive column
    for work in _sparse_rows(triplets, nrows, ncols, columns=True):
        while work:
            lead = max(work)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _primitive(work)
                break
            p, c = pivot[lead], work[lead]
            q, r = divmod(c, p)
            if r:
                g = gcd(p, c)
                q = c // g
                work = {i: p // g * v for i, v in work.items()}
            for i, v in pivot.items():
                w = work.get(i, 0) - q * v
                if w:
                    work[i] = w
                else:
                    work.pop(i, None)
            if r and work:
                work = _primitive(work)
    return pivots


def rational_rank(triplets, nrows, ncols):
    """Rank over Q by integer column elimination in cell order (independent
    route)."""
    return len(_rational_echelon(triplets, nrows, ncols))


def _cell_faces(boundaries):
    """The number of cells in each degree, and each cell's {face:
    coefficient}, with cells numbered degree by degree: the rows of ∂1
    first, then the columns of ∂1, ∂2, ...  Boundaries whose shapes do not
    chain raise ValueError."""
    sizes = [boundaries[0][1][0]] + [ncols for _, (_, ncols) in boundaries]
    faces = [{} for _ in range(sizes[0])]
    for d, (triplets, (nrows, ncols)) in enumerate(boundaries):
        if nrows != sizes[d]:
            raise ValueError(f"boundary {d + 1} has {nrows} rows, not {sizes[d]}")
        base, columns = len(faces) - nrows, [{} for _ in range(ncols)]
        for i, row in enumerate(_sparse_rows(triplets, nrows, ncols)):
            for j, v in row.items():
                columns[j][base + i] = v
        faces += columns
    return sizes, faces


def morse_complex(boundaries):
    """The Morse boundaries left by coreducing a chain complex.

    ``boundaries`` lists ∂1..∂k, each as (triplets, (nrows, ncols)) with one
    row per (d-1)-cell and one column per d-cell.  One vertex becomes
    critical; then a live cell whose only live face has coefficient ±1 is
    paired with that face, again and again; when no such cell is left, the
    lowest-dimensional live cell becomes critical.  Critical cells stay in
    the complex, so the correction term of each pairing lands on them
    alone.  Returns the Morse boundaries and the matching.  The boundaries
    have the form of ``boundaries``, with rows and columns indexed by the
    critical cells in the order they became critical, and the same
    integral homology.  The matching lists the (face, cell) pairs made,
    with cells numbered degree by degree: the rows of ∂1 first, then the
    columns of ∂1, ∂2, ...
    """
    sizes, live = _cell_faces(boundaries)  # cell -> {live face: coefficient}
    cofaces = [[] for _ in live]
    for c, faces in enumerate(live):
        for f in faces:
            cofaces[f].append(c)
    degree = [d for d, size in enumerate(sizes) for _ in range(size)]
    alive = bytearray(b"\x01") * len(live)
    morse = [{} for _ in live]  # cell -> {critical face: coefficient}
    critical = [[] for _ in sizes]
    index = {}
    pairs = []
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
            pairs.append((a, b))
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
    ], pairs


def check_matching(boundaries, pairs):
    """The number of critical cells in each degree of an acyclic matching.

    ``boundaries`` is as for ``morse_complex``, and cells are numbered as
    there, degree by degree.  Each pair (a, b) of ``pairs`` must be a face a
    of the cell b with coefficient ±1, no cell may be in two pairs, and the
    Hasse diagram with the matched face relations reversed must have a
    topological order.  A simplicial complex is then homotopy equivalent to
    a CW complex with one cell per unmatched (critical) cell (Forman,
    *Morse theory for cell complexes*, 1998).  A matching that fails any of
    the three raises ValueError.
    """
    sizes, faces = _cell_faces(boundaries)
    starts = [sum(sizes[:d]) for d in range(len(sizes) + 1)]
    critical = list(sizes)
    partner = {}
    for a, b in pairs:
        if not 0 <= b < len(faces) or faces[b].get(a) not in (1, -1):
            raise ValueError(f"pair ({a}, {b}) is not a face with coefficient ±1")
        if a in partner or b in partner:
            raise ValueError(f"pair ({a}, {b}) shares a cell with another pair")
        partner[a], partner[b] = b, a
        d = bisect_right(starts, b) - 1
        critical[d - 1] -= 1
        critical[d] -= 1
    # Kahn's algorithm on the Hasse diagram: each face relation points from
    # the cell down to its face, a matched one from the face up to its cell
    successors = [[] for _ in faces]
    indegree = [0] * len(faces)
    for b, row in enumerate(faces):
        for a in row:
            tail, head = (a, b) if partner.get(a) == b else (b, a)
            successors[tail].append(head)
            indegree[head] += 1
    ready = [c for c, k in enumerate(indegree) if not k]
    ordered = 0
    while ready:
        ordered += 1
        for c in successors[ready.pop()]:
            indegree[c] -= 1
            if not indegree[c]:
                ready.append(c)
    if ordered < len(faces):
        raise ValueError("the matching has a cycle in the Hasse diagram")
    return tuple(critical)
