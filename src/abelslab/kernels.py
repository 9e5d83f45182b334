"""Integer-coded bulk kernels for finite matrix groups.

A finite ring with q elements is flattened to int64 lookup tables indexed by
element codes; an n x n matrix becomes a flat length-n^2 int64 vector of
codes, and a whole group becomes a 2-d array of such vectors.
``elementary_codes`` writes the elementary matrices e_ij(r) of a list of
positions straight into such tables, one row per element code, with no
Matrix object.  ``pack_keys`` gives each vector one sortable key, which
gives sorted-array membership tests and canonical minimal coset
representatives for free.  Keys come in two formats, both ordered like
the row-major base-q integer of the codes: an int64 holding that integer
whenever q**(n*n) < 2**63 (``fits_packing``),
and otherwise the codes as big-endian unsigned bytes viewed as ``np.void``.
Sorting, ``np.unique``, ``searchsorted``, ``isin``, ``intersect1d`` and
equality work on either; ordering comparisons and ``np.diff`` need int64.

Every batch product multiplies many matrices by one fixed matrix g, and runs
as a table gather.  The left product g*B reads each column of B, the right
product B*g each row, in chunks of w consecutive entries.  The base-q code
of a chunk is its key, and for each output index i a table holds
T[i, key] = sum_k g[i, k] * v[k] over the chunk's entries v.  One key per
column and one gather per output row then replace the 2n lookups in the
ring's mul and add tables, and the chunks' partial sums are combined with
add.  No table has more than TABLE_CAP columns: w is the largest width with
q**w <= min(TABLE_CAP, batch rows), so a chunk table is also never larger
than the batch it serves, and at w = 1 the gather is the plain per-k loop.
Where both factors vary per case, ``mul_rows`` multiplies two equally long
batches row by row, folding ``mul`` over k with ``add``.  ``mul_pairs``
multiplies every A of one batch by every B of another: the rows of all
the A are the lines of one set of chunk tables, and each chunk is one
gather at B's chunk keys.

The closure, the center scan, ``product_keys`` and ``entry_keys`` need
only the keys of their products, and on the key route they never write
out the products' codes.  A line of a matrix, one row or one column of n
codes, has a base-q key below q**n.  Row i of x*g depends on row i of x
alone, and column j of g*x on column j of x alone, so for a fixed g one
key table of q**n entries gives each line's share of the product's int64
key:

    key(x*g) = sum_i q**(n*(n-1-i)) * P[rowkey_i(x)]
    key(g*x) = sum_j q**(n-1-j) * S[colkey_j(x)]

where, for v the line with key r or c, P[r] is the base-q key of the row
v*g and S[c] = sum_i q**(n*(n-1-i)) * (g*v)[i].  Every partial sum is at
most the product's key, so both are exact wherever the keys are int64.

``_key_tables`` builds one side's tables, S or P, of every generator at
once: one ``_tables`` call over the stacked lines of a block of
generators.  Each caller builds its tables once: the closure (P alone)
reuses them at every level, and ``center_mask`` over every chunk of
elements.

``entry_keys`` needs only a few entries of g*X, as the retraction check
of ``abels`` does: X is keyed once by the columns those entries read,
and each generator builds a table of the rows they read.  On the key route
the rows one column needs fold into a single table; otherwise X's chunk
keys are computed once and gathered per generator.

The route rule is one predicate, ``_keyed``, read only by
``_product_steps`` (behind ``product_keys`` and ``center_mask``),
``entry_keys`` and ``group_closure``: the key route runs exactly when the
keys are int64 (``fits_packing``) and q**n <= TABLE_CAP.  Every other
input (byte keys, or longer lines) takes the chunked gather, which is
also the only route of ``mul_batch_left``, ``mul_batch_right``,
``mul_pairs``, ``mul_rows`` and ``coset_labels``.

The closure is ``group_closure``, a coded BFS that gives the sorted keys
of the generated group.  On the key route each level's products by a
block of generators, at most ``_CLOSURE_BLOCK`` keys, are deduplicated
across the generators before the known keys are probed, so the probe is
one sorted ``searchsorted`` per block; the chunk route probes once per
generator.  ``unpack_keys`` turns keys back into codes where a caller
needs them, and ``closure_order`` runs the closure on Matrix
generators for callers that need only the order.  Every kernel needs a
finite ring: ``coded_ring`` refuses an infinite one.  ``closure_python``
builds the closure as a set of Matrix objects; no caller in the package
uses it, and it stays here as the oracle the tests check the coded
closure against.
"""

from functools import lru_cache

import numpy as np

from .config import BudgetExceeded, get_budget
from .matrices import Matrix
from .rings import RingError


class KernelError(RuntimeError):
    pass


# -- coded rings -------------------------------------------------------

_CODED_CACHE = {}


class CodedRing:
    """Lookup-table image of a finite ring."""

    def __init__(self, ring):
        if not ring.finite:
            raise RingError(f"{ring.descriptor} is not finite")
        self.ring = ring
        q = ring.order()
        self.q = q
        elems = ring.elements()
        self.add = np.empty((q, q), np.int64)
        self.mul = np.empty((q, q), np.int64)
        self.neg = np.empty(q, np.int64)
        self.inv = np.full(q, -1, np.int64)
        enc = ring.encode
        for a in range(q):
            ea = elems[a]
            self.neg[a] = enc(ring.neg(ea))
            iv = ring.try_inverse(ea)
            if iv is not None:
                self.inv[a] = enc(iv)
            for b in range(q):
                eb = elems[b]
                self.add[a, b] = enc(ring.add(ea, eb))
                self.mul[a, b] = enc(ring.mul(ea, eb))
        self.zero = enc(ring.zero)
        self.one = enc(ring.one)
        self.unit_codes = np.array(
            [c for c in range(q) if self.inv[c] >= 0], np.int64
        )


def coded_ring(ring):
    cr = _CODED_CACHE.get(ring.descriptor)
    if cr is None:
        cr = CodedRing(ring)
        _CODED_CACHE[ring.descriptor] = cr
    return cr


def encode_matrix(cr, mat):
    enc = cr.ring.encode
    return np.array([enc(v) for row in mat.rows for v in row], np.int64)


def encode_matrices(cr, mats):
    if not mats:
        raise KernelError("empty matrix list")
    return np.stack([encode_matrix(cr, m) for m in mats])


def identity_vec(cr, n):
    out = np.full(n * n, cr.zero, np.int64)
    out[:: n + 1] = cr.one
    return out


def elementary_codes(cr, n, positions):
    """Code tables of elementary matrices: row [p, c] is e_ij(r), for
    (i, j) = positions[p] (1-based, off-diagonal) and r the element of
    code c."""
    out = np.tile(identity_vec(cr, n), (len(positions), cr.q, 1))
    for p, (i, j) in enumerate(positions):
        if i == j or not (1 <= i <= n and 1 <= j <= n):
            raise KernelError(f"no elementary position ({i},{j}) in size {n}")
        out[p, :, (i - 1) * n + j - 1] = np.arange(cr.q)
    return out


def fits_packing(q, n):
    return q ** (n * n) < 2**63


@lru_cache(maxsize=None)
def _powers(q, nn):
    """Place values q**(nn-1), ..., q, 1; cached and read-only."""
    pw = np.empty(nn, np.int64)
    pw[nn - 1] = 1
    for t in range(nn - 2, -1, -1):
        pw[t] = pw[t + 1] * q
    pw.flags.writeable = False
    return pw


def _byte_dtype(q):
    """Big-endian unsigned dtype of the fewest bytes that holds q - 1."""
    width = next(b for b in (1, 2, 4, 8) if q - 1 < 256**b)
    return np.dtype(f">u{width}")


def pack_keys(cr, vecs, n):
    """One key per coded matrix, ordered like its row-major base-q integer.

    The key is that integer as int64 where ``fits_packing(q, n)``; otherwise
    it is the row's codes as big-endian bytes, one ``np.void`` per row.
    """
    if fits_packing(cr.q, n):
        return vecs @ _powers(cr.q, n * n)
    codes = np.ascontiguousarray(vecs, _byte_dtype(cr.q))
    return codes.view(np.dtype((np.void, codes.shape[1] * codes.itemsize)))[:, 0]


def unpack_keys(keys, cr, n):
    """Coded matrices of ``pack_keys`` keys, one row each."""
    if fits_packing(cr.q, n):
        return keys[:, None] // _powers(cr.q, n * n) % cr.q
    codes = np.ascontiguousarray(keys).view(_byte_dtype(cr.q))
    return codes.reshape(-1, n * n).astype(np.int64)


# -- table gather ------------------------------------------------------

TABLE_CAP = 4096


def _width(q, n, rows):
    """Largest chunk width w <= n with q**w <= min(TABLE_CAP, rows), at least 1."""
    limit = min(TABLE_CAP, rows)
    w = 1
    while w < n and q ** (w + 1) <= limit:
        w += 1
    return w


def _tables(cr, lines, w):
    """One gather table per chunk of w entries.

    ``lines[i, k]`` is the coefficient of entry k of a batch column in output
    index i.  Row i of a chunk's table holds sum_k lines[i, k] * v[k] at the
    base-q key of the chunk's entries v, first entry most significant.
    """
    n_out, n = lines.shape
    tables = []
    for k0 in range(0, n, w):
        table = cr.mul[lines[:, k0]]
        for k in range(k0 + 1, min(k0 + w, n)):
            table = cr.add[table[:, :, None], cr.mul[lines[:, k]][:, None, :]]
            table = table.reshape(n_out, -1)
        tables.append(table)
    return tables


def _batch_keys(cr, cols, w):
    """Chunk keys of every batch column; entry k of column c is cols[:, k, c]."""
    n = cols.shape[1]
    return [
        _powers(cr.q, min(w, n - k0)) @ cols[:, k0 : k0 + w]
        for k0 in range(0, n, w)
    ]


def _gather(cr, tables, keys, dst):
    """dst[r, i, c] = sum over chunks t of tables[t][i, keys[t][r, c]]."""
    for t, (table, key) in enumerate(zip(tables, keys)):
        for i, row in enumerate(table):
            if t:
                dst[:, i] = cr.add[dst[:, i], row[key]]
            else:
                dst[:, i] = row[key]
    return dst


def _rows(vecs, n):
    """Batch rows as columns: entry k of column c is B[c, k]."""
    return vecs.reshape(-1, n, n).transpose(0, 2, 1)


def mul_batch_left(cr, a, Bs, n):
    """a*B for every coded matrix B in ``Bs``, as (m, n*n) codes."""
    m = Bs.shape[0]
    w = _width(cr.q, n, m)
    out = np.empty((m, n, n), np.int64)
    tables = _tables(cr, a.reshape(n, n), w)
    _gather(cr, tables, _batch_keys(cr, Bs.reshape(-1, n, n), w), out)
    return out.reshape(m, n * n)


def mul_batch_right(cr, As, b, n):
    """A*b for every coded matrix A in ``As``, as (m, n*n) codes."""
    m = As.shape[0]
    w = _width(cr.q, n, m)
    out = np.empty((m, n, n), np.int64)
    tables = _tables(cr, b.reshape(n, n).T, w)
    _gather(cr, tables, _batch_keys(cr, _rows(As, n), w), out.transpose(0, 2, 1))
    return out.reshape(m, n * n)


def mul_pairs(cr, As, Bs, n):
    """A*B for every A in ``As`` and B in ``Bs``, as (p*m, n*n) codes with
    A the major index: row a*m + b is As[a]*Bs[b].

    The rows of every A are the lines of one ``_tables`` call, and each
    chunk is one gather of all those tables at B's chunk keys.
    """
    p, m = As.shape[0], Bs.shape[0]
    w = _width(cr.q, n, m)
    tables = _tables(cr, As.reshape(-1, n), w)
    out = None
    for table, key in zip(tables, _batch_keys(cr, Bs.reshape(-1, n, n), w)):
        # (p, n, m, n) indexed [a, i, b, j] to (p, m, n, n) indexed [a, b, i, j]
        part = table.reshape(p, n, table.shape[1])[:, :, key].transpose(0, 2, 1, 3)
        out = part if out is None else cr.add[out, part]
    return out.reshape(p * m, n * n)


def mul_rows(cr, As, Bs, n):
    """A*B for every row pair of the equally long coded batches As and Bs."""
    A = As.reshape(-1, n, n)
    B = Bs.reshape(-1, n, n)
    out = cr.mul[A[:, :, 0, None], B[:, None, 0, :]]
    for k in range(1, n):
        out = cr.add[out, cr.mul[A[:, :, k, None], B[:, None, k, :]]]
    return out.reshape(-1, n * n)


# -- key tables --------------------------------------------------------


def _keyed(q, n):
    """The route rule: int64 keys, and q**n <= TABLE_CAP."""
    return fits_packing(q, n) and q**n <= TABLE_CAP


def _line_keys(cr, vecs, n):
    """(row keys, column keys) of coded matrices, (m, n) each."""
    X = vecs.reshape(-1, n, n)
    pw = _powers(cr.q, n)
    return X @ pw, pw @ X


# build-table entries per block of generators: bounds the tables that
# ``_key_tables`` builds at once and that ``center_mask`` holds
_TABLE_BLOCK = 1 << 16


def _table_block(q, n):
    """Generators per block: at most _TABLE_BLOCK build entries, at least one."""
    return max(1, _TABLE_BLOCK // (n * q**n))


def _key_tables(cr, gens, n, right):
    """One side's key tables of every coded generator, as (k, q**n).

    Row t is the P (``right``) or the S of generator t:

        key(x*g) = sum_i q**(n*(n-1-i)) * P[t, rowkey_i(x)]
        key(g*x) = sum_j q**(n-1-j) * S[t, colkey_j(x)]

    It is one ``_tables`` call over the stacked columns (P) or rows (S) of
    a block of ``_table_block`` generators, so no build table has more
    than max(_TABLE_BLOCK, n * q**n) entries.
    """
    Q = cr.q**n
    G = np.reshape(gens, (-1, n, n))
    if right:
        G = G.transpose(0, 2, 1)
    place = _powers(cr.q if right else Q, n)
    out = np.empty((G.shape[0], Q), np.int64)
    step = _table_block(cr.q, n)
    for lo in range(0, G.shape[0], step):
        table = _tables(cr, G[lo : lo + step].reshape(-1, n), n)[0]
        out[lo : lo + step] = place @ table.reshape(-1, n, Q)
    return out


def _product_steps(cr, gens, n):
    """(prepare, products): the keys of g*X and X*g, generator by generator.

    ``prepare(X)`` gives a tuple of arrays with one row per member of X:
    its row and column keys on the key route, its codes otherwise.
    ``products(t, arrays)`` gives the keys of g*X and X*g for generator t,
    on any selection of those rows.  The key route builds every
    generator's tables here, once; the chunk route multiplies by
    ``mul_batch_left`` and ``mul_batch_right``.
    """
    if _keyed(cr.q, n):
        S = _key_tables(cr, gens, n, right=False)
        P = _key_tables(cr, gens, n, right=True)
        pw, place = _powers(cr.q, n), _powers(cr.q**n, n)

        def products(t, lines):
            rows, cols = lines
            return S[t][cols] @ pw, P[t][rows] @ place

        return (lambda X: _line_keys(cr, X, n)), products

    def chunk_products(t, codes):
        (X,) = codes
        return (
            pack_keys(cr, mul_batch_left(cr, gens[t], X, n), n),
            pack_keys(cr, mul_batch_right(cr, X, gens[t], n), n),
        )

    return (lambda X: (X,)), chunk_products


def product_keys(cr, X, gens, n):
    """Keys of g*X and of X*g, row for row, for each coded generator g.

    On the key route X is keyed once, by its line keys, and the tables of
    all generators are built together; otherwise both sides are batch
    products keyed by ``pack_keys``.
    """
    prepare, products = _product_steps(cr, gens, n)
    arrays = prepare(X)
    for t in range(len(gens)):
        yield products(t, arrays)


def entry_keys(cr, X, gens, n, entries):
    """Keys of some entries of g*X, row for row, for each coded generator g.

    ``entries`` lists 0-based positions (i, j); the key of g*x is the
    base-q integer of its entries there, in the order listed, and must be
    below 2**63.  Entry (i, j) of g*x is row i of g times column j of x,
    so X is keyed once, by the columns the entries read, and each
    generator builds one table of the rows they read.  On the key route
    the rows a column needs are folded into one table by their place
    values, and one gather per column gives all its entries; otherwise
    the columns' chunk keys are computed once and gathered per generator,
    as in ``mul_batch_left``.
    """
    rows = sorted({i for i, _ in entries})
    cols = sorted({j for _, j in entries})
    # entry e is row at[0][e] of a generator's table, at column at[1][e]
    at = ([rows.index(i) for i, _ in entries], [cols.index(j) for _, j in entries])
    place = _powers(cr.q, len(entries))
    B = X.reshape(-1, n, n)[:, :, cols]
    if _keyed(cr.q, n):
        keys = _powers(cr.q, n) @ B
        for g in gens:
            table = _tables(cr, g.reshape(n, n)[rows], n)[0]
            fold = np.zeros((len(cols), table.shape[1]), np.int64)
            np.add.at(fold, at[1], place[:, None] * table[at[0]])
            yield sum(f[k] for f, k in zip(fold, keys.T))
    else:
        w = _width(cr.q, n, B.shape[0])
        keys = _batch_keys(cr, B, w)
        out = np.empty((B.shape[0], len(rows), len(cols)), np.int64)
        for g in gens:
            _gather(cr, _tables(cr, g.reshape(n, n)[rows], w), keys, out)
            yield out[:, at[0], at[1]] @ place


# -- closure and center ------------------------------------------------


def _unique(keys):
    """Sorted distinct keys, sorting ``keys`` in place; faster than
    np.unique, which hashes int64."""
    keys.sort()
    keep = np.empty(keys.shape[0], bool)
    keep[:1] = True
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


# product keys per closure block, which bounds a BFS level's product array
_CLOSURE_BLOCK = 1 << 20


def _key_steps(cr, gens, n):
    """Closure steps on key tables: a level is multiplied as row keys.

    ``products`` yields the level's products by a block of generators at
    a time, as sorted distinct keys: a block holds at most
    ``_CLOSURE_BLOCK`` keys, and at least one generator.
    """
    Q = cr.q**n
    place = _powers(Q, n)
    tables = _key_tables(cr, gens, n, right=True)

    def frontier(keys):
        return keys[:, None] // place % Q

    def products(rows):
        m = rows.shape[0]
        step = max(1, _CLOSURE_BLOCK // m)
        for lo in range(0, len(tables), step):
            block = tables[lo : lo + step]
            out = np.empty((len(block), m), np.int64)
            for P, dst in zip(block, out):
                np.matmul(P[rows], place, out=dst)
            yield _unique(out.reshape(-1))

    return frontier, products


def _chunk_steps(cr, gens, n, w):
    """Closure steps on chunk gathers: a level is multiplied as codes."""
    tables = [_tables(cr, g.reshape(n, n).T, w) for g in gens]

    def frontier(keys):
        return unpack_keys(keys, cr, n)

    def products(codes):
        fkeys = _batch_keys(cr, _rows(codes, n), w)
        prod = np.empty((codes.shape[0], n, n), np.int64)
        for gtables in tables:
            _gather(cr, gtables, fkeys, prod.transpose(0, 2, 1))
            yield pack_keys(cr, prod.reshape(-1, n * n), n)

    return frontier, products


def group_closure(cr, gens, n, budget=None):
    """BFS closure of the generated subgroup, seeded with the identity.

    Returns (status, keys): the ``pack_keys`` keys of the elements, sorted
    and distinct; status is "complete" or "overflow" (a partial set, still
    sorted and distinct).  The search keeps only keys, and a caller that
    needs the elements' codes reads them with ``unpack_keys``.  On the key
    route a level is multiplied as its row keys, one key table lookup per
    row and generator, and the products of a block of generators are
    deduplicated together, so the known keys are probed once per block
    with sorted needles; otherwise each level is unpacked and multiplied
    by chunk gathers, and probed once per generator.  Each generator's
    tables are built once and serve every level.
    """
    budget = get_budget(budget)
    if gens.ndim != 2 or gens.shape[1] != n * n:
        raise KernelError("generator array must have shape (m, n*n)")
    ident = identity_vec(cr, n)[None, :]
    if gens.shape[0] == 0:
        return "complete", pack_keys(cr, ident, n)
    if _keyed(cr.q, n):
        frontier, products = _key_steps(cr, gens, n)
    else:
        frontier, products = _chunk_steps(
            cr, gens, n, _width(cr.q, n, budget)
        )
    keys = _unique(pack_keys(cr, np.concatenate([ident, gens]), n))
    if keys.shape[0] > budget:
        return "overflow", keys[:budget]
    level = frontier(keys)
    status = "complete"
    while level.shape[0]:
        fresh = []
        for pk in products(level):
            pos = np.searchsorted(keys, pk).clip(max=keys.shape[0] - 1)
            fresh.append(pk[keys[pos] != pk])
        pk = _unique(np.concatenate(fresh))
        if not pk.shape[0]:
            break
        if keys.shape[0] + pk.shape[0] > budget:
            status = "overflow"
            break
        # a stable sort merges the two sorted runs
        keys = np.sort(np.concatenate([keys, pk]), kind="stable")
        level = frontier(pk)
    return status, keys


# elements per center-scan chunk, which bounds the scan's product arrays
_CENTER_CHUNK = 1 << 16


def center_mask(cr, elems, gens, n):
    """True where an element commutes with every generator.

    The generators are taken in blocks of ``_table_block``, whose tables
    are built once, and for each block the elements are scanned in chunks
    of ``_CENTER_CHUNK``.  A chunk is keyed once by ``_product_steps`` and
    filtered generator by generator: each generator tests only the
    elements that commute with all the generators before it, and x
    commutes with g when the keys of g*x and x*g agree.
    """
    mask = np.ones(elems.shape[0], bool)
    step = _table_block(cr.q, n)
    for g0 in range(0, len(gens), step):
        block = gens[g0 : g0 + step]
        prepare, products = _product_steps(cr, block, n)
        for lo in range(0, elems.shape[0], _CENTER_CHUNK):
            hi = lo + _CENTER_CHUNK
            X, alive = elems[lo:hi], mask[lo:hi]
            if not alive.all():
                X = X[alive]
            arrays = prepare(X)
            alive = lo + np.flatnonzero(alive)
            for t in range(len(block)):
                left, right = products(t, arrays)
                keep = left == right
                alive = alive[keep]
                arrays = tuple(a[keep] for a in arrays)
            mask[lo:hi] = False
            mask[alive] = True
    return mask


def coset_labels(cr, elems, keys, sub, n):
    """Left-coset labels g*H over a group sorted by its ``pack_keys`` keys.

    Labels are assigned in element (key) order, so the representative of
    each coset is automatically its minimal element.  Returns (labels,
    rep_indices).  The subgroup's chunk keys are computed once and every
    representative only builds its own gather tables.
    """
    N = elems.shape[0]
    w = _width(cr.q, n, sub.shape[0])
    sub_keys = _batch_keys(cr, sub.reshape(-1, n, n), w)
    members = np.empty((sub.shape[0], n, n), np.int64)
    labels = np.full(N, -1, np.int64)
    reps = []
    for i in range(N):
        if labels[i] >= 0:
            continue
        _gather(cr, _tables(cr, elems[i].reshape(n, n), w), sub_keys, members)
        mk = pack_keys(cr, members.reshape(-1, n * n), n)
        pos = np.searchsorted(keys, mk)
        if (pos >= N).any() or (keys[pos.clip(max=N - 1)] != mk).any():
            raise KernelError("coset member escapes the element set")
        labels[pos] = len(reps)
        reps.append(i)
    return labels, np.array(reps, np.int64)


def closure_python(ring, gen_mats, budget=None):
    """Set-based closure over Matrix objects, over any ring.

    The budget is checked at every new element, so ``seen`` never holds
    more than ``budget`` matrices; the status is "overflow" exactly when the
    closure is larger than the budget.  No caller in the package runs it:
    it is the oracle of ``tests/reference_kernels.py``, which checks the
    coded closure against it, and the perfbench tracer wraps it by name.
    """
    budget = get_budget(budget)
    if not gen_mats:
        raise KernelError("empty generator list")
    if budget < 1:
        return "overflow", set()
    ident = Matrix.identity(ring, gen_mats[0].n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gen_mats:
                y = x.mul(g)
                if y not in seen:
                    if len(seen) >= budget:
                        return "overflow", seen
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return "complete", seen


def closure_order(ring, gen_mats, budget=None, what="group closure"):
    """Order of the group generated by the Matrix objects ``gen_mats``.

    The closure runs coded in ``group_closure``, with either key format, so
    an infinite ring is refused by ``coded_ring``.  Over the budget it
    raises ``BudgetExceeded("inconclusive-budget: <what> overflowed")``.
    """
    if not gen_mats:
        raise KernelError("empty generator list")
    cr = coded_ring(ring)
    status, keys = group_closure(
        cr, encode_matrices(cr, gen_mats), gen_mats[0].n, budget
    )
    if status != "complete":
        raise BudgetExceeded(f"inconclusive-budget: {what} overflowed")
    return keys.shape[0]
