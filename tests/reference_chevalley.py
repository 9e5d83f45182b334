"""Reference routes for the root data and invariant forms of
`abelslab.chevalley`.

`reflection_permutation` is the permutation of a root datum's roots by a
reflection, used only to test that the simple reflections permute each
root system.  `form_preserved` tests g^T F g = F with Matrix products, one
instance at a time; the coded sweep of `check_form_invariance` is tested
against it.

`form_system`, `_rref_mod_p` and `_nullspace_mod_p` are the pure-Python
form search: the constraint rows of g^T F g = F collected from the
products of Laurent-polynomial entries, one bucket per exponent, and
Gauss-Jordan elimination on lists.  The numpy coefficient-stack system
and elimination of `check_form_invariance` are tested against them.

`pair_sweep_by_left_factor` is the Borel pair sweep one left factor at a
time, each a `mul_batch_left` product against every right factor; the
blocked `chevalley._pair_sweep` is tested against it.
"""

import numpy as np

from abelslab.chevalley import ChevalleyError, _symbolic_generators, reflect
from abelslab.kernels import mul_batch_left, pack_keys


def reflection_permutation(datum, alpha):
    """Index of the image of each root of `datum` under the reflection
    orthogonal to alpha."""
    index = {r: k for k, r in enumerate(datum.roots)}
    try:
        return tuple(index[reflect(tuple(alpha), r)] for r in datum.roots)
    except KeyError as exc:
        raise ChevalleyError(f"reflection leaves the root set: {exc}") from None


def form_preserved(mats, F):
    """One boolean per Matrix g of `mats`: g^T F g = F."""
    return [g.transpose() @ F @ g == F for g in mats]


def pair_sweep_by_left_factor(cr, S, img, pool, source_keys, last, n):
    """`chevalley._pair_sweep`, with the same arguments and result, one
    left factor g of `pool` at a time."""
    right = S[pool]
    (a2, r2, b2), t2 = img[pool, :3].T, img[pool, 3:]
    cases = tested = 0
    closed = True
    first = None
    for g in pool:
        prod = pack_keys(cr, mul_batch_left(cr, S[g], right, n), n)
        pos = np.searchsorted(source_keys, prod).clip(max=len(source_keys) - 1)
        inside = source_keys[pos] == prod
        cases += len(pool)
        tested += int(inside.sum())
        closed = closed and bool(inside.all())
        if first is None:
            # (a r; 0 b)(a2 r2; 0 b2) = (a a2, a r2 + r b2; 0, b b2)
            a, r, b = img[g, :3]
            composed = np.column_stack(
                [cr.mul[a, a2], cr.add[cr.mul[a, r2], cr.mul[r, b2]], cr.mul[b, b2],
                 cr.mul[img[g, 3:], t2]]
            )
            wrong = np.flatnonzero(inside & (img[last[pos]] != composed).any(axis=1))
            if wrong.size:
                first = (g, pool[wrong[0]])
    return cases, tested, closed, first


def _rref_mod_p(rows, ncols, p):
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] % p:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    return mat[:rank], pivots


def _nullspace_mod_p(rows, ncols, p):
    reduced, pivots = _rref_mod_p(rows, ncols, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for row, pc in zip(reduced, pivots):
            vec[pc] = (-row[f]) % p
        basis.append(tuple(vec))
    return basis


def form_system(model, kind, p):
    """The rows, as lists over the n*n entries of F, of g^T F g = F for
    every symbolic generator, then the symmetry rows of `kind`."""
    n = model.n
    nun = n * n
    rows = []
    for _name, G, L in _symbolic_generators(model):
        for a in range(n):
            for b in range(n):
                bucket = {}
                for i in range(n):
                    gia = G.rows[i][a]
                    if gia == L.zero:
                        continue
                    for j in range(n):
                        prod = L.mul(gia, G.rows[j][b])
                        for exps, coeff in prod:
                            row = bucket.setdefault(exps, [0] * nun)
                            row[i * n + j] = (row[i * n + j] + coeff) % p
                const = bucket.setdefault((0,), [0] * nun)
                const[a * n + b] = (const[a * n + b] - 1) % p
                for row in bucket.values():
                    if any(row):
                        rows.append(row)

    sym_rows = []
    for i in range(n):
        for j in range(i, n):
            row = [0] * nun
            if i == j:
                if kind == "alternating":
                    row[i * n + i] = 1
                    sym_rows.append(row)
                continue
            row[i * n + j] = 1
            row[j * n + i] = 1 if kind == "alternating" else p - 1
            sym_rows.append(row)
    return rows + sym_rows
