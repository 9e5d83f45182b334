"""Decoding and a set-valued closure for `abelslab.kernels`, used only by
tests.

`decode_matrix` turns one coded row back into a `Matrix`, so the tests can
compare coded products and closures with plain `Matrix` arithmetic.
`closure_set` is the complete closure of `closure_python` as a set of
`Matrix` objects, which the nerve oracle in `reference_complexes` builds
its cosets from.  `coset_labels` labels one coset at a time: it walks the
group in key order and multiplies each new representative by every
element of the subgroup; the tests check `abelslab.kernels.coset_labels`,
which works from the subgroup's generators, against it.
"""

import numpy as np

from abelslab.config import BudgetExceeded
from abelslab.kernels import (
    KernelError,
    _batch_keys,
    _gather,
    _tables,
    _width,
    closure_python,
    pack_keys,
)
from abelslab.matrices import Matrix


def decode_matrix(cr, vec, n):
    dec = cr.ring.decode
    vals = [dec(int(c)) for c in vec]
    rows = [tuple(vals[i * n : (i + 1) * n]) for i in range(n)]
    return Matrix(cr.ring, rows)


def closure_set(ring, gen_mats, budget=None, what="group closure"):
    """The complete closure of ``closure_python`` as a set of Matrix objects.

    Overflow raises ``BudgetExceeded("inconclusive-budget: <what>
    overflowed")``; callers that need key order sort the set.
    """
    status, seen = closure_python(ring, gen_mats, budget=budget)
    if status != "complete":
        raise BudgetExceeded(f"inconclusive-budget: {what} overflowed")
    return seen


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
