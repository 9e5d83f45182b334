"""Decoding and a set-valued closure for `abelslab.kernels`, used only by
tests.

`decode_matrix` turns one coded row back into a `Matrix`, so the tests can
compare coded products and closures with plain `Matrix` arithmetic.
`closure_set` is the complete closure of `closure_python` as a set of
`Matrix` objects, which the nerve oracle in `reference_complexes` builds
its cosets from.
"""

from abelslab.config import BudgetExceeded
from abelslab.kernels import closure_python
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
