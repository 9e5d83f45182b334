"""Decoding for `abelslab.kernels`, used only by tests.

`decode_matrix` turns one coded row back into a `Matrix`, so the tests can
compare coded products and closures with plain `Matrix` arithmetic.
"""

from abelslab.matrices import Matrix


def decode_matrix(cr, vec, n):
    dec = cr.ring.decode
    vals = [dec(int(c)) for c in vec]
    rows = [tuple(vals[i * n : (i + 1) * n]) for i in range(n)]
    return Matrix(cr.ring, rows)
