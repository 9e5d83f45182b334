"""Group identities on `abelslab.matrices.Matrix`, used only by tests.

`commutator` and `conjugate` are the plain products, and
`hall_identity_check` tests two composite commutator identities that hold
in any group, as a check on `Matrix.mul` and `Matrix.inverse`.
"""

from abelslab.matrices import Matrix


def commutator(x, y):
    """x y x^-1 y^-1."""
    return x.mul(y).mul(x.inverse()).mul(y.inverse())


def conjugate(x, y):
    """x y x^-1."""
    return x.mul(y).mul(x.inverse())


def hall_identity_check(a, b, c):
    """First: [c a c^-1, [b, c]] * [b c b^-1, [a, b]] * [a b a^-1, [c, a]] = 1.
    Second: [a b, c] = a [b, c] a^-1 * [a, c].
    """
    a._require_compatible(b)
    a._require_compatible(c)
    one = Matrix.identity(a.ring, a.n)
    t1 = commutator(conjugate(c, a), commutator(b, c))
    t2 = commutator(conjugate(b, c), commutator(a, b))
    t3 = commutator(conjugate(a, b), commutator(c, a))
    first = t1.mul(t2).mul(t3) == one
    lhs = commutator(a.mul(b), c)
    rhs = conjugate(a, commutator(b, c)).mul(commutator(a, c))
    second = lhs == rhs
    return first and second
