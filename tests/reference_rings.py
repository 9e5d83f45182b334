"""Reference checks on `abelslab.rings`, used only by tests.

`verify_additive_presentation` checks the structural invariants of an
`AdditivePresentation`: every relator and product row denotes the ring
element it claims, the product table is symmetric with the unit row as the
identity, and over a finite ring the relators cut Z^T down to exactly the
ring's order (`quotient_order`, through the Smith normal form).
`substitute` evaluates a `LaurentRing` element in its base ring, so
symbolic identities can be compared with direct evaluation.
"""

from abelslab.snf import smith_invariant_factors
from reference_snf import dense_to_triplets


def quotient_order(triplets, nrows, ncols):
    """Order of Z^ncols modulo the row span, or None if infinite."""
    factors = smith_invariant_factors(triplets, nrows, ncols)
    if len(factors) < ncols:
        return None
    out = 1
    for d in factors:
        out *= d
    return out


def expand(pres, row):
    """The ring element sum_t row_t * t of an integer coefficient row."""
    R = pres.ring
    out = R.zero
    for coeff, t in zip(row, pres.generators):
        out = R.add(out, R.scale_int(coeff, t))
    return out


def verify_additive_presentation(pres):
    """Check the structural invariants of an additive presentation."""
    ring = pres.ring
    T = pres.generators
    k = len(T)
    if k == 0 or T[0] != ring.one:
        return False
    for row in pres.relators:
        if len(row) != k or expand(pres, row) != ring.zero:
            return False
    if len(pres.products) != k:
        return False
    for i in range(k):
        if len(pres.products[i]) != k:
            return False
        for j in range(k):
            row = pres.products[i][j]
            if len(row) != k:
                return False
            if pres.products[j][i] != row:
                return False
            if expand(pres, row) != ring.mul(T[i], T[j]):
                return False
    # unit row: 1 * t_j = t_j must be the standard basis row
    for j in range(k):
        expect = tuple(1 if t == j else 0 for t in range(k))
        if pres.products[0][j] != expect:
            return False
    if ring.finite:
        triplets = dense_to_triplets(pres.relators)
        if quotient_order(triplets, len(pres.relators), k) != ring.order():
            return False
    return True


def substitute(L, a, values):
    """Evaluate the element a of the Laurent ring L in its base ring;
    `values` maps variable name -> element."""
    bz = L.base
    out = bz.zero
    for exps, c in a:
        term = c
        for name, e in zip(L.names, exps):
            if e:
                term = bz.mul(term, bz.power(values[name], e))
        out = bz.add(out, term)
    return out
