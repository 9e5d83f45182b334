"""Immutable square matrices over an exact ring.

Rows are stored as nested tuples of canonical ring element values; public
row/column indices are 1-based throughout.  A product folds the ring's
`add` and `mul` over each row-column pair, skipping zero left entries, so
that Laurent rings check their term-count budget on every step; batches
of products over finite rings run coded in `kernels`.  Inversion is exact
and has two routes: Gauss-Jordan elimination with unit pivots, and, only
for a matrix with no unit pivot left in some column, as can happen over a
non-local ring such as Z/6, the adjugate with a subset-DP determinant
(intended for the small ambient sizes used here, n <= 8).
"""

from functools import reduce


class MatrixError(ValueError):
    pass


class Matrix:
    __slots__ = ("ring", "n", "rows", "_hash")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        self.n = len(self.rows)
        for r in self.rows:
            if len(r) != self.n:
                raise MatrixError("matrix must be square")
        self._hash = None

    @classmethod
    def _trusted(cls, ring, rows):
        """A matrix from rows already known to be n tuples of length n."""
        out = cls.__new__(cls)
        out.ring = ring
        out.rows = rows
        out.n = len(rows)
        out._hash = None
        return out

    # -- construction ------------------------------------------------
    @classmethod
    def identity(cls, ring, n):
        if n < 1:
            raise MatrixError(f"size must be positive, got {n}")
        z, o = ring.zero, ring.one
        return cls(ring, tuple(
            tuple(o if i == j else z for j in range(n)) for i in range(n)
        ))

    @classmethod
    def elementary(cls, ring, n, i, j, r):
        """Identity plus r in row i, column j (1-based, off-diagonal)."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise MatrixError(f"indices ({i},{j}) outside 1..{n}")
        if i == j:
            raise MatrixError("elementary matrix needs i != j")
        rows = [list(row) for row in cls.identity(ring, n).rows]
        rows[i - 1][j - 1] = r
        return cls(ring, rows)

    @classmethod
    def diagonal(cls, ring, entries):
        entries = tuple(entries)
        for e in entries:
            if not ring.is_unit(e):
                raise MatrixError(
                    f"diagonal entry {ring.element_repr(e)} is not a unit"
                )
        z = ring.zero
        n = len(entries)
        return cls(ring, tuple(
            tuple(entries[i] if i == j else z for j in range(n)) for i in range(n)
        ))

    @classmethod
    def from_rows(cls, ring, rows):
        return cls(ring, rows)

    # -- basics ------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.descriptor, self.rows))
        return self._hash

    def __repr__(self):
        er = self.ring.element_repr
        body = "; ".join(
            " ".join(er(v) for v in row) for row in self.rows
        )
        return f"[{body}]"

    def is_identity(self):
        z, o = self.ring.zero, self.ring.one
        return all(
            v == (o if i == j else z)
            for i, row in enumerate(self.rows)
            for j, v in enumerate(row)
        )

    def is_diagonal(self):
        z = self.ring.zero
        return all(
            v == z
            for i, row in enumerate(self.rows)
            for j, v in enumerate(row)
            if i != j
        )

    def diagonal_entries(self):
        return tuple(self.rows[i][i] for i in range(self.n))

    def transpose(self):
        return Matrix._trusted(self.ring, tuple(zip(*self.rows)))

    # -- arithmetic --------------------------------------------------
    def _require_compatible(self, other):
        if self.ring != other.ring:
            raise MatrixError(
                f"ring mismatch: {self.ring.descriptor} vs {other.ring.descriptor}"
            )
        if self.n != other.n:
            raise MatrixError(f"size mismatch: {self.n} vs {other.n}")

    def mul(self, other):
        self._require_compatible(other)
        add, mul, z = self.ring.add, self.ring.mul, self.ring.zero
        cols = tuple(zip(*other.rows))
        return Matrix._trusted(self.ring, tuple(
            tuple(
                reduce(add, (mul(x, y) for x, y in zip(row, col) if x != z), z)
                for col in cols
            )
            for row in self.rows
        ))

    def __matmul__(self, other):
        return self.mul(other)

    def det(self):
        """Determinant by DP over column subsets; exact over any ring."""
        R = self.ring
        n = self.n
        add, mul, neg, z = R.add, R.mul, R.neg, R.zero
        states = {0: R.one}
        for i in range(n):
            nxt = {}
            row = self.rows[i]
            for mask, val in states.items():
                if val == z:
                    continue
                for j in range(n):
                    bit = 1 << j
                    if mask & bit:
                        continue
                    a = row[j]
                    if a == z:
                        continue
                    # parity of used columns below j gives the sign
                    swaps = i + bin(mask & (bit - 1)).count("1")
                    term = mul(val, a)
                    if swaps % 2:
                        term = neg(term)
                    key = mask | bit
                    nxt[key] = add(nxt.get(key, z), term)
            states = nxt
        full = (1 << n) - 1
        return states.get(full, z)

    def inverse(self):
        R = self.ring
        inv = self._inverse_unit_pivots()
        if inv is not None:
            return inv
        d = self.det()
        dinv = R.try_inverse(d)
        if dinv is None:
            raise MatrixError(
                f"matrix is not invertible (determinant {R.element_repr(d)})"
            )
        adj = self._adjugate()
        return Matrix._trusted(R, tuple(
            tuple(R.mul(dinv, v) for v in row) for row in adj.rows
        ))

    def _inverse_unit_pivots(self):
        """Gauss-Jordan elimination of [self | 1] with a unit pivot in every
        column, or None when some column has no unit left to pivot on.

        Reaching the identity by invertible row operations proves that the
        matrix is invertible, and the inverse is unique.
        """
        R = self.ring
        n = self.n
        add, mul, neg, z = R.add, R.mul, R.neg, R.zero
        a = [
            list(row) + [R.one if i == j else z for j in range(n)]
            for i, row in enumerate(self.rows)
        ]
        for k in range(n):
            for p in range(k, n):
                pinv = None if a[p][k] == z else R.try_inverse(a[p][k])
                if pinv is not None:
                    break
            else:
                return None
            # entries left of column k are zero in rows k.. by now
            a[k], a[p] = a[p], a[k]
            pivot = a[k] = [z] * k + [mul(pinv, v) for v in a[k][k:]]
            for i in range(n):
                f = a[i][k]
                if i == k or f == z:
                    continue
                f = neg(f)
                a[i] = a[i][:k] + [
                    v if w == z else add(v, mul(f, w))
                    for v, w in zip(a[i][k:], pivot[k:])
                ]
        return Matrix._trusted(R, tuple(tuple(row[n:]) for row in a))

    def _minor(self, drop_i, drop_j):
        rows = tuple(
            tuple(v for j, v in enumerate(row) if j != drop_j)
            for i, row in enumerate(self.rows)
            if i != drop_i
        )
        return Matrix(self.ring, rows)

    def _adjugate(self):
        R = self.ring
        n = self.n
        if n == 1:
            return Matrix(R, ((R.one,),))
        out = [[R.zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                c = self._minor(j, i).det()
                if (i + j) % 2:
                    c = R.neg(c)
                out[i][j] = c
        return Matrix(R, tuple(tuple(row) for row in out))


# -- group-theoretic helpers ------------------------------------------


def conjugate_by_diagonal(d, e):
    """d e d^-1 computed entrywise for diagonal d."""
    if not d.is_diagonal():
        raise MatrixError("conjugating matrix is not diagonal")
    d._require_compatible(e)
    R = d.ring
    mul, z = R.mul, R.zero
    diag = d.diagonal_entries()
    inv = tuple(R.inverse(v) for v in diag)
    rows = tuple(
        tuple(v if v == z else mul(mul(di, v), inv[j]) for j, v in enumerate(row))
        for di, row in zip(diag, e.rows)
    )
    return Matrix._trusted(R, rows)

