"""Exact commutative rings with deterministic element order.

Element values are plain Python data (ints, coefficient tuples, Fractions,
monomial tuples); all arithmetic goes through the owning ring handle, which
keeps values canonical by construction.  Finite rings expose a bijection
``encode``/``decode`` between elements and codes 0..order-1; code order is
the single deterministic element order used everywhere downstream (coset
representatives, BFS layers, report counterexamples).

Descriptor grammar accepted by `make_ring`:

    z                   the integers
    zmod:<m>            integers mod m, m >= 2
    gf:<p>              prime field on p elements (same arithmetic as
                        zmod:p but a distinct descriptor)
    polyq:<p>:<c0,...>  gf(p)[x] modulo the monic polynomial with the given
                        low-to-high coefficient list
    zloc:<m>            subring of Q with denominators supported on the
                        prime factors of m

Equality of rings is structural on descriptors: gf:5 and zmod:5 are
different rings on purpose.
"""

from dataclasses import dataclass
from fractions import Fraction


class RingError(ValueError):
    pass


def _prime_factors(m):
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _is_prime(p):
    if p < 2:
        return False
    return _prime_factors(p) == [p]


def _convolve(conv, a, b):
    """Add the coefficient convolution of a and b into conv."""
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y


class Ring:
    """Base handle.  Subclasses set `descriptor`, `finite`, `zero`, `one`.

    A ring gives element arithmetic only.  `Matrix.mul` folds `add` and
    `mul` over each row-column pair, so `LaurentRing` checks its term-count
    budget on every step; finite rings multiply in bulk through the lookup
    tables of `kernels.CodedRing`.
    """

    finite = False
    descriptor = "?"

    def __eq__(self, other):
        return isinstance(other, Ring) and self.descriptor == other.descriptor

    def __hash__(self):
        return hash(self.descriptor)

    def __repr__(self):
        return f"<ring {self.descriptor}>"

    # -- arithmetic -------------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def try_inverse(self, a):
        """Multiplicative inverse of a, or None when a is not a unit."""
        raise NotImplementedError

    def inverse(self, a):
        inv = self.try_inverse(a)
        if inv is None:
            raise RingError(f"{self.element_repr(a)} is not a unit in {self.descriptor}")
        return inv

    def is_unit(self, a):
        return self.try_inverse(a) is not None

    def power(self, a, k):
        """a**k for integer k; negative k requires a to be a unit."""
        k = int(k)
        if k < 0:
            a = self.inverse(a)
            k = -k
        out = self.one
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def characteristic(self):
        raise NotImplementedError

    def element_repr(self, a):
        return repr(a)

    # -- finite-ring enumeration ------------------------------------
    def order(self):
        raise RingError(f"{self.descriptor} is not finite")

    def elements(self):
        raise RingError(f"{self.descriptor} is not finite")

    def units(self):
        return [a for a in self.elements() if self.is_unit(a)]

    def encode(self, a):
        raise RingError(f"{self.descriptor} has no element codes")

    def decode(self, code):
        raise RingError(f"{self.descriptor} has no element codes")


class IntegerRing(Ring):
    kind = "z"
    descriptor = "z"
    finite = False
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def try_inverse(self, a):
        return a if a in (1, -1) else None

    def scale_int(self, k, a):
        return int(k) * a

    def characteristic(self):
        return 0

    def element_repr(self, a):
        return str(a)


class ZModRing(Ring):
    kind = "zmod"
    finite = True

    def __init__(self, modulus):
        modulus = int(modulus)
        if modulus < 2:
            raise RingError(f"zmod modulus must be >= 2, got {modulus}")
        self.modulus = modulus
        self.descriptor = f"zmod:{modulus}"
        self.zero = 0
        self.one = 1 % modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def try_inverse(self, a):
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            return None

    def scale_int(self, k, a):
        return (int(k) * a) % self.modulus

    def characteristic(self):
        return self.modulus

    def order(self):
        return self.modulus

    def elements(self):
        return list(range(self.modulus))

    def encode(self, a):
        return int(a)

    def decode(self, code):
        code = int(code)
        if not 0 <= code < self.modulus:
            raise RingError(f"code {code} outside 0..{self.modulus - 1}")
        return code

    def element_repr(self, a):
        return str(a)


class GFRing(ZModRing):
    kind = "gf"

    def __init__(self, p):
        p = int(p)
        if not _is_prime(p):
            raise RingError(f"gf size must be prime, got {p}")
        super().__init__(p)
        self.descriptor = f"gf:{p}"


class PolyQuotientRing(Ring):
    """gf(p)[x] modulo a monic polynomial, elements as coefficient tuples."""

    kind = "polyq"
    finite = True

    def __init__(self, p, modulus_coeffs):
        p = int(p)
        if not _is_prime(p):
            raise RingError(f"polyq base must be prime, got {p}")
        coeffs = tuple(int(c) % p for c in modulus_coeffs)
        if len(coeffs) < 2:
            raise RingError("polyq modulus must have degree >= 1")
        if coeffs[-1] != 1:
            raise RingError("polyq modulus must be monic")
        self.p = p
        self.modulus_coeffs = coeffs
        self.degree = len(coeffs) - 1
        self.descriptor = f"polyq:{p}:" + ",".join(str(c) for c in coeffs)
        self.zero = (0,) * self.degree
        self.one = tuple([1 % p] + [0] * (self.degree - 1))
        # reduction rows: x^(degree+k) expressed in the power basis
        d = self.degree
        red = []
        head = [(-c) % p for c in coeffs[:-1]]  # x^d
        red.append(tuple(head))
        for _ in range(d - 1):
            prev = red[-1]
            shifted = [0] + list(prev[: d - 1])
            carry = prev[d - 1]
            row = [(shifted[i] + carry * red[0][i]) % p for i in range(d)]
            red.append(tuple(row))
        self._reduction = red

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        conv = [0] * (2 * self.degree - 1)
        _convolve(conv, a, b)
        return self._reduce(conv)

    def _reduce(self, conv):
        """The element with integer coefficient list conv (length 2d-1)."""
        if not any(conv):
            return self.zero
        p = self.p
        d = self.degree
        out = [c % p for c in conv[:d]]
        for k in range(d, 2 * d - 1):
            c = conv[k] % p
            if c:
                row = self._reduction[k - d]
                for i in range(d):
                    out[i] = (out[i] + c * row[i]) % p
        return tuple(out)

    def try_inverse(self, a):
        if a == self.zero:
            return None
        for b in self.elements():
            if self.mul(a, b) == self.one:
                return b
        return None

    def scale_int(self, k, a):
        p = self.p
        k = int(k) % p
        return tuple((k * x) % p for x in a)

    def characteristic(self):
        return self.p

    def order(self):
        return self.p**self.degree

    def elements(self):
        return [self.decode(c) for c in range(self.order())]

    def encode(self, a):
        code = 0
        for c in reversed(a):
            code = code * self.p + c
        return code

    def decode(self, code):
        code = int(code)
        if not 0 <= code < self.order():
            raise RingError(f"code {code} outside 0..{self.order() - 1}")
        out = []
        for _ in range(self.degree):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def element_repr(self, a):
        terms = []
        for i, c in enumerate(a):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xp = "x" if i == 1 else f"x^{i}"
                terms.append(xp if c == 1 else f"{c}{xp}")
        return "+".join(terms) if terms else "0"


class LocalizedIntegersRing(Ring):
    """Subring of Q with denominators supported on the primes dividing m."""

    kind = "zloc"
    finite = False
    zero = Fraction(0)
    one = Fraction(1)

    def __init__(self, m):
        m = int(m)
        if m < 2:
            raise RingError(f"zloc parameter must be >= 2, got {m}")
        self.primes = tuple(_prime_factors(m))
        self.descriptor = f"zloc:{m}"

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def try_inverse(self, a):
        if a == 0:
            return None
        num = abs(a.numerator)
        for p in self.primes:
            while num % p == 0:
                num //= p
        if num != 1:
            return None
        return 1 / a

    def scale_int(self, k, a):
        return k * a

    def characteristic(self):
        return 0

    def element_repr(self, a):
        return str(a)


class LaurentRing(Ring):
    """Multivariate polynomials over a base ring, with chosen variables
    allowed negative exponents.

    Elements are canonical sorted tuples of (exponent-vector, coefficient)
    with nonzero coefficients.  Used internally for symbolic identity
    checking over infinite rings; not part of the descriptor grammar.
    """

    kind = "laurent"
    finite = False

    def __init__(self, base, names, unit_names=(), max_terms=100000):
        if isinstance(base, LaurentRing):
            raise RingError("laurent base must not itself be laurent")
        names = tuple(names)
        if len(set(names)) != len(names):
            raise RingError("duplicate variable names")
        unknown = set(unit_names) - set(names)
        if unknown:
            raise RingError(f"unit variables {sorted(unknown)} not among names")
        self.base = base
        self.names = names
        self.unit_names = frozenset(unit_names)
        self._unit_idx = frozenset(names.index(u) for u in unit_names)
        self.max_terms = max_terms
        self.descriptor = (
            f"laurent({base.descriptor};"
            + ",".join(n + ("^+-" if n in self.unit_names else "") for n in names)
            + ")"
        )
        self.zero = ()
        self.one = (((0,) * len(names), base.one),)

    def _make(self, term_map):
        terms = []
        for exps, c in term_map.items():
            if c != self.base.zero:
                for i, e in enumerate(exps):
                    if e < 0 and i not in self._unit_idx:
                        raise RingError(
                            f"negative exponent on non-unit variable {self.names[i]}"
                        )
                terms.append((exps, c))
        if len(terms) > self.max_terms:
            raise RingError(f"symbolic term count {len(terms)} exceeds budget")
        return tuple(sorted(terms))

    def variable(self, name):
        i = self.names.index(name)
        exps = tuple(1 if k == i else 0 for k in range(len(self.names)))
        return ((exps, self.base.one),)

    def add(self, a, b):
        out = dict(a)
        bz = self.base
        for exps, c in b:
            w = bz.add(out.get(exps, bz.zero), c)
            if w == bz.zero:
                out.pop(exps, None)
            else:
                out[exps] = w
        return self._make(out)

    def neg(self, a):
        bz = self.base
        return tuple((exps, bz.neg(c)) for exps, c in a)

    def mul(self, a, b):
        bz = self.base
        out = {}
        for ea, ca in a:
            for eb, cb in b:
                exps = tuple(x + y for x, y in zip(ea, eb))
                w = bz.add(out.get(exps, bz.zero), bz.mul(ca, cb))
                if w == bz.zero:
                    out.pop(exps, None)
                else:
                    out[exps] = w
        return self._make(out)

    def try_inverse(self, a):
        if len(a) != 1:
            return None
        exps, c = a[0]
        cinv = self.base.try_inverse(c)
        if cinv is None:
            return None
        for i, e in enumerate(exps):
            if e != 0 and i not in self._unit_idx:
                return None
        return ((tuple(-e for e in exps), cinv),)

    def scale_int(self, k, a):
        bz = self.base
        out = {}
        for exps, c in a:
            w = bz.scale_int(k, c)
            if w != bz.zero:
                out[exps] = w
        return self._make(out)

    def characteristic(self):
        return self.base.characteristic()

    def element_repr(self, a):
        if not a:
            return "0"
        parts = []
        for exps, c in a:
            factors = []
            crep = self.base.element_repr(c)
            powers = [
                (n if e == 1 else f"{n}^{e}")
                for n, e in zip(self.names, exps)
                if e
            ]
            if not powers:
                factors.append(crep)
            else:
                if crep != self.base.element_repr(self.base.one):
                    factors.append(crep)
                factors.extend(powers)
            parts.append("*".join(factors))
        return " + ".join(parts)


@dataclass(frozen=True)
class AdditivePresentation:
    """Finite additive presentation of a ring with multiplication table.

    `generators[0]` is the ring unit.  `relators` are integer rows r with
    sum_t r_t * t = 0; the additive group Z^T modulo the relator span is the
    additive group of the ring.  `products[i][j]` is an integer row a with
    generators[i]*generators[j] = sum_t a_t * t.
    """

    ring: Ring
    generators: tuple
    relators: tuple
    products: tuple


def additive_presentation(ring):
    if isinstance(ring, ZModRing):  # covers gf as well
        return AdditivePresentation(
            ring=ring,
            generators=(ring.one,),
            relators=((ring.modulus,),),
            products=(((1,),),),
        )
    if isinstance(ring, PolyQuotientRing):
        d = ring.degree
        gens = []
        for i in range(d):
            gens.append(tuple(1 if k == i else 0 for k in range(d)))
        relators = tuple(
            tuple(ring.p if k == i else 0 for k in range(d)) for i in range(d)
        )
        products = []
        for i in range(d):
            row = []
            for j in range(d):
                prod = ring.mul(gens[i], gens[j])
                row.append(tuple(int(c) for c in prod))
            products.append(tuple(row))
        return AdditivePresentation(
            ring=ring,
            generators=tuple(gens),
            relators=relators,
            products=tuple(products),
        )
    if isinstance(ring, IntegerRing):
        # free additive group on the unit; no relators
        return AdditivePresentation(
            ring=ring, generators=(1,), relators=(), products=(((1,),),)
        )
    raise RingError(f"no additive presentation for {ring.descriptor}")


def make_ring(descriptor):
    """Build a ring from a descriptor string (see module docstring)."""
    if isinstance(descriptor, Ring):
        return descriptor
    if not isinstance(descriptor, str):
        raise RingError(f"invalid ring descriptor {descriptor!r}")
    text = descriptor.strip().lower()
    if text == "z":
        return IntegerRing()
    head, _, rest = text.partition(":")
    try:
        if head == "zmod":
            return ZModRing(int(rest))
        if head == "gf":
            return GFRing(int(rest))
        if head == "zloc":
            return LocalizedIntegersRing(int(rest))
        if head == "polyq":
            p_text, _, coeff_text = rest.partition(":")
            coeffs = [int(c) for c in coeff_text.split(",") if c != ""]
            return PolyQuotientRing(int(p_text), coeffs)
    except RingError:
        raise
    except (TypeError, ValueError) as exc:
        raise RingError(f"invalid ring descriptor {descriptor!r}: {exc}") from exc
    raise RingError(f"invalid ring descriptor {descriptor!r}")
