"""Upper-triangular group schemes with pinned corner diagonal entries.

The ambient family consists of upper-triangular n x n matrices over a
commutative ring whose (1,1) and (n,n) entries equal 1 and whose remaining
diagonal entries are units.  Every distinguished subgroup handled here (the
unitriangular radical, the diagonal torus, the four horospherical families,
their contracting subgroups, and arbitrary intersections of these) is cut
out by a per-entry pattern: each position is forced zero, forced one,
restricted to units, or left free.  A SubgroupSpec couples such a pattern
with the generator family it induces; element sets are materialized lazily
and only for brute-force verification, which keeps the largest ambient
cases feasible.

Verification entry points mirror the structural facts used downstream:
closure of the induced generators recovers the pattern set, the center is
the top-corner root subgroup, contracting subgroups are invariant under
torus conjugation, the window map onto an embedded 2 x 2 Borel block is a
retraction, and the exceptional n = 4 family is the fiber product of its
two displayed projections over the shared diagonal coordinate.
"""

import itertools
from fractions import Fraction

import numpy as np

from . import kernels
from .config import BudgetExceeded, get_budget
from .matrices import Matrix
from .reports import Report
from .rings import (
    IntegerRing,
    LocalizedIntegersRing,
    RingError,
    additive_presentation,
)


class AbelsError(ValueError):
    pass


def _elements_by_code(ring):
    return [ring.decode(c) for c in range(ring.order())]


def _unit_generators(ring):
    """A generating set for the unit group, identity omitted."""
    if ring.finite:
        one = ring.one
        return tuple(
            u for u in _elements_by_code(ring) if ring.is_unit(u) and u != one
        )
    if isinstance(ring, IntegerRing):
        return (-1,)
    if isinstance(ring, LocalizedIntegersRing):
        return (Fraction(-1),) + tuple(Fraction(p) for p in ring.primes)
    raise RingError(f"no unit generating set for {ring.descriptor}")


class SubgroupSpec:
    """Entry-pattern subgroup of the pinned-corner triangular group.

    ``pattern[i][j]`` (0-based storage; the public API is 1-based) is one of

    ====  =========================  =================
    code  constraint                 where it may sit
    ====  =========================  =================
    '0'   entry forced to zero       off-diagonal
    'f'   entry free                 off-diagonal
    '1'   entry forced to one        diagonal
    'u'   entry must be a unit       diagonal
    ====  =========================  =================

    Generators are pattern-induced: one elementary matrix per free position
    and additive generator, plus one diagonal matrix per unit position and
    nontrivial unit-group generator.
    """

    __slots__ = ("ring", "n", "name", "pattern", "_gens")

    def __init__(self, ring, n, name, pattern):
        pattern = tuple(tuple(row) for row in pattern)
        if len(pattern) != n or any(len(row) != n for row in pattern):
            raise AbelsError(f"pattern must be {n}x{n}")
        for i in range(n):
            for j in range(n):
                code = pattern[i][j]
                allowed = ("1", "u") if i == j else ("0", "f")
                if code not in allowed:
                    raise AbelsError(
                        f"pattern code {code!r} not allowed at ({i + 1},{j + 1})"
                    )
        self.ring = ring
        self.n = n
        self.name = name
        self.pattern = pattern
        self._gens = None

    def __repr__(self):
        return (
            f"SubgroupSpec({self.name!r}, n={self.n}, "
            f"ring={self.ring.descriptor})"
        )

    @property
    def free_positions(self):
        return tuple(
            (i + 1, j + 1)
            for i in range(self.n)
            for j in range(self.n)
            if self.pattern[i][j] == "f"
        )

    @property
    def unit_positions(self):
        return tuple(i + 1 for i in range(self.n) if self.pattern[i][i] == "u")

    def contains(self, mat):
        if mat.ring != self.ring or mat.n != self.n:
            return False
        R = self.ring
        for i in range(self.n):
            row = mat.rows[i]
            for j in range(self.n):
                code = self.pattern[i][j]
                if code == "f":
                    continue
                v = row[j]
                if code == "0":
                    if v != R.zero:
                        return False
                elif code == "1":
                    if v != R.one:
                        return False
                elif not R.is_unit(v):
                    return False
        return True

    @property
    def generators(self):
        if self._gens is None:
            R = self.ring
            gens = []
            tset = additive_presentation(R).generators
            for i, j in self.free_positions:
                for t in tset:
                    gens.append(Matrix.elementary(R, self.n, i, j, t))
            one = R.one
            for k in self.unit_positions:
                for u in _unit_generators(R):
                    entries = [one] * self.n
                    entries[k - 1] = u
                    gens.append(Matrix.diagonal(R, entries))
            self._gens = tuple(gens)
        return self._gens

    def order(self):
        q = self.ring.order()
        nu = len(self.ring.units())
        return q ** len(self.free_positions) * nu ** len(self.unit_positions)

    def _variable_slots(self):
        slots = []
        for i in range(self.n):
            for j in range(self.n):
                code = self.pattern[i][j]
                if code in ("f", "u"):
                    slots.append((i, j, code))
        return slots

    def elements(self):
        """Yield every member, ascending in row-major entry-code order."""
        R = self.ring
        by_code = _elements_by_code(R)
        units_by_code = [a for a in by_code if R.is_unit(a)]
        slots = self._variable_slots()
        choices = [
            by_code if code == "f" else units_by_code for _, _, code in slots
        ]
        base = [
            [R.one if self.pattern[i][j] == "1" else R.zero for j in range(self.n)]
            for i in range(self.n)
        ]
        for combo in itertools.product(*choices):
            rows = [row[:] for row in base]
            for (i, j, _), v in zip(slots, combo):
                rows[i][j] = v
            yield Matrix(R, rows)

    def elements_encoded(self, budget=None):
        """All members as coded row vectors, ascending in packed-key order."""
        budget = get_budget(budget)
        total = self.order()
        if total > budget:
            raise BudgetExceeded(
                f"inconclusive-budget: {total} elements exceed budget {budget}"
            )
        cr = kernels.coded_ring(self.ring)
        n = self.n
        slots = self._variable_slots()
        out = np.full((total, n * n), cr.zero, np.int64)
        for i in range(n):
            if self.pattern[i][i] == "1":
                out[:, i * n + i] = cr.one
        rep_after = total
        for i, j, code in slots:
            codes = np.arange(cr.q, dtype=np.int64) if code == "f" else cr.unit_codes
            m = len(codes)
            rep_after //= m
            out[:, i * n + j] = np.tile(
                np.repeat(codes, rep_after), total // (m * rep_after)
            )
        return out


# -- pattern builders ----------------------------------------------------


def _blank_pattern(n):
    return [["0"] * n for _ in range(n)]


def _corner_pinned_diagonal(pat, n):
    for i in range(n):
        pat[i][i] = "1" if i in (0, n - 1) else "u"


def abels_group(n, ring):
    """Ambient group: upper triangular, corner diagonal entries pinned to 1."""
    if n < 2:
        raise AbelsError(f"ambient size must be >= 2, got {n}")
    pat = _blank_pattern(n)
    _corner_pinned_diagonal(pat, n)
    for i in range(n):
        for j in range(i + 1, n):
            pat[i][j] = "f"
    return SubgroupSpec(ring, n, "A", pat)


def unipotent_and_torus(n, ring):
    """The unitriangular radical and the diagonal torus of the ambient group."""
    if n < 2:
        raise AbelsError(f"ambient size must be >= 2, got {n}")
    upat = _blank_pattern(n)
    for i in range(n):
        upat[i][i] = "1"
        for j in range(i + 1, n):
            upat[i][j] = "f"
    tpat = _blank_pattern(n)
    _corner_pinned_diagonal(tpat, n)
    return (
        SubgroupSpec(ring, n, "U", upat),
        SubgroupSpec(ring, n, "T", tpat),
    )


def center_subgroup(n, ring):
    """Top-corner root subgroup; elementwise the full center once n >= 3."""
    if n < 2:
        raise AbelsError(f"ambient size must be >= 2, got {n}")
    pat = _blank_pattern(n)
    for i in range(n):
        pat[i][i] = "1"
    pat[0][n - 1] = "f"
    return SubgroupSpec(ring, n, "Z", pat)


def horospherical(n, ring, i):
    """The i-th horospherical family (i = 4 exists only in ambient size 4)."""
    if n < 4:
        raise AbelsError(
            f"horospherical families need ambient size >= 4, got {n}"
        )
    if i not in (1, 2, 3, 4):
        raise AbelsError(f"family index must be in 1..4, got {i}")
    if i == 4 and n != 4:
        raise AbelsError("family 4 exists only in ambient size 4")
    pat = _blank_pattern(n)
    _corner_pinned_diagonal(pat, n)
    if i == 1:
        for a in range(n - 1):
            for b in range(a + 1, n - 1):
                pat[a][b] = "f"
    elif i == 2:
        for a in range(1, n):
            for b in range(a + 1, n):
                pat[a][b] = "f"
    elif i == 3:
        pat[0][1] = "f"
        pat[n - 2][n - 1] = "f"
    else:
        pat[0][2] = "f"
        pat[1][2] = "f"
        pat[1][3] = "f"
    return SubgroupSpec(ring, n, f"H{i}", pat)


def intersections(specs):
    """Positionwise pattern meet: '1' refines 'u' and '0' refines 'f'."""
    specs = tuple(specs)
    if not specs:
        raise AbelsError("need at least one spec to intersect")
    first = specs[0]
    for s in specs[1:]:
        if s.n != first.n or s.ring.descriptor != first.ring.descriptor:
            raise AbelsError("specs must share ambient size and ring")
    n = first.n
    pat = []
    for i in range(n):
        row = []
        for j in range(n):
            codes = {s.pattern[i][j] for s in specs}
            if i == j:
                row.append("1" if "1" in codes else "u")
            else:
                row.append("0" if "0" in codes else "f")
        pat.append(row)
    name = "&".join(s.name for s in specs)
    return SubgroupSpec(first.ring, n, name, pat)


def contracting(n, ring, i):
    """Unitriangular part of the i-th horospherical family."""
    meet = intersections(
        [horospherical(n, ring, i), unipotent_and_torus(n, ring)[0]]
    )
    return SubgroupSpec(ring, n, f"U{i}", meet.pattern)


def horospherical_family(n, ring):
    """All horospherical subgroups: three members, four when n = 4."""
    count = 4 if n == 4 else 3
    return tuple(horospherical(n, ring, i) for i in range(1, count + 1))


def contracting_family(n, ring):
    """Unitriangular parts of the horospherical family."""
    count = 4 if n == 4 else 3
    return tuple(contracting(n, ring, i) for i in range(1, count + 1))


def subgroup_family(family, n, ring):
    """(ambient, members) of a named family: "horospherical" inside the
    full triangular group, "contracting" inside its unipotent part."""
    if family == "horospherical":
        return abels_group(n, ring), horospherical_family(n, ring)
    if family == "contracting":
        return unipotent_and_torus(n, ring)[0], contracting_family(n, ring)
    raise AbelsError(f"unknown family {family!r}")


def subgroup_by_name(name, n, ring):
    """Resolve a CLI token: A, U, T, Z, H1..H4, U1..U4."""
    token = str(name).strip().upper()
    if token == "A":
        return abels_group(n, ring)
    if token == "U":
        return unipotent_and_torus(n, ring)[0]
    if token == "T":
        return unipotent_and_torus(n, ring)[1]
    if token == "Z":
        return center_subgroup(n, ring)
    if len(token) == 2 and token[0] in ("H", "U") and token[1].isdigit():
        idx = int(token[1])
        if 1 <= idx <= 4:
            if token[0] == "H":
                return horospherical(n, ring, idx)
            return contracting(n, ring, idx)
    raise AbelsError(f"unknown subgroup name {name!r}")


# -- brute-force verification ---------------------------------------------


def _pattern_mask(spec, cr, vecs):
    n = spec.n
    ok = np.ones(vecs.shape[0], bool)
    for i in range(n):
        for j in range(n):
            code = spec.pattern[i][j]
            if code == "f":
                continue
            col = vecs[:, i * n + j]
            if code == "0":
                ok &= col == cr.zero
            elif code == "1":
                ok &= col == cr.one
            else:
                ok &= cr.inv[col] >= 0
    return ok


def check_closure_matches_pattern(spec, budget=None):
    """Closure of the induced generators equals the pattern set exactly."""
    budget = get_budget(budget)
    total = spec.order()
    if total > budget:
        raise BudgetExceeded(
            f"inconclusive-budget: pattern set has {total} elements, "
            f"budget {budget}"
        )
    cr = kernels.coded_ring(spec.ring)
    n = spec.n
    gens = spec.generators
    coded = (
        kernels.encode_matrices(cr, list(gens))
        if gens
        else np.empty((0, n * n), np.int64)
    )
    status, elems, _ = kernels.group_closure(cr, coded, n, budget=budget)
    if status != "complete":
        raise BudgetExceeded("inconclusive-budget: closure overflowed")
    expected = spec.elements_encoded(budget)
    return elems.shape == expected.shape and bool((elems == expected).all())


def center_check(n, ring, budget=None):
    """Brute-force center of the ambient group equals the corner subgroup."""
    if n < 3:
        raise AbelsError(f"center scan needs ambient size >= 3, got {n}")
    spec = abels_group(n, ring)
    budget = get_budget(budget)
    total = spec.order()
    if total > budget:
        raise BudgetExceeded(
            f"inconclusive-budget: group order {total} exceeds budget {budget}"
        )
    cr = kernels.coded_ring(ring)
    elems = spec.elements_encoded(budget)
    gens = kernels.encode_matrices(cr, list(spec.generators))
    mask = kernels.center_mask(cr, elems, gens, n)
    center = elems[mask]
    expected = center_subgroup(n, ring).elements_encoded(budget)
    return center.shape == expected.shape and bool((center == expected).all())


def check_torus_invariance(n, ring):
    """Torus conjugation preserves each contracting family's pattern."""
    torus = unipotent_and_torus(n, ring)[1]
    families = [1, 2, 3] + ([4] if n == 4 else [])
    for idx in families:
        sub = contracting(n, ring, idx)
        gens = sub.generators
        for t in torus.elements():
            tinv = t.inverse()
            for g in gens:
                if not sub.contains(t.mul(g).mul(tinv)):
                    return False
    return True


_WINDOW = ((2, 2), (2, 3), (3, 3))


def _window_spec(n, ring):
    pat = _blank_pattern(n)
    for i in range(n):
        pat[i][i] = "u" if i in (1, 2) else "1"
    pat[1][2] = "f"
    return SubgroupSpec(ring, n, "B2window", pat)


def _retract(mat):
    R = mat.ring
    n = mat.n
    rows = [list(r) for r in Matrix.identity(R, n).rows]
    for i, j in _WINDOW:
        rows[i - 1][j - 1] = mat.entry(i, j)
    return Matrix(R, rows)


def _window_flat(n):
    return [(i - 1) * n + (j - 1) for i, j in _WINDOW]


def _retract_codes(cr, window, n):
    """Coded retractions from the window entries, one row per matrix."""
    out = np.full((window.shape[0], n * n), cr.zero, np.int64)
    out[:, :: n + 1] = cr.one
    out[:, _window_flat(n)] = window
    return out


def check_abels_retraction(n, ring, budget=None):
    """Keeping entries (2,2), (2,3), (3,3) retracts onto the embedded block.

    Verifies the map is a homomorphism (exhaustively, generator times every
    element, when the coded scan fits the budget; on generator pairs
    otherwise), fixes the embedded block pointwise, and kills the corner
    root subgroup.
    """
    if n < 4:
        raise AbelsError(f"retraction window needs ambient size >= 4, got {n}")
    amb = abels_group(n, ring)
    window = _window_spec(n, ring)
    gens = [Matrix.identity(ring, n)] + list(amb.generators)
    for x in gens:
        rx = _retract(x)
        if not window.contains(rx):
            return False
        for y in gens:
            if _retract(x.mul(y)) != rx.mul(_retract(y)):
                return False
    if ring.finite:
        fixed = list(window.elements())
        corner = [
            Matrix.elementary(ring, n, 1, n, r) for r in ring.elements()
        ]
        diag_only = list(unipotent_and_torus(n, ring)[1].elements())
    else:
        fixed = list(window.generators) + [Matrix.identity(ring, n)]
        corner = [
            Matrix.elementary(ring, n, 1, n, t)
            for t in additive_presentation(ring).generators
        ]
        diag_only = []
    for b in fixed:
        if _retract(b) != b:
            return False
    for e in corner:
        if not _retract(e).is_identity():
            return False
    for t in diag_only:
        expected = Matrix.diagonal(
            ring,
            tuple(
                t.entry(k, k) if k in (2, 3) else ring.one
                for k in range(1, n + 1)
            ),
        )
        if _retract(t) != expected:
            return False
    if ring.finite:
        budget = get_budget(budget)
        total = amb.order()
        if total <= budget:
            cr = kernels.coded_ring(ring)
            V = amb.elements_encoded(budget)
            flat = _window_flat(n)
            RV = _retract_codes(cr, V[:, flat], n)
            # r(g*x) and r(g)*r(x) are both the identity off the block of
            # rows and columns 2-3, and zero at its entry (3,2): compare the
            # window entries of that block, laid out row-major
            block = [2 * (i - 2) + (j - 2) for i, j in _WINDOW]
            for g in amb.generators:
                gv = kernels.encode_matrix(cr, g)
                window = kernels.mul_batch_left(cr, gv, V, n, rows=(1, 2), cols=(1, 2))
                rg = _retract_codes(cr, gv[None, flat], n)[0]
                rhs = kernels.mul_batch_left(cr, rg, RV, n, rows=(1, 2), cols=(1, 2))
                if not (window[:, block] == rhs[:, block]).all():
                    return False
    return True


def check_h4_fiber_product(ring, budget=None):
    """The exceptional family equals the fiber product of its projections.

    Both displayed factors project onto the shared diagonal coordinate at
    (2,2); splitting a member into (entry (2,4) zeroed, diagonal-with-corner
    part) is checked to be a bijective homomorphism onto the fiber product.
    """
    h4 = horospherical(4, ring, 4)
    g1pat = _blank_pattern(4)
    for i, code in enumerate("1uu1"):
        g1pat[i][i] = code
    g1pat[0][2] = "f"
    g1pat[1][2] = "f"
    gamma1 = SubgroupSpec(ring, 4, "Gamma1", g1pat)
    g2pat = _blank_pattern(4)
    for i, code in enumerate("1u11"):
        g2pat[i][i] = code
    g2pat[1][3] = "f"
    gamma2 = SubgroupSpec(ring, 4, "Gamma2", g2pat)
    qpat = _blank_pattern(4)
    for i, code in enumerate("1u11"):
        qpat[i][i] = code
    qspec = SubgroupSpec(ring, 4, "Q", qpat)

    budget = get_budget(budget)
    pair_count = gamma1.order() * gamma2.order()
    if max(h4.order(), pair_count) > budget:
        raise BudgetExceeded(
            f"inconclusive-budget: fiber scan needs {pair_count} pairs, "
            f"budget {budget}"
        )
    fiber = set()
    for g in gamma1.elements():
        for h in gamma2.elements():
            if g.entry(2, 2) == h.entry(2, 2):
                fiber.add((g, h))
    if len(fiber) != pair_count // qspec.order():
        return False
    if len(fiber) != h4.order():
        return False

    R = ring

    def split(m):
        rows = [list(r) for r in m.rows]
        corner = rows[1][3]
        rows[1][3] = R.zero
        left = Matrix(R, rows)
        right_rows = [list(r) for r in Matrix.identity(R, 4).rows]
        right_rows[1][1] = m.entry(2, 2)
        right_rows[1][3] = corner
        return left, Matrix(R, right_rows)

    members = list(h4.elements())
    images = set()
    for m in members:
        pair = split(m)
        if pair not in fiber:
            return False
        images.add(pair)
    if len(images) != len(members) or len(images) != len(fiber):
        return False
    ident = Matrix.identity(R, 4)
    if split(ident) != (ident, ident):
        return False
    for a in h4.generators:
        la, ra = split(a)
        for b in members:
            lb, rb = split(b)
            lab, rab = split(a.mul(b))
            if lab != la.mul(lb) or rab != ra.mul(rb):
                return False
    return True


def check_normality(sub, amb, budget=None):
    """Conjugation by every ambient generator preserves the subgroup."""
    if sub.n != amb.n or sub.ring.descriptor != amb.ring.descriptor:
        raise AbelsError("specs must share ambient size and ring")
    R = sub.ring
    n = sub.n
    if not R.finite:
        # inverses included: containment under a monoid of conjugations
        # does not bootstrap to the whole group in the infinite case
        probes = []
        for g in amb.generators:
            probes.extend((g, g.inverse()))
        for g in probes:
            gi = g.inverse()
            for x in sub.generators:
                if not sub.contains(g.mul(x).mul(gi)):
                    return False
        return True
    budget = get_budget(budget)
    total = sub.order()
    if total > budget:
        raise BudgetExceeded(
            f"inconclusive-budget: subgroup order {total} exceeds budget {budget}"
        )
    cr = kernels.coded_ring(R)
    X = sub.elements_encoded(budget)
    for g in amb.generators:
        gv = kernels.encode_matrix(cr, g)
        giv = kernels.encode_matrix(cr, g.inverse())
        conj = kernels.mul_batch_right(
            cr, kernels.mul_batch_left(cr, gv, X, n), giv, n
        )
        if not _pattern_mask(sub, cr, conj).all():
            return False
    return True


def check_semidirect(spec, budget=None):
    """Members factor uniquely as (unitriangular part) x (diagonal part).

    Both parts must land inside the respective intersection patterns, the
    order must split multiplicatively, and the unitriangular part must be
    normal in the subgroup.
"""
    R = spec.ring
    n = spec.n
    uamb, tamb = unipotent_and_torus(n, R)
    usub = intersections([spec, uamb])
    tsub = intersections([spec, tamb])
    if spec.order() != usub.order() * tsub.order():
        return False
    budget = get_budget(budget)
    total = spec.order()
    if total > budget:
        raise BudgetExceeded(
            f"inconclusive-budget: group order {total} exceeds budget {budget}"
        )
    cr = kernels.coded_ring(R)
    V = spec.elements_encoded(budget)
    diag = V[:, :: n + 1]
    invd = cr.inv[diag]
    if (invd < 0).any():
        return False
    upart = np.empty_like(V)
    for j in range(n):
        upart[:, j::n] = cr.mul[V[:, j::n], invd[:, j][:, None]]
    tpart = np.full_like(V, cr.zero)
    tpart[:, :: n + 1] = diag
    if not _pattern_mask(usub, cr, upart).all():
        return False
    if not _pattern_mask(tsub, cr, tpart).all():
        return False
    return check_normality(usub, spec, budget)


def check_abelian(spec, budget=None):
    """All pairs of members commute."""
    budget = get_budget(budget)
    total = spec.order()
    if total * total > budget:
        raise BudgetExceeded(
            f"inconclusive-budget: {total * total} pairs exceed budget {budget}"
        )
    cr = kernels.coded_ring(spec.ring)
    X = spec.elements_encoded(budget)
    return bool(kernels.center_mask(cr, X, X, spec.n).all())


def _inner_unitriangular_pattern(n):
    pat = _blank_pattern(n)
    for i in range(n):
        pat[i][i] = "1"
    for a in range(1, n - 1):
        for b in range(a + 1, n - 1):
            pat[a][b] = "f"
    return tuple(tuple(row) for row in pat)


def verify_abels(n, ring, budget=None):
    """Run the whole structural battery for one ambient size and ring."""
    rep = Report(suite="abels", config={"n": n, "ring": ring.descriptor})

    families = [1, 2, 3] + ([4] if n == 4 else [])
    specs = [abels_group(n, ring)]
    specs.extend(unipotent_and_torus(n, ring))
    specs.append(center_subgroup(n, ring))
    if n >= 4:
        for i in families:
            specs.append(horospherical(n, ring, i))
            specs.append(contracting(n, ring, i))
    for spec in specs:
        rep.run(
            f"closure:{spec.name}",
            "closure-matches-pattern",
            lambda s=spec: check_closure_matches_pattern(s, budget),
            spec.order(),
        )
    rep.run(
        "factorization:A",
        "unipotent-torus-factorization",
        lambda: check_semidirect(abels_group(n, ring), budget),
        abels_group(n, ring).order(),
    )
    if n >= 4:
        for i in families:
            rep.run(
                f"factorization:H{i}",
                "unipotent-torus-factorization",
                lambda k=i: check_semidirect(horospherical(n, ring, k), budget),
                horospherical(n, ring, i).order(),
            )
    if n >= 3:
        rep.run(
            "center",
            "center-equals-corner-root",
            lambda: center_check(n, ring, budget),
            abels_group(n, ring).order(),
        )
    rep.run(
        "normality:U",
        "unipotent-normal-in-ambient",
        lambda: check_normality(
            unipotent_and_torus(n, ring)[0], abels_group(n, ring), budget
        ),
        unipotent_and_torus(n, ring)[0].order(),
    )
    if n >= 4:
        torus_cases = unipotent_and_torus(n, ring)[1].order()
        rep.run(
            "torus-invariance",
            "contracting-torus-invariance",
            lambda: check_torus_invariance(n, ring),
            torus_cases,
        )
        rep.run(
            "retraction",
            "window-retraction-homomorphism",
            lambda: check_abels_retraction(n, ring, budget),
            abels_group(n, ring).order(),
        )
        meet = intersections([contracting(n, ring, 1), contracting(n, ring, 2)])
        inner = _inner_unitriangular_pattern(n)
        expected_order = ring.order() ** ((n - 2) * (n - 3) // 2)
        rep.run(
            "contracting-meet",
            "contracting-meet-is-inner-unitriangular",
            lambda: meet.pattern == inner and meet.order() == expected_order,
            expected_order,
        )
        rep.run(
            "abelian:U3",
            "contracting-family-abelian",
            lambda: check_abelian(contracting(n, ring, 3), budget),
            contracting(n, ring, 3).order() ** 2,
        )
    if n == 4:
        rep.run(
            "abelian:U4",
            "contracting-family-abelian",
            lambda: check_abelian(contracting(n, ring, 4), budget),
            contracting(n, ring, 4).order() ** 2,
        )
        rep.run(
            "fiber-product",
            "fiber-product-bijection",
            lambda: check_h4_fiber_product(ring, budget),
            horospherical(4, ring, 4).order(),
        )
    return rep
