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

Every check reads members as coded rows from ``elements_encoded``, or
as keys alone from ``member_keys``, and reads only the entries it tests:
membership is a mask over the code columns of those entries, and products
are batch products, product keys or entry keys from ``kernels``.  Matrix
objects appear only as the generators, which are encoded before any scan.
The checks are exhaustive scans, so they need a finite ring: over an
infinite one, ``order``, ``elements_encoded`` and ``kernels.coded_ring``
raise ``RingError`` before any product is formed.
"""

import numpy as np

from . import kernels
from .config import BudgetExceeded, get_budget
from .matrices import Matrix
from .reports import Report
from .rings import additive_presentation


class AbelsError(ValueError):
    pass


def _unit_generators(ring):
    """A generating set for the unit group, identity omitted.

    The units are scanned in ``ring.units()`` order, and a unit is kept
    only when the subgroup generated by the units kept before it misses
    it.  The unit group is abelian, so keeping u turns that subgroup S
    into the union of the cosets S*u**k.
    """
    gens, span = [], {ring.one}
    for u in ring.units():
        if u in span:
            continue
        gens.append(u)
        grown, power = set(span), u
        while power not in span:
            grown.update(ring.mul(s, power) for s in span)
            power = ring.mul(power, u)
        span = grown
    return tuple(gens)


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

    def _gate(self, budget):
        """The member count, after the one budget gate of a member scan:
        over the budget it raises ``BudgetExceeded``."""
        budget = get_budget(budget)
        total = self.order()
        if total > budget:
            raise BudgetExceeded(
                f"inconclusive-budget: {total} elements exceed budget {budget}"
            )
        return total

    def _slot_codes(self, cr):
        """(flat position, codes) of each 'f' or 'u' slot, in row-major
        order; the codes ascend."""
        choices = {"f": np.arange(cr.q, dtype=np.int64), "u": cr.unit_codes}
        return [
            (flat, choices[code])
            for flat, code in enumerate(c for row in self.pattern for c in row)
            if code in choices
        ]

    def _fixed_codes(self, cr):
        """The codes of the fixed entries: one on the '1' diagonal, zero
        elsewhere (the variable slots are overwritten)."""
        n = self.n
        out = np.full(n * n, cr.zero, np.int64)
        for i in range(n):
            if self.pattern[i][i] == "1":
                out[i * n + i] = cr.one
        return out

    def elements_encoded(self, budget=None):
        """All members as coded row vectors, ascending in packed-key order.

        Over the budget it raises ``BudgetExceeded`` before building
        anything.
        """
        total = self._gate(budget)
        cr = kernels.coded_ring(self.ring)
        out = np.tile(self._fixed_codes(cr), (total, 1))
        rep_after = total
        for flat, codes in self._slot_codes(cr):
            m = len(codes)
            rep_after //= m
            out[:, flat] = np.tile(
                np.repeat(codes, rep_after), total // (m * rep_after)
            )
        return out

    def member_keys(self, budget=None):
        """``kernels.pack_keys`` of ``elements_encoded``, ascending.

        Where the keys are int64 no codes are built: a member's key is the
        fixed entries' key plus, for each variable slot, its code times
        the slot's place value, so the keys are outer sums over the slots,
        first slot slowest.  Byte keys are packed from the members' codes.
        Over the budget it raises as ``elements_encoded`` does.
        """
        cr = kernels.coded_ring(self.ring)
        n = self.n
        if not kernels.fits_packing(cr.q, n):
            return kernels.pack_keys(cr, self.elements_encoded(budget), n)
        self._gate(budget)
        place = cr.q ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
        fixed = self._fixed_codes(cr)
        keys = np.zeros(1, np.int64)
        for flat, codes in self._slot_codes(cr):
            fixed[flat] = 0  # the slot's codes take the place of this zero
            keys = (keys[:, None] + codes * place[flat]).reshape(-1)
        keys += fixed @ place
        return keys


# -- pattern builders ----------------------------------------------------


def _spec(ring, name, diagonal, free=()):
    """Spec with the given diagonal codes and 1-based free positions."""
    n = len(diagonal)
    pat = [["0"] * n for _ in range(n)]
    for i, code in enumerate(diagonal):
        pat[i][i] = code
    for i, j in free:
        pat[i - 1][j - 1] = "f"
    return SubgroupSpec(ring, n, name, pat)


def _pinned(n):
    """Diagonal codes of the ambient group: corners one, units between."""
    return "1" + "u" * (n - 2) + "1"


def _upper(lo, hi):
    """Positions (a, b) with lo <= a < b <= hi."""
    return [(a, b) for a in range(lo, hi + 1) for b in range(a + 1, hi + 1)]


def abels_group(n, ring):
    """Ambient group: upper triangular, corner diagonal entries pinned to 1."""
    if n < 2:
        raise AbelsError(f"ambient size must be >= 2, got {n}")
    return _spec(ring, "A", _pinned(n), _upper(1, n))


def unipotent_and_torus(n, ring):
    """The unitriangular radical and the diagonal torus of the ambient group."""
    if n < 2:
        raise AbelsError(f"ambient size must be >= 2, got {n}")
    return _spec(ring, "U", "1" * n, _upper(1, n)), _spec(ring, "T", _pinned(n))


def center_subgroup(n, ring):
    """Top-corner root subgroup; elementwise the full center once n >= 3."""
    if n < 2:
        raise AbelsError(f"ambient size must be >= 2, got {n}")
    return _spec(ring, "Z", "1" * n, [(1, n)])


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
    free = {
        1: _upper(1, n - 1),
        2: _upper(2, n),
        3: [(1, 2), (n - 1, n)],
        4: [(1, 3), (2, 3), (2, 4)],
    }[i]
    return _spec(ring, f"H{i}", _pinned(n), free)


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


# -- brute-force verification ---------------------------------------------


def _entry_mask(spec, cr, cols, at):
    """True where the codes ``cols[:, k]`` of the 0-based entries ``at[k]``
    meet the spec's pattern there."""
    ok = np.ones(cols.shape[0], bool)
    for col, (i, j) in zip(cols.T, at):
        code = spec.pattern[i][j]
        if code == "0":
            ok &= col == cr.zero
        elif code == "1":
            ok &= col == cr.one
        elif code == "u":
            ok &= cr.inv[col] >= 0
    return ok


def _pattern_mask(spec, cr, vecs):
    n = spec.n
    return _entry_mask(spec, cr, vecs, [(i, j) for i in range(n) for j in range(n)])


def check_closure_matches_pattern(spec, budget=None):
    """Closure of the induced generators equals the pattern set exactly.

    Both sides are sorted keys, and a key determines its member: the
    expected side is ``member_keys``, so no member's codes are held while
    the closure runs.
    """
    cr = kernels.coded_ring(spec.ring)
    n = spec.n
    expected = spec.member_keys(budget)
    gens = spec.generators
    coded = (
        kernels.encode_matrices(cr, list(gens))
        if gens
        else np.empty((0, n * n), np.int64)
    )
    status, keys = kernels.group_closure(cr, coded, n, budget=budget)
    if status != "complete":
        raise BudgetExceeded("inconclusive-budget: closure overflowed")
    return np.array_equal(keys, expected)


def center_check(n, ring, budget=None):
    """Brute-force center of the ambient group equals the corner subgroup."""
    if n < 3:
        raise AbelsError(f"center scan needs ambient size >= 3, got {n}")
    spec = abels_group(n, ring)
    elems = spec.elements_encoded(budget)
    cr = kernels.coded_ring(ring)
    gens = kernels.encode_matrices(cr, list(spec.generators))
    mask = kernels.center_mask(cr, elems, gens, n)
    center = elems[mask]
    expected = center_subgroup(n, ring).elements_encoded(budget)
    return center.shape == expected.shape and bool((center == expected).all())


def check_torus_invariance(n, ring, budget=None):
    """Torus conjugation preserves each contracting family's pattern."""
    cr = kernels.coded_ring(ring)
    torus = unipotent_and_torus(n, ring)[1]
    diag = torus.elements_encoded(budget)[:, :: n + 1]
    left, right = diag[:, :, None], cr.inv[diag][:, None, :]
    for sub in contracting_family(n, ring):
        for g in kernels.encode_matrices(cr, list(sub.generators)):
            # (t g t^-1)[i, j] = t_i * g[i, j] * t_j^-1, for every torus t
            conj = cr.mul[cr.mul[left, g.reshape(n, n)], right]
            if not _pattern_mask(sub, cr, conj.reshape(-1, n * n)).all():
                return False
    return True


_WINDOW = ((2, 2), (2, 3), (3, 3))
# the window's entries, 0-based
_AT = tuple((i - 1, j - 1) for i, j in _WINDOW)


def _window_spec(n, ring):
    return _spec(ring, "B2window", "1uu" + "1" * (n - 3), [(2, 3)])


def _retract_codes(cr, vecs, n, window=_WINDOW):
    """Coded retractions of coded matrices, one row each: the entries at the
    1-based positions `window` are kept, the others set to the identity's."""
    flat = [(i - 1) * n + (j - 1) for i, j in window]
    out = np.tile(kernels.identity_vec(cr, n), (vecs.shape[0], 1))
    out[:, flat] = vecs[:, flat]
    return out


def check_abels_retraction(n, ring, budget=None):
    """Keeping entries (2,2), (2,3), (3,3) retracts onto the embedded block.

    Verifies the map is a homomorphism, fixes the embedded block pointwise,
    and kills the corner root subgroup.  Every member is scanned coded: the
    image of the ambient group lies in the block, the block and the torus
    map as they must, and r(g*x) = r(g)*r(x) for every generator g and
    member x; an ambient group over the budget makes the check
    inconclusive.  r(x) is the identity off the window, so no member's
    retraction is built: the window pattern is tested once on the
    identity and per member only on its window entries.  The product test
    compares only the window entries: those of g*x come from one
    ``kernels.entry_keys`` call, which keys the members once by their
    columns 2-3, and those of r(g)*r(x) are the 2 x 2 block product of
    the window entries of g and x.
    """
    if n < 4:
        raise AbelsError(f"retraction window needs ambient size >= 4, got {n}")
    amb = abels_group(n, ring)
    window = _window_spec(n, ring)
    V = amb.elements_encoded(budget)
    cr = kernels.coded_ring(ring)
    ident = kernels.identity_vec(cr, n)
    flat = [i * n + j for i, j in _AT]
    win = V[:, flat]
    # r(x) is the identity off the window, and the identity is a member
    if not (
        _pattern_mask(window, cr, ident[None]).all()
        and _entry_mask(window, cr, win, _AT).all()
    ):
        return False
    W = window.elements_encoded(budget)
    if not (_retract_codes(cr, W, n) == W).all():
        return False
    Z = center_subgroup(n, ring).elements_encoded(budget)
    if not (_retract_codes(cr, Z, n) == ident).all():
        return False
    T = unipotent_and_torus(n, ring)[1].elements_encoded(budget)
    # r(t) keeps the diagonal entries 2 and 3 of t and sets the others to one
    expected = np.tile(ident, (T.shape[0], 1))
    expected[:, [n + 1, 2 * n + 2]] = T[:, [n + 1, 2 * n + 2]]
    if not (_retract_codes(cr, T, n) == expected).all():
        return False
    # r(g*x) and r(g)*r(x) are both the identity off the block of rows and
    # columns 2-3, and zero at its entry (3,2): compare the window entries,
    # keyed as base-q integers in _WINDOW order
    gens = kernels.encode_matrices(cr, list(amb.generators))
    x22, x23, x33 = win.T
    lhs = kernels.entry_keys(cr, V, gens, n, _AT)
    for (a, b, d), left in zip(gens[:, flat], lhs):
        # [[a, b], [0, d]] * [[x22, x23], [0, x33]]
        right = (
            cr.mul[a][x22] * cr.q + cr.add[cr.mul[a][x23], cr.mul[b][x33]]
        ) * cr.q + cr.mul[d][x33]
        if not (left == right).all():
            return False
    return True


def _h4_split(cr, vecs):
    """(entry (2,4) zeroed, identity with the (2,2) and (2,4) entries)."""
    left = vecs.copy()
    left[:, 7] = cr.zero
    right = np.tile(kernels.identity_vec(cr, 4), (vecs.shape[0], 1))
    right[:, [5, 7]] = vecs[:, [5, 7]]
    return left, right


def check_h4_fiber_product(ring, budget=None):
    """The exceptional family equals the fiber product of its projections.

    Both displayed factors project onto the shared diagonal coordinate at
    (2,2); splitting a member into (entry (2,4) zeroed, diagonal-with-corner
    part) is checked to be a bijective homomorphism onto the fiber product.
    Members are coded: the fiber is counted from the (2,2) codes of the two
    factors, every member is split, rebuilt from its split, and multiplied
    by every generator.
    """
    h4 = horospherical(4, ring, 4)
    gamma1 = _spec(ring, "Gamma1", "1uu1", [(1, 3), (2, 3)])
    gamma2 = _spec(ring, "Gamma2", "1u11", [(2, 4)])
    qspec = _spec(ring, "Q", "1u11")

    budget = get_budget(budget)
    pair_count = gamma1.order() * gamma2.order()
    if max(h4.order(), pair_count) > budget:
        raise BudgetExceeded(
            f"inconclusive-budget: fiber scan needs {pair_count} pairs, "
            f"budget {budget}"
        )
    cr = kernels.coded_ring(ring)
    fiber = int(
        np.bincount(gamma1.elements_encoded(budget)[:, 5], minlength=cr.q)
        @ np.bincount(gamma2.elements_encoded(budget)[:, 5], minlength=cr.q)
    )
    if fiber != pair_count // qspec.order() or fiber != h4.order():
        return False
    V = h4.elements_encoded(budget)
    left, right = _h4_split(cr, V)
    if not (
        _pattern_mask(gamma1, cr, left).all()
        and _pattern_mask(gamma2, cr, right).all()
        and (left[:, 5] == right[:, 5]).all()
    ):
        return False
    # injective: every member is rebuilt from its split
    rebuilt = left.copy()
    rebuilt[:, 7] = right[:, 7]
    if not (rebuilt == V).all():
        return False
    for a in kernels.encode_matrices(cr, list(h4.generators)):
        la, ra = _h4_split(cr, a[None])
        lab, rab = _h4_split(cr, kernels.mul_batch_left(cr, a, V, 4))
        if not (
            (lab == kernels.mul_batch_left(cr, la[0], left, 4)).all()
            and (rab == kernels.mul_batch_left(cr, ra[0], right, 4)).all()
        ):
            return False
    return True


def check_normality(sub, amb, budget=None):
    """Conjugation by every ambient generator preserves the subgroup.

    g X g^-1 = X exactly when g*X and X*g have the same sorted keys;
    ``kernels.product_keys`` gives both sides for every generator and keys
    the members once on its key route.
    """
    if sub.n != amb.n or sub.ring.descriptor != amb.ring.descriptor:
        raise AbelsError("specs must share ambient size and ring")
    n = sub.n
    # g X g^-1 lies in the finite set X exactly when it equals X, that is
    # when gX = Xg: compare the sorted keys of both sides
    X = sub.elements_encoded(budget)
    cr = kernels.coded_ring(sub.ring)
    gens = [kernels.encode_matrix(cr, g) for g in amb.generators]
    for left, right in kernels.product_keys(cr, X, gens, n):
        if not (np.sort(left) == np.sort(right)).all():
            return False
    return True


def check_semidirect(spec, budget=None):
    """Members factor uniquely as (unitriangular part) x (diagonal part).

    Both parts must land inside the respective intersection patterns, the
    order must split multiplicatively, and the unitriangular part must be
    normal in the subgroup.  The diagonal part is tested on the members'
    diagonal codes alone, with no copy of it built.
    """
    R = spec.ring
    n = spec.n
    uamb, tamb = unipotent_and_torus(n, R)
    usub = intersections([spec, uamb])
    tsub = intersections([spec, tamb])
    if spec.order() != usub.order() * tsub.order():
        return False
    V = spec.elements_encoded(budget)
    cr = kernels.coded_ring(R)
    diag = V[:, :: n + 1]
    invd = cr.inv[diag]
    if (invd < 0).any():
        return False
    upart = cr.mul[V.reshape(-1, n, n), invd[:, None, :]].reshape(-1, n * n)
    if not _pattern_mask(usub, cr, upart).all():
        return False
    # the torus part is zero off the diagonal, which meets every
    # off-diagonal code: test its diagonal codes alone
    if not _entry_mask(tsub, cr, diag, [(k, k) for k in range(n)]).all():
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


def verify_abels(n, ring, budget=None):
    """Run the whole structural battery for one ambient size and ring."""
    rep = Report(suite="abels", config={"n": n, "ring": ring.descriptor})
    amb = abels_group(n, ring)
    uni, torus = unipotent_and_torus(n, ring)
    horo = horospherical_family(n, ring) if n >= 4 else ()
    contr = contracting_family(n, ring) if n >= 4 else ()
    for spec in (amb, uni, torus, center_subgroup(n, ring)) + horo + contr:
        rep.run(
            f"closure:{spec.name}",
            "closure-matches-pattern",
            lambda s=spec: check_closure_matches_pattern(s, budget),
            spec.order(),
        )
    for spec in (amb,) + horo:
        rep.run(
            f"factorization:{spec.name}",
            "unipotent-torus-factorization",
            lambda s=spec: check_semidirect(s, budget),
            spec.order(),
        )
    if n >= 3:
        rep.run(
            "center",
            "center-equals-corner-root",
            lambda: center_check(n, ring, budget),
            amb.order(),
        )
    rep.run(
        "normality:U",
        "unipotent-normal-in-ambient",
        lambda: check_normality(uni, amb, budget),
        uni.order(),
    )
    if n >= 4:
        rep.run(
            "torus-invariance",
            "contracting-torus-invariance",
            lambda: check_torus_invariance(n, ring, budget),
            torus.order(),
        )
        rep.run(
            "retraction",
            "window-retraction-homomorphism",
            lambda: check_abels_retraction(n, ring, budget),
            amb.order(),
        )
        meet = intersections(contr[:2])
        inner = _spec(ring, "inner", "1" * n, _upper(2, n - 1))
        rep.run(
            "contracting-meet",
            "contracting-meet-is-inner-unitriangular",
            lambda: meet.pattern == inner.pattern and meet.order() == inner.order(),
            inner.order(),
        )
        for spec in contr[2:]:
            rep.run(
                f"abelian:{spec.name}",
                "contracting-family-abelian",
                lambda s=spec: check_abelian(s, budget),
                spec.order() ** 2,
            )
    if n == 4:
        rep.run(
            "fiber-product",
            "fiber-product-bijection",
            lambda: check_h4_fiber_product(ring, budget),
            horo[3].order(),
        )
    return rep
