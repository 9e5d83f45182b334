"""Root systems and explicit small-rank matrix group models.

Eight types are tabulated (A1, A2, A3, C2, C3, B3, D4, G2).  Each model
stores, per tabulated root, a display: a list of (row, col, coeff, power)
entries added to the identity matrix, with the parameter raised to the
given power and scaled by the integer coeff.  Negative-root displays are
the transposes of the positive ones.  Semisimple elements are diagonal
matrices with tabulated exponent vectors.

The check_* functions verify, exhaustively over finite rings or
symbolically over infinite ones, the defining identities of these groups:
one-parameter additivity, torus conjugation scaling, Weyl reflection
conjugation with constant signs, invariant bilinear forms, and the
factorizations of the Borel-type subgroups into two-by-two blocks.
Break-on-first sweeps are lazy generators run by `reports.first_failure`.
Both factorization checks, `borel_isomorphism_check` (a root subgroup
times the displayed torus) and `borel_gln_check` (an elementary position
times the diagonal of GL_n), supply a source, a map phi and a target kind
of `affine_groups` to one body, `_factorization_checks`, which writes the
six records and samples the source pairs past `_PAIR_BUDGET`.
"""

import itertools
from dataclasses import dataclass

from .matrices import Matrix, conjugate_by_diagonal
from .reports import INCONCLUSIVE, Report, first_failure
from .rings import (
    LaurentRing,
    RingError,
    ZModRing,
    additive_presentation,
    _is_prime,
)


class ChevalleyError(ValueError):
    pass


SUPPORTED_LABELS = ("A1", "A2", "A3", "C2", "C3", "B3", "D4", "G2")

_SIMPLE_ROOTS = {
    "A1": ((1, -1),),
    "A2": ((1, -1, 0), (0, 1, -1)),
    "A3": ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)),
    "C2": ((1, -1), (0, 2)),
    "C3": ((1, -1, 0), (0, 1, -1), (0, 0, 2)),
    "B3": ((1, -1, 0), (0, 1, -1), (0, 0, 1)),
    "D4": ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)),
    # long root first, then short
    "G2": ((-2, 1, 1), (1, -1, 0)),
}

ROOT_COUNTS = {
    "A1": 2,
    "A2": 6,
    "A3": 12,
    "C2": 8,
    "C3": 18,
    "B3": 18,
    "D4": 24,
    "G2": 12,
}


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _neg(a):
    return tuple(-x for x in a)


def cartan_pairing(a, b):
    """2<a,b>/<b,b>, exact integer."""
    num = 2 * _dot(a, b)
    den = _dot(b, b)
    if num % den:
        raise ChevalleyError(f"non-integral pairing of {a} against {b}")
    return num // den


def reflect(alpha, beta):
    """Image of beta under the reflection orthogonal to alpha."""
    c = cartan_pairing(beta, alpha)
    return tuple(b - c * a for a, b in zip(alpha, beta))


@dataclass(frozen=True)
class RootDatum:
    label: str
    simples: tuple
    roots: tuple

    def reflection_permutation(self, alpha):
        index = {r: k for k, r in enumerate(self.roots)}
        try:
            return tuple(index[reflect(tuple(alpha), r)] for r in self.roots)
        except KeyError as exc:
            raise ChevalleyError(f"reflection leaves the root set: {exc}") from None


def root_system(label):
    try:
        simples = _SIMPLE_ROOTS[label]
    except KeyError:
        raise ChevalleyError(f"unsupported-label: {label!r}") from None
    roots = set(simples) | {_neg(s) for s in simples}
    while True:
        new = {reflect(s, r) for s in simples for r in roots} - roots
        if not new:
            break
        roots |= new
    return RootDatum(label, simples, tuple(sorted(roots)))


# Model tables.  Displays are 1-based (row, col, coeff, power) entries per
# positive root; h exponent vectors are per simple root; torus rows give
# the diagonal exponents of each independent torus parameter.
_MODEL_TABLES = {
    "C2": dict(
        n=4,
        displays={
            (1, -1): ((1, 2, 1, 1), (4, 3, -1, 1)),
            (0, 2): ((2, 4, 1, 1),),
        },
        h={
            (1, -1): (1, -1, -1, 1),
            (0, 2): (0, 1, 0, -1),
        },
        torus=((1, 0, -1, 0), (0, 1, 0, -1)),
    ),
    "C3": dict(
        n=6,
        displays={
            (1, -1, 0): ((1, 2, 1, 1), (5, 4, -1, 1)),
            (0, 1, -1): ((2, 3, 1, 1), (6, 5, -1, 1)),
            (0, 0, 2): ((3, 6, 1, 1),),
        },
        h={
            (1, -1, 0): (1, -1, 0, -1, 1, 0),
            (0, 1, -1): (0, 1, -1, 0, -1, 1),
            (0, 0, 2): (0, 0, 1, 0, 0, -1),
        },
        torus=(
            (1, 0, 0, -1, 0, 0),
            (0, 1, 0, 0, -1, 0),
            (0, 0, 1, 0, 0, -1),
        ),
    ),
    "B3": dict(
        n=7,
        displays={
            (1, -1, 0): ((2, 3, 1, 1), (6, 5, -1, 1)),
            (0, 1, -1): ((3, 4, 1, 1), (7, 6, -1, 1)),
            (0, 0, 1): ((4, 1, 2, 1), (1, 7, -1, 1), (4, 7, -1, 2)),
        },
        # the short-root lowering display is the mirrored exponential, not
        # the transpose: the coefficient 2 moves to the other linear entry
        neg_displays={
            (0, 0, -1): ((1, 4, 1, 1), (7, 1, -2, 1), (7, 4, -1, 2)),
        },
        h={
            (1, -1, 0): (0, 1, -1, 0, -1, 1, 0),
            (0, 1, -1): (0, 0, 1, -1, 0, -1, 1),
            (0, 0, 1): (0, 0, 0, 2, 0, 0, -2),
        },
        torus=(
            (0, 1, 0, 0, -1, 0, 0),
            (0, 0, 1, 0, 0, -1, 0),
            (0, 0, 0, 1, 0, 0, -1),
        ),
    ),
    "D4": dict(
        n=8,
        displays={
            (1, -1, 0, 0): ((1, 2, 1, 1), (6, 5, -1, 1)),
            (0, 1, -1, 0): ((2, 3, 1, 1), (7, 6, -1, 1)),
            (0, 0, 1, -1): ((3, 4, 1, 1), (8, 7, -1, 1)),
            (0, 0, 1, 1): ((3, 8, 1, 1), (4, 7, -1, 1)),
        },
        h={
            (1, -1, 0, 0): (1, -1, 0, 0, -1, 1, 0, 0),
            (0, 1, -1, 0): (0, 1, -1, 0, 0, -1, 1, 0),
            (0, 0, 1, -1): (0, 0, 1, -1, 0, 0, -1, 1),
            (0, 0, 1, 1): (0, 0, 1, 1, 0, 0, -1, -1),
        },
        torus=(
            (1, 0, 0, 0, -1, 0, 0, 0),
            (0, 1, 0, 0, 0, -1, 0, 0),
            (0, 0, 1, 0, 0, 0, -1, 0),
            (0, 0, 0, 1, 0, 0, 0, -1),
        ),
    ),
    "G2": dict(
        n=7,
        displays={
            (-2, 1, 1): ((2, 3, 1, 1), (6, 5, -1, 1)),
            (1, -1, 0): (
                (1, 2, 2, 1),
                (3, 7, 1, 1),
                (4, 6, -1, 1),
                (5, 1, -1, 1),
                (5, 2, -1, 2),
            ),
        },
        neg_displays={
            (-1, 1, 0): (
                (2, 1, 1, 1),
                (7, 3, 1, 1),
                (6, 4, -1, 1),
                (1, 5, -2, 1),
                (2, 5, -1, 2),
            ),
        },
        h={
            (-2, 1, 1): (0, 1, -1, 0, -1, 1, 0),
            (1, -1, 0): (0, -2, 1, 1, 2, -1, -1),
        },
        torus=((0, 1, 0, -1, -1, 0, 1), (0, 0, 1, -1, 0, -1, 1)),
    ),
}

_A_AMBIENT = {"A1": 2, "A2": 3, "A3": 4}


def _a_type_tables(label):
    m = _A_AMBIENT[label]
    displays = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            vec = tuple(1 if k == i else -1 if k == j else 0 for k in range(1, m + 1))
            displays[vec] = ((i, j, 1, 1),)
    h = {s: s for s in _SIMPLE_ROOTS[label]}
    torus = _SIMPLE_ROOTS[label]
    return dict(n=m, displays=displays, h=h, torus=torus)


class MatrixModel:
    """Immutable tabulated model of one group type over one ring."""

    def __init__(self, label, ring, system, n, displays, h_exps, torus_rows,
                 neg_displays=None):
        self.label = label
        self.ring = ring
        self.system = system
        self.n = n
        self._displays = displays
        self._neg_displays = dict(neg_displays or {})
        self._h_exps = h_exps
        self.torus_rows = torus_rows
        self._weyl_signs = {}

    @property
    def tabulated_roots(self):
        pos = tuple(self._displays)
        return pos + tuple(_neg(r) for r in pos)

    def display(self, root):
        root = tuple(root)
        if root in self._displays:
            return self._displays[root]
        if root in self._neg_displays:
            return self._neg_displays[root]
        neg = _neg(root)
        if neg in self._displays:
            return tuple((j, i, c, p) for (i, j, c, p) in self._displays[neg])
        raise ChevalleyError(f"unknown-root: {root} is not tabulated for {self.label}")

    def h_exponents(self, root):
        root = tuple(root)
        if root in self._h_exps:
            return self._h_exps[root]
        neg = _neg(root)
        if neg in self._h_exps:
            return _neg(self._h_exps[neg])
        raise ChevalleyError(
            f"unknown-root: no semisimple display for {root} in {self.label}"
        )

    def __repr__(self):
        return f"MatrixModel({self.label}, {self.ring.descriptor}, n={self.n})"


def matrix_model(label, ring):
    if label not in SUPPORTED_LABELS:
        raise ChevalleyError(f"unsupported-label: {label!r}")
    if label in ("B3", "G2") and ring.characteristic() == 2:
        raise ChevalleyError(
            f"char-2-unsupported: the {label} model needs a ring of "
            "characteristic different from 2"
        )
    table = _MODEL_TABLES[label] if label in _MODEL_TABLES else _a_type_tables(label)
    system = root_system(label)
    return MatrixModel(
        label,
        ring,
        system,
        table["n"],
        dict(table["displays"]),
        dict(table["h"]),
        tuple(table["torus"]),
        table.get("neg_displays"),
    )


def _resolve_model(model, ring=None):
    if isinstance(model, MatrixModel):
        if ring is None or ring.descriptor == model.ring.descriptor:
            return model
        return matrix_model(model.label, ring)
    if ring is None:
        raise ChevalleyError("a ring is required when passing a type label")
    return matrix_model(model, ring)


def root_element(model, alpha, r):
    R = model.ring
    disp = model.display(alpha)
    rows = [
        [R.one if i == j else R.zero for j in range(model.n)] for i in range(model.n)
    ]
    for (i, j, coeff, power) in disp:
        rows[i - 1][j - 1] = R.scale_int(coeff, R.power(r, power))
    return Matrix.from_rows(R, rows)


def semisimple_element(model, alpha, u):
    R = model.ring
    if not R.is_unit(u):
        raise ChevalleyError(f"non-unit: {R.element_repr(u)}")
    exps = model.h_exponents(alpha)
    return Matrix.diagonal(R, [R.power(u, k) for k in exps])


def torus_element(model, units):
    R = model.ring
    units = tuple(units)
    if len(units) != len(model.torus_rows):
        raise ChevalleyError(
            f"torus of {model.label} takes {len(model.torus_rows)} parameters"
        )
    for u in units:
        if not R.is_unit(u):
            raise ChevalleyError(f"non-unit: {R.element_repr(u)}")
    entries = []
    for pos in range(model.n):
        val = R.one
        for u, row in zip(units, model.torus_rows):
            if row[pos]:
                val = R.mul(val, R.power(u, row[pos]))
        entries.append(val)
    return Matrix.diagonal(R, entries)


def weyl_element(model, alpha):
    one = model.ring.one
    a = root_element(model, alpha, one)
    b = root_element(model, _neg(tuple(alpha)), one)
    return a @ b.inverse() @ a


def _rname(root):
    return "(" + ",".join(str(x) for x in root) + ")"


def _h_diagonal(model, beta, u):
    R = model.ring
    return Matrix.diagonal(R, [R.power(u, k) for k in model.h_exponents(beta)])


# ---------------------------------------------------------------------------
# Steinberg relations


def _record(rep, check_id, anchor, cases, bad):
    """Record a check of `cases` cases whose first failure is `bad`."""
    return rep.check(
        check_id,
        anchor,
        counts={"cases": cases, "failures": 1 if bad else 0},
        counterexample=bad,
    )


def _record_sweep(rep, check_id, anchor, results):
    """Record a break-on-first sweep: its case count and first failure."""
    return _record(rep, check_id, anchor, *first_failure(results))


def _steinberg_finite(model, rep):
    R = model.ring
    enc = R.encode
    elements = R.elements()
    units = R.units()
    ident = Matrix.identity(R, model.n)
    cache = {
        alpha: {enc(r): root_element(model, alpha, r) for r in elements}
        for alpha in model.tabulated_roots
    }

    for alpha in model.tabulated_roots:
        xs = cache[alpha]
        identity = "x(0) is not the identity" if xs[enc(R.zero)] != ident else None
        additive = (
            None
            if xs[enc(r)] @ xs[enc(s)] == xs[enc(R.add(r, s))]
            else f"r={R.element_repr(r)} s={R.element_repr(s)}"
            for r in elements
            for s in elements
        )
        _record_sweep(
            rep,
            f"one-parameter-additivity:{_rname(alpha)}",
            "root-subgroup-additivity",
            itertools.chain([identity], additive),
        )

    h_roots = model.system.simples + tuple(_neg(s) for s in model.system.simples)
    hs = {
        beta: {enc(u): _h_diagonal(model, beta, u) for u in units} for beta in h_roots
    }
    for beta in h_roots:
        hb = hs[beta]
        identity = "h(1) is not the identity" if hb[enc(R.one)] != ident else None
        multiplicative = (
            None
            if hb[enc(u)] @ hb[enc(v)] == hb[enc(R.mul(u, v))]
            else f"u={R.element_repr(u)} v={R.element_repr(v)}"
            for u in units
            for v in units
        )
        _record_sweep(
            rep,
            f"torus-multiplicativity:{_rname(beta)}",
            "semisimple-multiplicativity",
            itertools.chain([identity], multiplicative),
        )

    for alpha in model.tabulated_roots:
        xs = cache[alpha]
        for beta in h_roots:
            pairing = cartan_pairing(alpha, beta)
            _record_sweep(
                rep,
                f"torus-conjugation:{_rname(alpha)}|{_rname(beta)}",
                "torus-conjugation-scaling",
                (
                    None
                    if conjugate_by_diagonal(hs[beta][enc(u)], xs[enc(r)])
                    == xs[enc(R.mul(R.power(u, pairing), r))]
                    else f"u={R.element_repr(u)} r={R.element_repr(r)} "
                    f"pairing={pairing}"
                    for u in units
                    for r in elements
                ),
            )

    if model.label == "G2":
        _g2_torus_display(model, rep, cache)


def _g2_torus_display(model, rep, cache):
    """The two-parameter diagonal torus conjugates the short root display
    entrywise: entries 2t, t, -t, -t, -t^2 at fixed positions, t = r/u."""
    R = model.ring
    xs = cache[(1, -1, 0)]

    def expected(t):
        rows = [[R.one if i == j else R.zero for j in range(7)] for i in range(7)]
        rows[0][1] = R.scale_int(2, t)
        rows[2][6] = t
        rows[3][5] = R.neg(t)
        rows[4][0] = R.neg(t)
        rows[4][1] = R.neg(R.mul(t, t))
        return Matrix.from_rows(R, rows)

    def results():
        for u in R.units():
            ui = R.inverse(u)
            for v in R.units():
                d = torus_element(model, (u, v))
                for r in R.elements():
                    t = R.mul(ui, r)
                    lhs = conjugate_by_diagonal(d, xs[R.encode(r)])
                    if lhs == expected(t) and lhs == xs[R.encode(t)]:
                        yield None
                    else:
                        yield (
                            f"u={R.element_repr(u)} v={R.element_repr(v)} "
                            f"r={R.element_repr(r)}"
                        )

    _record_sweep(
        rep, "torus-display-conjugation", "two-parameter-torus-display", results()
    )


def _steinberg_symbolic(model, rep):
    base = model.ring
    try:
        L = LaurentRing(base, ("u", "r", "s"), unit_names=("u",))
        sym = matrix_model(model.label, L)
        u = L.variable("u")
        r = L.variable("r")
        s = L.variable("s")
        ident = Matrix.identity(L, sym.n)
        for alpha in sym.tabulated_roots:
            ok = (
                root_element(sym, alpha, L.zero) == ident
                and root_element(sym, alpha, r) @ root_element(sym, alpha, s)
                == root_element(sym, alpha, L.add(r, s))
            )
            _record(
                rep,
                f"one-parameter-additivity:{_rname(alpha)}",
                "root-subgroup-additivity",
                1,
                None if ok else "symbolic additivity mismatch",
            )
        h_roots = sym.system.simples + tuple(_neg(x) for x in sym.system.simples)
        for alpha in sym.tabulated_roots:
            xr = root_element(sym, alpha, r)
            for beta in h_roots:
                pairing = cartan_pairing(alpha, beta)
                h = _h_diagonal(sym, beta, u)
                lhs = conjugate_by_diagonal(h, xr)
                rhs = root_element(sym, alpha, L.mul(L.power(u, pairing), r))
                ok = lhs == rhs
                _record(
                    rep,
                    f"torus-conjugation:{_rname(alpha)}|{_rname(beta)}",
                    "torus-conjugation-scaling",
                    1,
                    None if ok else f"symbolic mismatch, pairing={pairing}",
                )
    except RingError as exc:
        rep.check(
            "symbolic-budget",
            "symbolic-term-budget",
            INCONCLUSIVE,
            counts={"cases": 0},
        )
        rep.config["budget_note"] = str(exc)


def check_steinberg(model, ring=None):
    model = _resolve_model(model, ring)
    rep = Report(
        "steinberg", {"type": model.label, "ring": model.ring.descriptor}
    )
    if model.ring.finite:
        _steinberg_finite(model, rep)
    else:
        _steinberg_symbolic(model, rep)
    return rep


# ---------------------------------------------------------------------------
# Weyl conjugation

# One (alpha_idx, beta_idx) pair per non-A type whose reflected root falls
# outside the tabulated set; used for the membership spot check.
_NONSIMPLE_SPOT = {"C2": (0, 1), "C3": (0, 1), "B3": (1, 2), "D4": (1, 0), "G2": (0, 1)}


def _unipotent_order_check(R, m, n):
    """(m - 1)^n == 0."""
    rows = [
        [R.sub(m.rows[i][j], R.one) if i == j else m.rows[i][j] for j in range(n)]
        for i in range(n)
    ]
    d = Matrix.from_rows(R, rows)
    acc = d
    for _ in range(n - 1):
        acc = acc @ d
    return all(v == R.zero for row in acc.rows for v in row)


def _one_sign(R, images, cases, left, flip, signs):
    """Sweep results of a constant-sign image check.

    Each case (lhs, t, where) holds when lhs is the image of t or of -t
    with the sign of every earlier case; a match where t = -t fixes no
    sign.  The first sign found is appended to `signs`.  where() names the
    case inside the failure text `left` (no image matched) or `flip` (the
    sign changed)."""
    for lhs, t, where in cases:
        mt = R.neg(t)
        if lhs == images[R.encode(t)]:
            got = None if mt == t else 1
        elif lhs == images[R.encode(mt)]:
            got = -1
        else:
            yield left.format(where())
            continue
        if got is not None and not signs:
            signs.append(got)
        yield None if got is None or got == signs[0] else flip.format(where())


def check_weyl_conjugation(model, ring=None):
    model = _resolve_model(model, ring)
    R = model.ring
    rep = Report("weyl", {"type": model.label, "ring": R.descriptor})
    if not R.finite:
        rep.check(
            "weyl-conjugation",
            "weyl-reflection-conjugation",
            INCONCLUSIVE,
            counts={"cases": 0},
        )
        return rep

    enc = R.encode
    elements = R.elements()
    units = R.units()
    tab = model.tabulated_roots
    tabset = set(tab)
    simples = model.system.simples
    cache = {a: {enc(r): root_element(model, a, r) for r in elements} for a in tab}
    hs = {g: {enc(v): _h_diagonal(model, g, v) for v in units} for g in simples}

    def conjugates(w, winv, beta):
        """w h x_beta(s) h^-1 w^-1 against t = v^<beta,gamma> s, h = h_gamma(v)."""
        for gamma in simples:
            pairing = cartan_pairing(beta, gamma)
            for v in units:
                h = hs[gamma][enc(v)]
                factor = R.power(v, pairing)
                for s in elements:
                    lhs = w @ conjugate_by_diagonal(h, cache[beta][enc(s)]) @ winv
                    yield lhs, R.mul(factor, s), lambda: (
                        f"gamma={_rname(gamma)} v={R.element_repr(v)} "
                        f"s={R.element_repr(s)}"
                    )

    for alpha in simples:
        w = weyl_element(model, alpha)
        winv = w.inverse()
        for beta in tab:
            delta = reflect(alpha, beta)
            if delta not in tabset:
                continue
            signs = []
            record = _record_sweep(
                rep,
                f"weyl-conjugation:{_rname(alpha)}|{_rname(beta)}",
                "weyl-reflection-conjugation",
                _one_sign(
                    R,
                    cache[delta],
                    conjugates(w, winv, beta),
                    "{}: image not in the reflected root subgroup",
                    "sign flip at {}",
                    signs,
                ),
            )
            if record.counterexample is None and signs:
                model._weyl_signs[(alpha, beta)] = signs[0]

        twice = (
            (
                w @ (w @ cache[alpha][enc(r)] @ winv) @ winv,
                r,
                lambda: f"r={R.element_repr(r)}",
            )
            for r in elements
        )
        _record_sweep(
            rep,
            f"weyl-double-conjugation:{_rname(alpha)}",
            "weyl-double-conjugation-sign",
            _one_sign(
                R,
                cache[alpha],
                twice,
                "{}: double conjugate left the subgroup",
                "{}: double conjugation sign flip",
                [],
            ),
        )

    if model.label in _NONSIMPLE_SPOT:
        ai, bi = _NONSIMPLE_SPOT[model.label]
        alpha, beta = simples[ai], simples[bi]
        if reflect(alpha, beta) in tabset:
            raise ChevalleyError("spot-check pair unexpectedly tabulated")
        w = weyl_element(model, alpha)
        winv = w.inverse()
        images = {enc(s): w @ cache[beta][enc(s)] @ winv for s in elements}

        def spot():
            if images[enc(R.zero)] != Matrix.identity(R, model.n):
                yield "image of 0 is not the identity"
            if len(set(images.values())) != len(elements):
                yield "conjugated one-parameter map is not injective"
            for s in elements:
                if not _unipotent_order_check(R, images[enc(s)], model.n):
                    yield f"s={R.element_repr(s)}: image is not unipotent"
                for t in elements:
                    if images[enc(s)] @ images[enc(t)] != images[enc(R.add(s, t))]:
                        yield (
                            f"s={R.element_repr(s)} t={R.element_repr(t)}: "
                            "image map is not additive"
                        )

        _, bad = first_failure(spot())
        _record(
            rep,
            "weyl-nonsimple-membership",
            "nonsimple-root-subgroup-membership",
            len(elements) ** 2,
            bad,
        )
    return rep


# ---------------------------------------------------------------------------
# Invariant bilinear forms

_FORM_KIND = {"C2": "alternating", "C3": "alternating", "B3": "symmetric", "D4": "symmetric"}
FORM_TYPES = tuple(_FORM_KIND)


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


def _symbolic_generators(model):
    """Generator matrices over one-variable polynomial extensions."""
    R = model.ring
    Lt = LaurentRing(R, ("t",))
    Lu = LaurentRing(R, ("t",), unit_names=("t",))
    mt = matrix_model(model.label, Lt)
    mu = matrix_model(model.label, Lu)
    t = Lt.variable("t")
    tu = Lu.variable("t")
    gens = []
    for alpha in mt.tabulated_roots:
        gens.append((f"x{_rname(alpha)}", root_element(mt, alpha, t), Lt))
    for beta in mu.system.simples:
        gens.append((f"h{_rname(beta)}", semisimple_element(mu, beta, tu), Lu))
    for idx, row in enumerate(mu.torus_rows):
        entries = [Lu.power(tu, k) if k else Lu.one for k in row]
        gens.append((f"torus-row-{idx}", Matrix.diagonal(Lu, entries), Lu))
    return gens


def check_form_invariance(model, ring=None):
    model = _resolve_model(model, ring)
    R = model.ring
    if model.label not in _FORM_KIND:
        raise ChevalleyError(f"no invariant form is tabulated for {model.label}")
    if not (isinstance(R, ZModRing) and _is_prime(R.modulus)):
        raise ChevalleyError("form search needs a prime-order coefficient ring")
    p = R.modulus
    kind = _FORM_KIND[model.label]
    n = model.n
    nun = n * n
    rep = Report(
        "forms",
        {"type": model.label, "ring": R.descriptor, "kind": kind},
    )

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

    basis = _nullspace_mod_p(rows + sym_rows, nun, p)
    dim = len(basis)
    rep.check(
        "invariant-form-exists",
        f"invariant-{kind}-form",
        counts={"dimension": dim},
        counterexample=None if dim else "the constraint system has trivial nullspace",
    )
    rep.check(
        "invariant-form-unique-ray",
        "invariant-form-space-dimension",
        counts={"dimension": dim},
        counterexample=None
        if dim == 1
        else f"expected a one-dimensional solution space, got {dim}",
    )
    if not basis:
        return rep

    vec = list(basis[0])
    lead = next(v for v in vec if v)
    inv = pow(lead, -1, p)
    vec = [(v * inv) % p for v in vec]
    F = Matrix.from_rows(R, [[vec[i * n + j] for j in range(n)] for i in range(n)])
    rep.config["form"] = str([list(r) for r in F.rows])

    fr, _ = _rref_mod_p([list(r) for r in F.rows], n, p)
    rank = len(fr)
    rep.check(
        "invariant-form-rank",
        "invariant-form-nondegenerate",
        counts={"rank": rank},
        counterexample=None if rank == n else f"rank {rank} < {n}",
    )

    cases = 0
    bad = None
    det_bad = None
    one = R.one
    instances = []
    for alpha in model.tabulated_roots:
        for r in R.elements():
            instances.append((f"x{_rname(alpha)}({R.element_repr(r)})",
                              root_element(model, alpha, r)))
    for beta in model.system.simples:
        for u in R.units():
            instances.append((f"h{_rname(beta)}({R.element_repr(u)})",
                              semisimple_element(model, beta, u)))
    for idx in range(len(model.torus_rows)):
        for u in R.units():
            params = [one] * len(model.torus_rows)
            params[idx] = u
            instances.append((f"torus-row-{idx}({R.element_repr(u)})",
                              torus_element(model, params)))
    for name, g in instances:
        cases += 1
        if g.transpose() @ F @ g != F:
            bad = bad or name
        if g.det() != one:
            det_bad = det_bad or name
    _record(rep, "invariant-form-preserved", "generators-preserve-form", cases, bad)
    _record(
        rep, "generator-determinants", "generators-have-determinant-one", cases, det_bad
    )
    return rep


# ---------------------------------------------------------------------------
# Elementary matrix relations in GL_n


def check_elementary_relations(n, ring):
    """Exhaustive additivity, commutator, and diagonal conjugation rules
    for the elementary matrices e_ij(r) of GL_n over a finite ring."""
    R = ring
    if not R.finite:
        raise ChevalleyError("elementary relation sweep needs a finite ring")
    if n < 2:
        raise ChevalleyError("n must be at least 2")
    rep = Report("commutators", {"n": n, "ring": R.descriptor})
    elements = R.elements()
    units = R.units()
    ident = Matrix.identity(R, n)
    positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    E = {
        pos: {R.encode(r): Matrix.elementary(R, n, pos[0], pos[1], r) for r in elements}
        for pos in positions
    }

    def elem(pos, r):
        return E[pos][R.encode(r)]

    _record_sweep(
        rep,
        "elementary-additivity",
        "elementary-matrix-additivity",
        (
            None
            if elem(pos, r) @ elem(pos, s) == elem(pos, R.add(r, s))
            else f"e{pos}({R.element_repr(r)}) * e{pos}({R.element_repr(s)})"
            for pos in positions
            for r in elements
            for s in elements
        ),
    )

    def comm(x, xinv, y, yinv):
        return x @ y @ xinv @ yinv

    chain_cases = 0
    chain_bad = None
    inv_cases = 0
    inv_bad = None
    for (i, j) in positions:
        for (k, l) in positions:
            if j != k or i == l:
                continue
            for r in elements:
                x = elem((i, j), r)
                xinv = elem((i, j), R.neg(r))
                for s in elements:
                    y = elem((k, l), s)
                    yinv = elem((k, l), R.neg(s))
                    chain_cases += 1
                    c = comm(x, xinv, y, yinv)
                    if c != elem((i, l), R.mul(r, s)):
                        chain_bad = chain_bad or (
                            f"[e({i},{j})({R.element_repr(r)}), "
                            f"e({k},{l})({R.element_repr(s)})]"
                        )
                    inv_cases += 1
                    ci = comm(x, xinv, yinv, y)
                    if ci != elem((i, l), R.neg(R.mul(r, s))):
                        inv_bad = inv_bad or (
                            f"[e({i},{j})({R.element_repr(r)}), "
                            f"e({k},{l})({R.element_repr(s)})^-1]"
                        )
    _record(
        rep,
        "elementary-chain-commutator",
        "chain-commutator-collapse",
        chain_cases,
        chain_bad,
    )
    _record(
        rep,
        "elementary-inverse-commutator",
        "commutator-with-inverse-argument",
        inv_cases,
        inv_bad,
    )

    cases = 0
    bad = None
    for (i, j) in positions:
        for (k, l) in positions:
            if j == k or i == l:
                continue
            for r in elements:
                x = elem((i, j), r)
                xinv = elem((i, j), R.neg(r))
                for s in elements:
                    cases += 1
                    c = comm(x, xinv, elem((k, l), s), elem((k, l), R.neg(s)))
                    if c != ident:
                        bad = bad or (
                            f"[e({i},{j})({R.element_repr(r)}), "
                            f"e({k},{l})({R.element_repr(s)})]"
                        )
    _record(
        rep, "elementary-disjoint-commutator", "disjoint-positions-commute", cases, bad
    )

    cases = 0
    bad = None
    for tup in itertools.product(units, repeat=n):
        d = Matrix.diagonal(R, tup)
        for (i, j) in positions:
            factor = R.mul(tup[i - 1], R.inverse(tup[j - 1]))
            for r in elements:
                cases += 1
                if conjugate_by_diagonal(d, elem((i, j), r)) != elem(
                    (i, j), R.mul(factor, r)
                ):
                    bad = bad or (
                        f"Diag{tuple(R.element_repr(u) for u in tup)} on "
                        f"e({i},{j})({R.element_repr(r)})"
                    )
    _record(rep, "diagonal-conjugation", "diagonal-conjugation-scaling", cases, bad)
    return rep


# ---------------------------------------------------------------------------
# Affine groups and Borel factorizations


class AffineGroup:
    """A two-by-two matrix group given by generators and a membership
    predicate; enumerable over finite rings."""

    def __init__(self, name, ring, generators, contains, enumerate_fn):
        self.name = name
        self.ring = ring
        self.generators = generators
        self._contains = contains
        self._enumerate = enumerate_fn

    def contains(self, m):
        return (
            isinstance(m, Matrix)
            and m.n == 2
            and m.ring.descriptor == self.ring.descriptor
            and self._contains(m)
        )

    def elements(self):
        return self._enumerate()

    def order(self):
        return len(self.elements())

    def __repr__(self):
        return f"AffineGroup({self.name}, {self.ring.descriptor})"


def affine_groups(ring):
    R = ring
    one, zero = R.one, R.zero
    finite = R.finite

    def m(a, b, c, d):
        return Matrix.from_rows(R, [[a, b], [c, d]])

    def gens(kind):
        if not finite:
            return ()
        tadd = additive_presentation(R).generators
        out = [Matrix.elementary(R, 2, 1, 2, t) for t in tadd]
        for u in R.units():
            if u == one:
                continue
            if kind == "Aff":
                out.append(m(u, zero, zero, one))
            elif kind == "Aff-":
                out.append(m(one, zero, zero, u))
            elif kind == "B2":
                out.append(m(u, zero, zero, one))
                out.append(m(one, zero, zero, u))
            else:
                out.append(m(u, zero, zero, R.inverse(u)))
        return tuple(out)

    def enum(kind):
        def run():
            if not finite:
                raise RingError(f"{R.descriptor} is not finite")
            out = []
            if kind == "Aff":
                for u in R.units():
                    for r in R.elements():
                        out.append(m(u, r, zero, one))
            elif kind == "Aff-":
                for u in R.units():
                    for r in R.elements():
                        out.append(m(one, r, zero, u))
            elif kind == "B2":
                for a in R.units():
                    for b in R.units():
                        for r in R.elements():
                            out.append(m(a, r, zero, b))
            else:
                for a in R.units():
                    ai = R.inverse(a)
                    for r in R.elements():
                        out.append(m(a, r, zero, ai))
            return tuple(out)

        return run

    preds = {
        "Aff": lambda g: g.entry(2, 1) == zero
        and g.entry(2, 2) == one
        and R.is_unit(g.entry(1, 1)),
        "Aff-": lambda g: g.entry(2, 1) == zero
        and g.entry(1, 1) == one
        and R.is_unit(g.entry(2, 2)),
        "B2": lambda g: g.entry(2, 1) == zero
        and R.is_unit(g.entry(1, 1))
        and R.is_unit(g.entry(2, 2)),
        "B2deg": lambda g: g.entry(2, 1) == zero
        and R.is_unit(g.entry(1, 1))
        and R.mul(g.entry(1, 1), g.entry(2, 2)) == one,
    }
    return {
        kind: AffineGroup(kind, R, gens(kind), preds[kind], enum(kind))
        for kind in ("Aff", "Aff-", "B2", "B2deg")
    }


def check_affine_iso(ring):
    """The map (u r; 0 1) -> (1 r/u; 0 1/u) from Aff to Aff- is a group
    isomorphism; verified exhaustively."""
    R = ring
    if not R.finite:
        raise ChevalleyError("exhaustive affine check needs a finite ring")
    groups = affine_groups(R)
    aff, affm = groups["Aff"], groups["Aff-"]
    zero, one = R.zero, R.one

    def phi(g):
        ui = R.inverse(g.entry(1, 1))
        return Matrix.from_rows(R, [[one, R.mul(g.entry(1, 2), ui)], [zero, ui]])

    src = aff.elements()
    images = [phi(g) for g in src]
    if not all(affm.contains(m) for m in images):
        return False
    if len(set(images)) != len(src) or set(images) != set(affm.elements()):
        return False
    for g in src:
        pg = phi(g)
        for h in src:
            if phi(g @ h) != pg @ phi(h):
                return False
    return True


def check_borel_retraction(n, ring):
    """Keeping the leading two-by-two block of an upper triangular matrix
    (entries (1,1), (1,2), (2,2)) retracts the full triangular group onto
    its embedded two-by-two copy."""
    R = ring
    if n < 2:
        raise ChevalleyError("n must be at least 2")
    if not R.finite:
        raise ChevalleyError("exhaustive retraction check needs a finite ring")
    one, zero = R.one, R.zero
    tadd = additive_presentation(R).generators
    gens = [Matrix.identity(R, n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for t in tadd:
                gens.append(Matrix.elementary(R, n, i, j, t))
    for k in range(n):
        for u in R.units():
            if u == one:
                continue
            entries = [one] * n
            entries[k] = u
            gens.append(Matrix.diagonal(R, entries))

    def rho(g):
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
        rows[0][0] = g.entry(1, 1)
        rows[0][1] = g.entry(1, 2)
        rows[1][1] = g.entry(2, 2)
        return Matrix.from_rows(R, rows)

    for g in gens:
        rg = rho(g)
        for h in gens:
            if rho(g @ h) != rg @ rho(h):
                return False
    for a in R.units():
        for b in R.units():
            for r in R.elements():
                rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
                rows[0][0] = a
                rows[0][1] = r
                rows[1][1] = b
                m = Matrix.from_rows(R, rows)
                if rho(m) != m:
                    return False
    return True


# Tabulated Borel factorizations: which submatrix to read, which leftover
# diagonal positions carry independent unit factors, and the target kind.
# G2's short root reads its Aff- block off entries (2,2) and (5,1).
_BOREL_CASES = {
    ("A1", 0): dict(read=(1, 2), gm=(), target="B2deg"),
    ("A2", 0): dict(read=(1, 2), gm=(), target="B2"),
    ("A2", 1): dict(read=(2, 3), gm=(), target="B2"),
    ("A3", 1): dict(read=(2, 3), gm=(1,), target="B2"),
    ("C2", 0): dict(read=(1, 2), gm=(), target="B2"),
    ("C2", 1): dict(read=(2, 4), gm=(1,), target="B2deg"),
    ("C3", 1): dict(read=(2, 3), gm=(1,), target="B2"),
    ("B3", 1): dict(read=(3, 4), gm=(2,), target="B2"),
    ("D4", 1): dict(read=(2, 3), gm=(1, 4), target="B2"),
    ("G2", 0): dict(read=(2, 3), gm=(), target="B2"),
    ("G2", 1): dict(read=None, gm=(3,), target="Aff-"),
}

def borel_cases():
    """Tabulated (type label, simple root index) factorization cases."""
    return tuple(sorted(_BOREL_CASES))


_PAIR_BUDGET = 300_000


def _block_reader(R, read, gm):
    """phi: g -> (its two-by-two block at rows/columns `read`, its diagonal
    entries at `gm`)."""
    p, q = read

    def phi(g):
        if g.entry(q, p) != R.zero:
            raise ChevalleyError("unreadable element: lower corner nonzero")
        m = Matrix.from_rows(
            R, [[g.entry(p, p), g.entry(p, q)], [R.zero, g.entry(q, q)]]
        )
        return m, tuple(g.entry(t, t) for t in gm)

    return phi


def _factorization_checks(rep, R, x, d, k, phi, kind, tails):
    """The six records of one Borel factorization.

    The source is x(r) d(units) over r in R and units in (R^x)^k, and the
    predicted size of source and target is |R| |R^x|^k.  phi maps a source
    element to a pair (two-by-two block, tuple of `tails` units); the
    target is every block of affine_groups(R)[kind] times every unit tail.
    Source pairs are all tested when there are at most _PAIR_BUDGET of
    them, else those of a pool: additive generators r, or at most one
    non-one unit."""
    units = R.units()
    one = R.one
    source = []
    seen = {}
    collision = None
    for r in R.elements():
        xr = x(r)
        for tup in itertools.product(units, repeat=k):
            g = xr @ d(tup)
            if g in seen:
                collision = collision or (
                    f"r={R.element_repr(r)} torus={tuple(map(R.element_repr, tup))}"
                )
            seen[g] = (r, tup)
            source.append(g)
    _record(
        rep,
        "parametrization-injective",
        "borel-parametrization",
        len(source),
        collision,
    )

    target = [
        (m, tail)
        for m in affine_groups(R)[kind].elements()
        for tail in itertools.product(units, repeat=tails)
    ]
    predicted = R.order() * len(units) ** k
    card_ok = len(target) == predicted and len(source) == predicted
    rep.check(
        "target-cardinality",
        "borel-target-cardinality",
        counts={"target": len(target), "source": len(source), "predicted": predicted},
        counterexample=None
        if card_ok
        else f"target {len(target)}, source {len(source)}, predicted {predicted}",
    )

    images = [phi(g) for g in source]
    rep.check(
        "map-injective",
        "borel-map-injectivity",
        counts={"cases": len(source)},
        counterexample=None
        if len(set(images)) == len(source)
        else "two source elements share an image",
    )
    rep.check(
        "map-bijective",
        "borel-map-image",
        counts={"cases": len(target)},
        counterexample=None
        if set(images) == set(target)
        else "image differs from the enumerated target",
    )

    if len(source) ** 2 <= _PAIR_BUDGET:
        pool = source
    else:
        tadd = set(additive_presentation(R).generators)
        pool = [
            g
            for g in source
            if seen[g][0] in tadd or sum(1 for u in seen[g][1] if u != one) <= 1
        ]
    phis = dict(zip(source, images))
    bad = None
    closed_bad = None
    cases = tested = 0
    for g in pool:
        mg, tg = phis[g]
        for h in pool:
            cases += 1
            prod = g @ h
            if prod not in seen:
                closed_bad = closed_bad or "product left the source set"
                continue
            tested += 1
            mh, th = phis[h]
            mp, tp = phis[prod]
            if mp != mg @ mh or tp != tuple(R.mul(a, b) for a, b in zip(tg, th)):
                bad = bad or f"pair ({seen[g]}, {seen[h]})"
    rep.check(
        "source-closed",
        "borel-source-closure",
        counts={"cases": cases},
        counterexample=closed_bad,
    )
    # the pairs whose product left the source were not tested: without a
    # failing pair, an open source leaves the homomorphism undecided
    if bad or not closed_bad:
        _record(rep, "map-homomorphism", "borel-map-homomorphism", tested, bad)
    else:
        rep.check(
            "map-homomorphism",
            "borel-map-homomorphism",
            INCONCLUSIVE,
            counts={"cases": tested, "failures": 0},
            counterexample=f"source not closed: {tested} of {cases} pairs tested",
        )


def borel_isomorphism_check(model, eta, ring=None):
    """Factor the subgroup generated by one simple root subgroup and the
    displayed torus through a two-by-two block times diagonal units."""
    model = _resolve_model(model, ring)
    R = model.ring
    if not R.finite:
        raise ChevalleyError("exhaustive factorization check needs a finite ring")
    simples = model.system.simples
    if isinstance(eta, int):
        idx = eta
        if not 0 <= idx < len(simples):
            raise ChevalleyError(f"unsupported-pair: no simple root index {eta}")
    else:
        eta = tuple(eta)
        if eta not in simples:
            raise ChevalleyError(f"unsupported-pair: {eta} is not a simple root")
        idx = simples.index(eta)
    case = _BOREL_CASES.get((model.label, idx))
    if case is None:
        raise ChevalleyError(
            f"unsupported-pair: no tabulated factorization for "
            f"{model.label} simple root {idx}"
        )
    root = simples[idx]
    rep = Report(
        "borel-iso",
        {"type": model.label, "eta": _rname(root), "ring": R.descriptor},
    )
    gm = case["gm"]
    if case["read"] is None:

        def phi(g):
            u = g.entry(2, 2)
            r = R.neg(g.entry(5, 1))
            m = Matrix.from_rows(R, [[R.one, R.mul(r, u)], [R.zero, u]])
            return m, tuple(g.entry(t, t) for t in gm)

    else:
        phi = _block_reader(R, case["read"], gm)
    _factorization_checks(
        rep,
        R,
        lambda r: root_element(model, root, r),
        lambda tup: torus_element(model, tup),
        len(model.torus_rows),
        phi,
        case["target"],
        len(gm),
    )
    return rep


def borel_gln_check(n, i, j, ring):
    """The subgroup of GL_n generated by one elementary position and the
    full diagonal factors as a two-by-two triangular block times n-2
    diagonal units."""
    R = ring
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ChevalleyError("positions must be distinct and within range")
    if not R.finite:
        raise ChevalleyError("exhaustive factorization check needs a finite ring")
    rep = Report("borel-gln", {"n": n, "i": i, "j": j, "ring": R.descriptor})
    gm = tuple(k for k in range(1, n + 1) if k not in (i, j))
    _factorization_checks(
        rep,
        R,
        lambda r: Matrix.elementary(R, n, i, j, r),
        lambda tup: Matrix.diagonal(R, tup),
        n,
        _block_reader(R, (i, j), gm),
        "B2",
        len(gm),
    )
    return rep
