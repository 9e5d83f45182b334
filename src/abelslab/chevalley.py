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

Over a finite ring the sweeps multiply coded rows from `kernels`: a
one-parameter family is a code table whose row c is x(decode(c)), a
diagonal element is its row of diagonal codes, and conjugation by a
diagonal is entrywise.  Elementary tables come from
`kernels.elementary_codes`, and the diagonals of a torus from
`_diagonal_rows`, which raises the units of each tuple to their exponent
rows with `_unit_rows`; neither builds a Matrix.  A sweep computes one
boolean per case, in sweep order, and `_record_rows` records it: a
break-on-first sweep counts the cases up to and including its first
failure.  Matrix objects remain for the root subgroup tables of `_family`
(each x_alpha(r) built from its display, then coded), the Weyl elements
and their inverses, the symbolic routes, and the generator instances of
`check_form_invariance`, whose determinants are taken on Matrix objects
while the preservation test g^T F g = F runs on codes.
`check_weyl_conjugation` conjugates one batch per simple root alpha: the
cases of every root whose reflection is tabulated, then x_alpha for the
double conjugation, in one pair of batch products.

All three factorization checks,
`borel_isomorphism_check` (a root subgroup times the displayed torus),
`borel_gln_check` (an elementary position times the diagonal of GL_n) and
`check_affine_iso`, supply a source, a map phi and a target kind to one
body, `_factorization_checks`, which writes the six records and samples
the source pairs past `_PAIR_BUDGET`.  Each passes the code table of x(r)
(`_family` rows, or one `elementary_codes` position) and the exponent rows
of d(units) (the model's torus rows, the identity rows of GL_n, or
((1, 0),)), so the source is coded with no Matrix object: phi selects
(or, for G2's short root and the affine map, combines) code columns of
it, and `_affine_target` lists the target as code rows.  `_pair_sweep` tests
closure and the homomorphism law on the source pairs in blocks of left
factors, each block one `mul_pairs` product against every right factor,
so the first failing pair is still the first in left-major order.

The invariant form F is the nullspace mod p of a linear system in its n*n
entries.  Each symbolic generator G(t) is read into a stack of coefficient
matrices C_e, and every coefficient of G(t)^T F G(t) - F is one row of the
system, all rows of a generator built by one einsum.  One numpy elimination
reduces them with the symmetry rows of the form's kind.  A row space has a
single reduced row echelon form, so the pivots, the basis and F do not
depend on the order in which the rows are built or reduced.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .abels import _retract_codes
from .kernels import (
    coded_ring,
    elementary_codes,
    encode_matrices,
    encode_matrix,
    identity_vec,
    mul_batch_left,
    mul_batch_right,
    mul_pairs,
    mul_rows,
    pack_keys,
)
from .matrices import Matrix, conjugate_by_diagonal
from .reports import INCONCLUSIVE, Report
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


_ROOT_SYSTEMS = {}


def root_system(label):
    """The root datum of `label`, closed under the simple reflections; each
    label is built once per process."""
    datum = _ROOT_SYSTEMS.get(label)
    if datum is not None:
        return datum
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
    datum = _ROOT_SYSTEMS[label] = RootDatum(label, simples, tuple(sorted(roots)))
    return datum


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


def _record_rows(rep, check_id, anchor, ok, describe, cases=None):
    """Record a sweep from one boolean per case, in sweep order.

    The counterexample is describe(k) of the first failing case k.  Without
    `cases` the sweep breaks on its first failure: it counts the cases up
    to and including that one."""
    first = np.flatnonzero(~ok)[:1]
    if cases is None:
        cases = int(first[0]) + 1 if first.size else ok.size
    bad = describe(int(first[0])) if first.size else None
    return _record(rep, check_id, anchor, cases, bad)


def _naming(R, *axes):
    """describe(k) of a sweep over the product of `axes`, (name, elements)
    pairs, the first slowest: "name=element ..." for case k."""
    shape = tuple(len(values) for _, values in axes)

    def describe(k):
        at = np.unravel_index(k, shape)
        return " ".join(f"{a}={R.element_repr(v[i])}" for (a, v), i in zip(axes, at))

    return describe


def _at(n, i, j):
    """The code column of entry (i, j) of an n x n matrix."""
    return (i - 1) * n + j - 1


def _family(cr, model, alpha):
    """Row c is x_alpha(r) for the element r of code c, coded."""
    R = model.ring
    return encode_matrices(cr, [root_element(model, alpha, r) for r in R.elements()])


def _unit_rows(cr, exps):
    """Row c holds the codes of u**k for k in exps, u the unit of code c;
    the rows of non-units are zero and never read."""
    R = cr.ring
    out = np.zeros((cr.q, len(exps)), np.int64)
    for u in R.units():
        out[R.encode(u)] = [R.encode(R.power(u, k)) for k in exps]
    return out


def _diagonal_rows(cr, rows):
    """The diagonal codes of d(u) for every tuple u of units, one tuple
    entry per exponent row, in `itertools.product` order of `R.units()`:
    d(u)_k = prod over t of u_t**rows[t][k]."""
    k, n = len(rows), len(rows[0])
    tuples = cr.unit_codes[np.indices((len(cr.unit_codes),) * k).reshape(k, -1)]
    powers = _unit_rows(cr, np.ravel(rows)).reshape(cr.q, k, n)
    out = np.full((tuples.shape[1], n), cr.one)
    for t, u in enumerate(tuples):
        out = cr.mul[out, powers[u, t]]
    return out


def _additive(cr, X, n):
    """x(0) = 1, then x(r)x(s) = x(r+s) for every code pair (r, s), r-major,
    of the table X."""
    r, s = np.indices((cr.q, cr.q)).reshape(2, -1)
    law = (mul_rows(cr, X[r], X[s], n) == X[cr.add[r, s]]).all(axis=1)
    return np.append((X[cr.zero] == identity_vec(cr, n)).all(), law)


def _conj_diag(cr, D, X, n):
    """d x d^-1 for each row d of the diagonals D and row x of the coded X:
    (d x d^-1)[i, j] = d_i * x[i, j] * d_j^-1."""
    conj = cr.mul[cr.mul[D[:, :, None], X.reshape(-1, n, n)], cr.inv[D][:, None, :]]
    return conj.reshape(-1, n * n)


def _steinberg_finite(model, rep):
    R = model.ring
    cr = coded_ring(R)
    n, q = model.n, cr.q
    elements, units = R.elements(), R.units()
    xs = {alpha: _family(cr, model, alpha) for alpha in model.tabulated_roots}
    text_rs = _naming(R, ("r", elements), ("s", elements))
    for alpha, X in xs.items():
        _record_rows(
            rep, f"one-parameter-additivity:{_rname(alpha)}", "root-subgroup-additivity",
            _additive(cr, X, n),
            lambda k: text_rs(k - 1) if k else "x(0) is not the identity",
        )

    h_roots = model.system.simples + tuple(_neg(s) for s in model.system.simples)
    hs = {beta: _unit_rows(cr, model.h_exponents(beta)) for beta in h_roots}
    u, v = cr.unit_codes[np.indices((len(units), len(units))).reshape(2, -1)]
    text_uv = _naming(R, ("u", units), ("v", units))
    for beta, H in hs.items():
        law = (cr.mul[H[u], H[v]] == H[cr.mul[u, v]]).all(axis=1)
        _record_rows(
            rep, f"torus-multiplicativity:{_rname(beta)}", "semisimple-multiplicativity",
            np.append((H[cr.one] == cr.one).all(), law),
            lambda k: text_uv(k - 1) if k else "h(1) is not the identity",
        )

    ui, r = np.indices((len(units), q)).reshape(2, -1)
    u = cr.unit_codes[ui]
    text_ur = _naming(R, ("u", units), ("r", elements))
    scales = {
        k: _unit_rows(cr, (k,))[:, 0] for k in {cartan_pairing(a, b) for a in xs for b in hs}
    }
    for alpha, X in xs.items():
        for beta, H in hs.items():
            pairing = cartan_pairing(alpha, beta)
            scale = scales[pairing]
            _record_rows(
                rep, f"torus-conjugation:{_rname(alpha)}|{_rname(beta)}",
                "torus-conjugation-scaling",
                (_conj_diag(cr, H[u], X[r], n) == X[cr.mul[scale[u], r]]).all(axis=1),
                lambda k: f"{text_ur(k)} pairing={pairing}",
            )

    if model.label == "G2":
        _g2_torus_display(model, rep, cr, xs[(1, -1, 0)])


def _g2_torus_display(model, rep, cr, X):
    """The two-parameter diagonal torus conjugates the short root display
    entrywise: entries 2t, t, -t, -t, -t^2 at fixed positions, t = r/u."""
    R = model.ring
    elements, units = R.elements(), R.units()
    # row c is the expected display at the element of code c
    c = np.arange(cr.q)
    E = np.tile(identity_vec(cr, 7), (cr.q, 1))
    E[:, _at(7, 1, 2)] = cr.add[c, c]
    E[:, _at(7, 3, 7)] = c
    E[:, _at(7, 4, 6)] = E[:, _at(7, 5, 1)] = cr.neg[c]
    E[:, _at(7, 5, 2)] = cr.neg[cr.mul[c, c]]
    tori = _diagonal_rows(cr, model.torus_rows)
    uv, r = np.indices((len(tori), cr.q)).reshape(2, -1)
    t = cr.mul[cr.inv[cr.unit_codes[uv // len(units)]], r]
    lhs = _conj_diag(cr, tori[uv], X[r], 7)
    _record_rows(
        rep, "torus-display-conjugation", "two-parameter-torus-display",
        ((lhs == E[t]) & (lhs == X[t])).all(axis=1),
        _naming(R, ("u", units), ("v", units), ("r", elements)),
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


def _one_sign(rep, cr, check_id, anchor, images, lhs, t, left, flip, where):
    """Record a constant-sign image check on coded rows.

    Each row of lhs must be the image of t or of -t, with the sign of the
    first row that fixes one; a match where t = -t fixes no sign.  A row
    that matches neither fails with `left`, one whose sign flips with
    `flip`, each formatted with where(k)."""
    minus_t = cr.neg[t]
    plus = (lhs == images[t]).all(axis=1)
    minus = (lhs == images[minus_t]).all(axis=1)
    got = np.where(plus, np.where(minus_t == t, 0, 1), np.where(minus, -1, 0))
    fixed = got[got != 0]
    sign = int(fixed[0]) if fixed.size else 0
    matched = plus | minus
    ok = matched & ((got == 0) | (got == sign))
    _record_rows(
        rep, check_id, anchor, ok, lambda k: (flip if matched[k] else left).format(where(k))
    )


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

    cr = coded_ring(R)
    n, q = model.n, cr.q
    show = R.element_repr
    elements, units = R.elements(), R.units()
    tab = model.tabulated_roots
    tabset = set(tab)
    simples = model.system.simples
    xs = {a: _family(cr, model, a) for a in tab}
    hs = {g: _unit_rows(cr, model.h_exponents(g)) for g in simples}
    vi, s = np.indices((len(units), q)).reshape(2, -1)
    v = cr.unit_codes[vi]
    text_vs = _naming(R, ("v", units), ("s", elements))

    def conjugator(alpha):
        """x -> w x w^-1 on coded rows, w the Weyl element of alpha."""
        w = weyl_element(model, alpha)
        wv, wiv = encode_matrix(cr, w), encode_matrix(cr, w.inverse())
        return lambda X: mul_batch_right(cr, mul_batch_left(cr, wv, X, n), wiv, n)

    # the cases of beta before conjugation by w: h x_beta(s) h^-1 against
    # t = v^<beta,gamma> s, for h = h_gamma(v): gamma-major, then v, then s
    scales = {
        k: _unit_rows(cr, (k,))[:, 0]
        for k in {cartan_pairing(beta, gamma) for beta in tab for gamma in simples}
    }
    cases = {
        beta: (
            np.concatenate([_conj_diag(cr, hs[g][v], xs[beta][s], n) for g in simples]),
            np.concatenate([cr.mul[scales[cartan_pairing(beta, g)][v], s] for g in simples]),
        )
        for beta in tab
    }

    for alpha in simples:
        conj_w = conjugator(alpha)
        betas = [beta for beta in tab if reflect(alpha, beta) in tabset]
        # one conjugation for every beta's cases and for xs[alpha]
        batch = [cases[beta][0] for beta in betas] + [xs[alpha]]
        ends = np.cumsum([len(X) for X in batch[:-1]])
        images = np.split(conj_w(np.concatenate(batch)), ends)
        for beta, image in zip(betas, images):
            _one_sign(
                rep, cr, f"weyl-conjugation:{_rname(alpha)}|{_rname(beta)}",
                "weyl-reflection-conjugation",
                xs[reflect(alpha, beta)], image, cases[beta][1],
                "{}: image not in the reflected root subgroup", "sign flip at {}",
                lambda k: f"gamma={_rname(simples[k // v.size])} {text_vs(k % v.size)}",
            )

        _one_sign(
            rep, cr, f"weyl-double-conjugation:{_rname(alpha)}",
            "weyl-double-conjugation-sign",
            xs[alpha], conj_w(images[-1]), np.arange(q),
            "{}: double conjugate left the subgroup", "{}: double conjugation sign flip",
            lambda k: f"r={show(elements[k])}",
        )

    if model.label in _NONSIMPLE_SPOT:
        ai, bi = _NONSIMPLE_SPOT[model.label]
        alpha, beta = simples[ai], simples[bi]
        if reflect(alpha, beta) in tabset:
            raise ChevalleyError("spot-check pair unexpectedly tabulated")
        Y = conjugator(alpha)(xs[beta])
        # an image y is unipotent when (y - 1)^n = 0
        nil = Y.copy()
        nil[:, :: n + 1] = cr.add[nil[:, :: n + 1], cr.neg[cr.one]]
        power = nil
        for _ in range(n - 1):
            power = mul_rows(cr, power, nil, n)
        keys = np.sort(pack_keys(cr, Y, n))
        additive = _additive(cr, Y, n)
        # the image of 0, injectivity, then for each s: unipotent, and
        # additive against every t
        ok = np.concatenate([
            [additive[0], (keys[1:] != keys[:-1]).all()],
            np.column_stack(
                [(power == cr.zero).all(axis=1), additive[1:].reshape(q, q)]
            ).ravel(),
        ])

        def describe(k):
            if k < 2:
                return ("image of 0 is not the identity",
                        "conjugated one-parameter map is not injective")[k]
            si, ti = divmod(k - 2, q + 1)
            if ti == 0:
                return f"s={show(elements[si])}: image is not unipotent"
            s, t = show(elements[si]), show(elements[ti - 1])
            return f"s={s} t={t}: image map is not additive"

        _record_rows(
            rep, "weyl-nonsimple-membership", "nonsimple-root-subgroup-membership", ok,
            describe, cases=q * q,
        )
    return rep


# ---------------------------------------------------------------------------
# Invariant bilinear forms

_FORM_KIND = {"C2": "alternating", "C3": "alternating", "B3": "symmetric", "D4": "symmetric"}
FORM_TYPES = tuple(_FORM_KIND)


def _rref_mod_p(M, p):
    """The reduced row echelon form of the integer matrix M mod p, p prime,
    as (its nonzero rows, their pivot columns).  Each pivot is the first
    row from the current rank down with a nonzero entry in the column; it
    is scaled by its inverse, `pow`, and cleared from every other row.  No
    intermediate reaches p^2, so int64 is exact for p < 3 * 10^9."""
    M = M % p
    pivots = []
    for col in range(M.shape[1]):
        rank = len(pivots)
        below = np.flatnonzero(M[rank:, col])
        if not below.size:
            continue
        top = rank + below[0]
        M[[rank, top]] = M[[top, rank]]
        M[rank] = M[rank] * pow(int(M[rank, col]), -1, p) % p
        hit = np.flatnonzero(M[:, col])
        hit = hit[hit != rank]
        M[hit] = (M[hit] - M[hit, col, None] * M[rank] % p) % p
        pivots.append(col)
    return M[: len(pivots)], pivots


def _nullspace_mod_p(M, p):
    """A basis of the right nullspace of M mod p, one row per free column
    in increasing order: 1 at that column, minus the column of the reduced
    rows at the pivots."""
    reduced, pivots = _rref_mod_p(M, p)
    free = [c for c in range(M.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), M.shape[1]), np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -reduced[:, free].T % p
    return basis


def _coefficient_stack(G):
    """(C, low): G(t) = sum over e of t^(low + e) C[e], a one-variable
    matrix over Z/p read into an (E, n, n) stack of coefficient codes.  The
    exponents run from low <= 0 to at least 0."""
    terms = [
        (e, i, j, c)
        for i, row in enumerate(G.rows)
        for j, entry in enumerate(row)
        for (e,), c in entry
    ]
    exps = [0] + [e for e, *_ in terms]
    low, high = min(exps), max(exps)
    C = np.zeros((high - low + 1, G.n, G.n), np.int64)
    for e, i, j, c in terms:
        C[e - low, i, j] = c
    return C, low


def _preservation_rows(G, p):
    """The nonzero rows mod p, over columns (i, j) of F, of
    G(t)^T F G(t) = F.

    Row (a, b) of exponent e holds the sum over e1 + e2 = e of
    C[e1][i, a] C[e2][j, b] at column (i, j), the identity subtracted at
    e = 0: one einsum for every product, reduced mod p before the sums."""
    C, low = _coefficient_stack(G)
    E, n = C.shape[:2]
    products = np.einsum("xia,yjb->xyabij", C, C) % p
    rows = np.zeros((2 * E - 1, n, n, n, n), np.int64)
    for x in range(E):
        rows[x : x + E] += products[x]
    d = np.arange(n)
    rows[-2 * low, d[:, None], d, d[:, None], d] -= 1
    rows = rows.reshape(-1, n * n) % p
    return rows[rows.any(axis=1)]


def _symmetry_rows(n, kind, p):
    """Over the columns (i, j) of F: F[i, j] + F[j, i] = 0 for i < j and
    F[i, i] = 0 (alternating), or F[i, j] - F[j, i] = 0 for i < j
    (symmetric)."""
    i, j = np.triu_indices(n, 0 if kind == "alternating" else 1)
    rows = np.zeros((i.size, n * n), np.int64)
    k = np.arange(i.size)
    rows[k, i * n + j] = 1
    rows[k, j * n + i] = 1 if kind == "alternating" else p - 1
    return rows


def _form_system(model, kind, p):
    """The distinct rows mod p of every generator of `_symbolic_generators`
    and the symmetry rows of `kind`: their nullspace is the space of forms.
    Generators share many rows (D4 over Z/7 gives 812 rows, 164 of them
    distinct), and a repeated row does not change the row space."""
    rows = [_preservation_rows(G, p) for _name, G, _L in _symbolic_generators(model)]
    rows = np.concatenate(rows + [_symmetry_rows(model.n, kind, p)])
    rows = rows[np.lexsort(rows.T)]
    return rows[np.append(True, (rows[1:] != rows[:-1]).any(axis=1))]


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
    """Find the invariant form F of a C, B or D model over Z/p and check it.

    Each generator of `_symbolic_generators` is a one-variable matrix G(t)
    = sum_e t^e C_e, read into a stack of coefficient matrices mod p.  The
    form F, as n*n unknowns, is invariant under G exactly when every
    coefficient of G(t)^T F G(t) - F vanishes: one linear row per entry
    (a, b) and exponent e, built for a whole generator by one einsum
    (`_preservation_rows`).  These rows and the symmetry rows of the form's
    kind are reduced in one elimination mod p.  A row space has a single
    reduced row echelon form, so the pivots, the nullspace basis and the F
    normalised from its first vector do not depend on the order in which
    the rows are built.  The records state the nullspace dimension (one
    ray expected), the rank of F, and that every generator instance over
    the finite ring preserves F and has determinant one."""
    model = _resolve_model(model, ring)
    R = model.ring
    if model.label not in _FORM_KIND:
        raise ChevalleyError(f"no invariant form is tabulated for {model.label}")
    if not (isinstance(R, ZModRing) and _is_prime(R.modulus)):
        raise ChevalleyError("form search needs a prime-order coefficient ring")
    p = R.modulus
    kind = _FORM_KIND[model.label]
    n = model.n
    rep = Report(
        "forms",
        {"type": model.label, "ring": R.descriptor, "kind": kind},
    )

    basis = _nullspace_mod_p(_form_system(model, kind, p), p)
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
    if not dim:
        return rep

    vec = basis[0]
    form = vec * pow(int(vec[np.flatnonzero(vec)[0]]), -1, p) % p
    F = Matrix.from_rows(R, form.reshape(n, n).tolist())
    rep.config["form"] = str([list(r) for r in F.rows])

    rank = len(_rref_mod_p(form.reshape(n, n), p)[1])
    rep.check(
        "invariant-form-rank",
        "invariant-form-nondegenerate",
        counts={"rank": rank},
        counterexample=None if rank == n else f"rank {rank} < {n}",
    )

    _check_generators(rep, model, F)
    return rep


def _form_instances(model):
    """(name, matrix) of each generator instance over the finite ring:
    x_alpha(r) for every tabulated root and element r, then h_beta(u) for
    every simple root and unit u, then each torus row at every unit u."""
    R = model.ring
    show = R.element_repr
    instances = [
        (f"x{_rname(alpha)}({show(r)})", root_element(model, alpha, r))
        for alpha in model.tabulated_roots
        for r in R.elements()
    ]
    instances += [
        (f"h{_rname(beta)}({show(u)})", semisimple_element(model, beta, u))
        for beta in model.system.simples
        for u in R.units()
    ]
    width = len(model.torus_rows)
    for idx in range(width):
        for u in R.units():
            params = [R.one] * width
            params[idx] = u
            instances.append((f"torus-row-{idx}({show(u)})", torus_element(model, params)))
    return instances


def _preserves_form(cr, mats, F, n):
    """One boolean per matrix g of `mats`: g^T F g = F, on coded rows."""
    G = encode_matrices(cr, mats)
    Gt = G.reshape(-1, n, n).transpose(0, 2, 1).reshape(G.shape)
    Fv = encode_matrix(cr, F)
    return (mul_rows(cr, mul_batch_right(cr, Gt, Fv, n), G, n) == Fv).all(axis=1)


def _check_generators(rep, model, F):
    """Record that every generator instance preserves the form F and has
    determinant one; each record counts every instance and names the first
    that fails."""
    instances = _form_instances(model)
    ok = _preserves_form(coded_ring(model.ring), [g for _, g in instances], F, model.n)
    _record_rows(
        rep, "invariant-form-preserved", "generators-preserve-form", ok,
        lambda k: instances[k][0], cases=len(instances),
    )
    one = model.ring.one
    det_bad = next((name for name, g in instances if g.det() != one), None)
    _record(
        rep, "generator-determinants", "generators-have-determinant-one",
        len(instances), det_bad,
    )


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
    cr = coded_ring(R)
    q = cr.q
    show = R.element_repr
    elements = R.elements()
    positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    # E[p] is the code table of e_ij for (i, j) = positions[p]
    E = elementary_codes(cr, n, positions)
    slot = {pos: p for p, pos in enumerate(positions)}

    def describe(pairs, fmt):
        """fmt filled with the pair and the elements r, s of case k of a
        sweep over pairs, then r, then s."""
        def at(k):
            p, a, b = np.unravel_index(k, (len(pairs), q, q))
            return fmt.format(*pairs[p], show(elements[a]), show(elements[b]))
        return at

    _record_rows(
        rep, "elementary-additivity", "elementary-matrix-additivity",
        np.concatenate([_additive(cr, X, n)[1:] for X in E]),
        describe([(pos,) for pos in positions], "e{0}({1}) * e{0}({2})"),
    )

    def family(poss, c):
        """Code rows e_pos(c) for every position of `poss` and every code
        of the array c, position-major."""
        return E[[slot[pos] for pos in poss]][:, c].reshape(-1, n * n)

    def comm(pairs, a, b):
        """[e_ij(a), e_kl(b)] for every pair (ij, kl) of `pairs` and every
        row of the code arrays a and b, pair-major."""
        ij, kl = [pos for pos, _ in pairs], [pos for _, pos in pairs]
        x, xinv = family(ij, a), family(ij, cr.neg[a])
        y, yinv = family(kl, b), family(kl, cr.neg[b])
        return mul_rows(cr, mul_rows(cr, mul_rows(cr, x, y, n), xinv, n), yinv, n)

    r, s = np.indices((q, q)).reshape(2, -1)
    rs = cr.mul[r, s]
    ident = identity_vec(cr, n)
    both = [(ij, kl) for ij in positions for kl in positions if ij[0] != kl[1]]
    chain = [(ij, kl) for ij, kl in both if ij[1] == kl[0]]
    disjoint = [(ij, kl) for ij, kl in both if ij[1] != kl[0]]
    for check_id, anchor, pairs, b, product, suffix in (
        ("elementary-chain-commutator", "chain-commutator-collapse", chain, s, rs, ""),
        ("elementary-inverse-commutator", "commutator-with-inverse-argument", chain,
         cr.neg[s], cr.neg[rs], "^-1"),
        ("elementary-disjoint-commutator", "disjoint-positions-commute", disjoint,
         s, None, ""),
    ):
        expected = (
            ident if product is None
            else family([(ij[0], kl[1]) for ij, kl in pairs], product)
        )
        ok = (comm(pairs, r, b) == expected).all(axis=1)
        fmt = "[e({0[0]},{0[1]})({2}), e({1[0]},{1[1]})({3})" + suffix + "]"
        _record_rows(rep, check_id, anchor, ok, describe(pairs, fmt), cases=ok.size)

    tuples = _diagonal_rows(cr, np.eye(n, dtype=np.int64))
    ti, r = np.indices((len(tuples), q)).reshape(2, -1)
    ok = np.empty((len(tuples), len(positions), q), bool)
    for p, (i, j) in enumerate(positions):
        scale = cr.mul[tuples[:, i - 1], cr.inv[tuples[:, j - 1]]]
        X = E[p]
        same = _conj_diag(cr, tuples[ti], X[r], n) == X[cr.mul[scale[ti], r]]
        ok[:, p] = same.all(axis=1).reshape(len(tuples), q)

    def diagonal_text(k):
        t, p, r = np.unravel_index(k, ok.shape)
        i, j = positions[p]
        tup = tuple(show(R.decode(int(c))) for c in tuples[t])
        return f"Diag{tup} on e({i},{j})({show(elements[r])})"

    _record_rows(
        rep, "diagonal-conjugation", "diagonal-conjugation-scaling", ok.ravel(),
        diagonal_text, cases=ok.size,
    )
    return rep


# ---------------------------------------------------------------------------
# Borel factorizations


def check_affine_iso(ring):
    """The map (u r; 0 1) -> (1 r/u; 0 1/u) from Aff to Aff- is a group
    isomorphism: no record of `_factorization_checks` on the source
    x(r) diag(u, 1) fails.  phi reads the codes of u and r off each coded
    source row and inverts u with `cr.inv`.  Past `_PAIR_BUDGET` source
    pairs, closure and the homomorphism are tested on the pool of that
    body."""
    R = ring
    if not R.finite:
        raise ChevalleyError("exhaustive affine check needs a finite ring")
    cr = coded_ring(R)

    def phi(S):
        ui = cr.inv[S[:, 0]]
        return np.column_stack([np.full(len(S), cr.one), cr.mul[S[:, 1], ui], ui])

    rep = Report("affine-iso", {"ring": R.descriptor})
    X = elementary_codes(cr, 2, [(1, 2)])[0]
    _factorization_checks(rep, R, X, ((1, 0),), phi, "Aff-", 0)
    return rep.ok


def check_borel_retraction(n, ring):
    """Keeping the leading two-by-two block of an upper triangular matrix
    (entries (1,1), (1,2), (2,2)) retracts the full triangular group onto
    its embedded two-by-two copy."""
    R = ring
    if n < 2:
        raise ChevalleyError("n must be at least 2")
    if not R.finite:
        raise ChevalleyError("exhaustive retraction check needs a finite ring")
    cr = coded_ring(R)
    # the identity, e_ij(t) for i < j and t an additive generator, and the
    # diagonals with one entry a unit other than one
    ident = identity_vec(cr, n)
    upper = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    tadd = [R.encode(t) for t in additive_presentation(R).generators]
    units = cr.unit_codes
    k, u = np.indices((n, len(units) - 1)).reshape(2, -1)
    diagonals = np.tile(ident, (k.size, 1))
    diagonals[np.arange(k.size), k * (n + 1)] = units[units != cr.one][u]
    G = np.concatenate([
        ident[None], elementary_codes(cr, n, upper)[:, tadd].reshape(-1, n * n), diagonals,
    ])
    window = ((1, 1), (1, 2), (2, 2))
    RG = _retract_codes(cr, G, n, window)
    g, h = np.indices((len(G), len(G))).reshape(2, -1)
    lhs = _retract_codes(cr, mul_rows(cr, G[g], G[h], n), n, window)
    if not (lhs == mul_rows(cr, RG[g], RG[h], n)).all():
        return False
    a, b, r = np.indices((len(units), len(units), cr.q)).reshape(3, -1)
    block = np.tile(ident, (r.size, 1))
    block[:, 0], block[:, 1], block[:, n + 1] = units[a], r, units[b]
    return bool((_retract_codes(cr, block, n, window) == block).all())


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


def _block_reader(cr, n, read, gm):
    """phi: coded g -> codes of its two-by-two block at rows/columns
    `read` = (p, q), entries (p,p), (p,q), (q,q), then of its diagonal
    entries at `gm`: a column selection."""
    p, q = read
    cols = [_at(n, p, p), _at(n, p, q), _at(n, q, q), *(_at(n, t, t) for t in gm)]

    def phi(S):
        if (S[:, _at(n, q, p)] != cr.zero).any():
            raise ChevalleyError("unreadable element: lower corner nonzero")
        return S[:, cols]

    return phi


def _affine_target(cr, kind, tails):
    """Code rows (a, r, b, *t) of a Borel factorization's target: the block
    (a r; 0 b) of `kind` times every tuple t of `tails` units.  Aff- has
    a = 1, B2 any units a and b, B2deg b = a^-1."""
    units = cr.unit_codes
    nu = len(units)
    if kind == "B2":
        a, b, r, *t = np.indices((nu, nu, cr.q) + (nu,) * tails).reshape(3 + tails, -1)
        a, b = units[a], units[b]
    else:
        u, r, *t = np.indices((nu, cr.q) + (nu,) * tails).reshape(2 + tails, -1)
        b = units[u]
        a = np.full(r.size, cr.one) if kind == "Aff-" else cr.inv[b]
    return np.column_stack([a, r, b, *(units[c] for c in t)])


# product codes per block of left factors in `_pair_sweep`
_PAIR_BLOCK = 1 << 15


def _pair_sweep(cr, S, img, pool, source_keys, last, n):
    """Source closure and the homomorphism law on every pair of `pool`.

    Returns (cases, tested, closed, first): the number of pairs, the
    number whose product lies in the source, whether every product does,
    and the first tested pair (g, h), left-major, with phi(g h) !=
    phi(g) phi(h), as row indices of S, or None.  A product is found in
    the source by its key: at position k of `source_keys`, whose source
    row `last[k]` has the image phi(g h).  The left factors go through
    `mul_pairs` a block at a time: at most `_PAIR_BLOCK` product codes,
    and at least one factor."""
    m = len(pool)
    right = S[pool]
    (a2, r2, b2), t2 = img[pool, :3].T, img[pool, 3:]
    step = max(1, _PAIR_BLOCK // (m * n * n))
    tested = 0
    closed = True
    first = None
    for lo in range(0, m, step):
        left = pool[lo : lo + step]
        prod = pack_keys(cr, mul_pairs(cr, S[left], right, n), n)
        pos = np.searchsorted(source_keys, prod).clip(max=len(source_keys) - 1)
        inside = source_keys[pos] == prod
        tested += int(inside.sum())
        closed = closed and bool(inside.all())
        if first is None:
            # (a r; 0 b)(a2 r2; 0 b2) = (a a2, a r2 + r b2; 0, b b2)
            a, r, b = img[left, :3].T[:, :, None]
            block = np.stack(
                [cr.mul[a, a2], cr.add[cr.mul[a, r2], cr.mul[r, b2]], cr.mul[b, b2]],
                axis=-1,
            )
            tail = cr.mul[img[left, None, 3:], t2]
            composed = np.concatenate([block, tail], axis=-1).reshape(prod.shape[0], -1)
            wrong = np.flatnonzero(inside & (img[last[pos]] != composed).any(axis=1))
            if wrong.size:
                first = (left[wrong[0] // m], pool[wrong[0] % m])
    return m * m, tested, closed, first


def _factorization_checks(rep, R, X, rows, phi, kind, tails):
    """The six records of one Borel factorization.

    The source is x(r) d(units) over r in R and units in (R^x)^k, where
    row c of the code table X is x(r) for r of code c, and d has the k
    torus exponent rows `rows`.  The predicted size of source and target
    is |R| |R^x|^k.  Source, map and target are coded: the source S scales
    the columns of x(r) by the diagonal codes of d(units), phi maps S to
    rows (a, r, b, *tails), the codes of a two-by-two upper triangular
    block (a r; 0 b) and of `tails` units, and the target is
    `_affine_target(cr, kind, tails)`.  The map records compare sets of
    code tuples.  Source pairs are all tested when there are at most
    _PAIR_BUDGET of them, else those of a pool: additive generators r, or
    at most one non-one unit.  `_pair_sweep` multiplies the pairs in
    blocks of left factors, finds each product in the source by its key,
    and forms phi(g) phi(h) from the codes of the two images."""
    units = R.units()
    cr = coded_ring(R)
    k, n = len(rows), len(rows[0])
    params = [(r, tup) for r in R.elements() for tup in itertools.product(units, repeat=k)]
    D = _diagonal_rows(cr, rows)
    ri, ti = np.indices((cr.q, len(D))).reshape(2, -1)
    S = cr.mul[X[ri].reshape(-1, n, n), D[ti, None, :]].reshape(-1, n * n)
    keys = pack_keys(cr, S, n)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeat = sorted_keys[1:] == sorted_keys[:-1]
    collision = None
    if repeat.any():
        r, tup = params[order[1:][repeat].min()]
        collision = f"r={R.element_repr(r)} torus={tuple(map(R.element_repr, tup))}"
    _record(rep, "parametrization-injective", "borel-parametrization", len(S), collision)
    # one key per source element; `last` names the last parameters giving it
    last = np.append(~repeat, True)
    source_keys, last = sorted_keys[last], order[last]

    target = _affine_target(cr, kind, tails)
    predicted = R.order() * len(units) ** k
    card_ok = len(target) == predicted and len(S) == predicted
    rep.check(
        "target-cardinality",
        "borel-target-cardinality",
        counts={"target": len(target), "source": len(S), "predicted": predicted},
        counterexample=None
        if card_ok
        else f"target {len(target)}, source {len(S)}, predicted {predicted}",
    )

    img = phi(S)
    images = set(map(tuple, img.tolist()))
    rep.check(
        "map-injective",
        "borel-map-injectivity",
        counts={"cases": len(S)},
        counterexample=None
        if len(images) == len(S)
        else "two source elements share an image",
    )
    rep.check(
        "map-bijective",
        "borel-map-image",
        counts={"cases": len(target)},
        counterexample=None
        if images == set(map(tuple, target.tolist()))
        else "image differs from the enumerated target",
    )

    owner = [params[i] for i in last[np.searchsorted(source_keys, keys)]]
    pool = np.arange(len(S))
    if len(S) ** 2 > _PAIR_BUDGET:
        tadd = set(additive_presentation(R).generators)
        pool = pool[[r in tadd or sum(u != R.one for u in tup) <= 1 for r, tup in owner]]
    cases, tested, closed, first = _pair_sweep(cr, S, img, pool, source_keys, last, n)
    closed_bad = None if closed else "product left the source set"
    bad = None if first is None else f"pair ({owner[first[0]]}, {owner[first[1]]})"
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
    cr = coded_ring(R)
    n, gm = model.n, case["gm"]
    if case["read"] is None:

        def phi(S):
            u = S[:, _at(n, 2, 2)]
            ru = cr.mul[cr.neg[S[:, _at(n, 5, 1)]], u]
            diag = [_at(n, t, t) for t in gm]
            return np.column_stack([np.full(len(S), cr.one), ru, u, S[:, diag]])

    else:
        phi = _block_reader(cr, n, case["read"], gm)
    _factorization_checks(
        rep, R, _family(cr, model, root), model.torus_rows, phi, case["target"], len(gm),
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
    cr = coded_ring(R)
    _factorization_checks(
        rep, R, elementary_codes(cr, n, [(i, j)])[0], np.eye(n, dtype=np.int64),
        _block_reader(cr, n, (i, j), gm), "B2", len(gm),
    )
    return rep
