"""Coset complexes of finite matrix groups and their topology.

The complex of a subgroup family assigns one color per family member,
one vertex per left coset, and a simplex to every set of cosets with a
common element.  Every simplex extends to a chamber (the cosets of a
single group element through all colors), so the complex is homogeneous
of dimension one less than the family size.  Connectivity, fundamental
group, and low homology are computed combinatorially: union-find for
components; integer Smith form of the coreduced 2-skeleton's Morse
boundary for H_1; and rational ranks of the unreduced boundary maps, by
column reduction in cell order, for Betti numbers.  pi_1 is trivial when
the coreduction's matching, checked from the boundary maps alone, leaves
one critical vertex and no critical edge (Forman, *Morse theory for cell
complexes*, 1998); otherwise the second route enumerates a spanning-tree
presentation of the edge-path group after Tietze reduction.
"""

from itertools import combinations

import numpy as np

from .config import BudgetExceeded, get_budget
from .kernels import (
    coded_ring,
    coset_labels,
    encode_matrices,
    group_closure,
    closure_order,
    unpack_keys,
)
from .presentation import (
    Presentation,
    free_reduce,
    generator_list,
    inverse_word,
    tietze_reduce,
    todd_coxeter,
)
from .reports import INCONCLUSIVE, Report
from .snf import check_matching, morse_complex, rational_rank, smith_invariant_factors


class ComplexError(ValueError):
    pass


# -- simplicial complexes ----------------------------------------------------


class SimplicialComplex:
    """Vertices with colors plus simplex lists per dimension.

    Simplices are strictly increasing vertex tuples; the lists are sorted
    and closed under taking faces (dimension 0 lists every vertex).
    """

    def __init__(self, vertices, colors, simplices):
        self.vertices = tuple(vertices)
        self.colors = tuple(int(c) for c in colors)
        if len(self.colors) != len(self.vertices):
            raise ComplexError("one color per vertex required")
        nv = len(self.vertices)
        cleaned = []
        for dim, level in enumerate(simplices):
            level = tuple(tuple(int(v) for v in s) for s in level)
            for s in level:
                if len(s) != dim + 1:
                    raise ComplexError(f"simplex {s} has wrong dimension")
                if any(not 0 <= v < nv for v in s):
                    raise ComplexError(f"simplex {s} out of range")
                if any(s[a] >= s[a + 1] for a in range(len(s) - 1)):
                    raise ComplexError(f"simplex {s} is not strictly increasing")
            if sorted(set(level)) != sorted(level):
                raise ComplexError("duplicate simplices in one dimension")
            cleaned.append(tuple(sorted(level)))
        while cleaned and not cleaned[-1]:
            cleaned.pop()
        self.simplices = tuple(cleaned)
        if self.simplices and set(self.simplices[0]) != {
            (v,) for v in range(nv)
        }:
            raise ComplexError("dimension 0 must list every vertex")
        for dim in range(1, len(self.simplices)):
            lower = set(self.simplices[dim - 1])
            for s in self.simplices[dim]:
                for a in range(len(s)):
                    if s[:a] + s[a + 1 :] not in lower:
                        raise ComplexError(f"face of {s} missing")

    @property
    def dim(self):
        return len(self.simplices) - 1

    @property
    def f_vector(self):
        return tuple(len(level) for level in self.simplices)

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.vertices == other.vertices
            and self.colors == other.colors
            and self.simplices == other.simplices
        )

    def __repr__(self):
        return f"SimplicialComplex(f={self.f_vector})"


class CosetComplex(SimplicialComplex):
    """Coset complex retaining the sorted keys of its ambient group."""

    def __init__(self, vertices, colors, simplices, keys):
        super().__init__(vertices, colors, simplices)
        self.keys = keys


# -- construction -------------------------------------------------------------


def _base_q(q, codes):
    """The row-major base-q integer of a matrix's codes."""
    key = 0
    for c in codes:
        key = key * q + int(c)
    return key


def coset_complex(group, family, budget=None):
    """Left-coset complex of a finite matrix group over a subgroup family.

    One color per family member; vertex payloads are (color, base-q integer
    of the minimal coset element's codes) so vertex identity is stable
    across runs and key formats.
    """
    budget = get_budget(budget)
    family = list(family)
    if not family:
        raise ComplexError("family must be nonempty")
    gens = generator_list(group)
    if not gens:
        raise ComplexError("ambient group needs at least one generator")
    ring = gens[0].ring
    if not ring.finite:
        raise ComplexError("coset complexes need a finite ring")
    n = gens[0].n
    cr = coded_ring(ring)
    status, keys = group_closure(cr, encode_matrices(cr, gens), n, budget=budget)
    if status != "complete":
        raise BudgetExceeded("inconclusive-budget: group closure overflowed")
    elems = unpack_keys(keys, cr, n)
    labels = []
    for member in family:
        mstatus, mkeys = group_closure(
            cr, encode_matrices(cr, generator_list(member)), n, budget=budget
        )
        if mstatus != "complete":
            raise BudgetExceeded("inconclusive-budget: member closure overflowed")
        if not np.isin(mkeys, keys).all():
            raise ComplexError(
                "family member is not contained in the ambient group"
            )
        labels.append(coset_labels(cr, elems, keys, unpack_keys(mkeys, cr, n), n))

    vertices = []
    colors = []
    offsets = []
    for color, (lab, reps) in enumerate(labels):
        offsets.append(len(vertices))
        for r in reps:
            vertices.append((color, _base_q(cr.q, elems[r])))
            colors.append(color)

    m = len(family)
    stacked = np.stack([lab for lab, _ in labels], axis=1)
    for color in range(m):
        stacked[:, color] += offsets[color]
    chambers = sorted({tuple(int(v) for v in row) for row in stacked})

    levels = [set() for _ in range(m)]
    for ch in chambers:
        for size in range(1, m + 1):
            for sub in combinations(ch, size):
                levels[size - 1].add(sub)
    simplices = tuple(tuple(sorted(level)) for level in levels)
    return CosetComplex(vertices, colors, simplices, keys)


# -- connectivity and homotopy -------------------------------------------------


def connected_components(cx):
    nv = len(cx.vertices)
    if nv == 0:
        return 0
    parent = list(range(nv))

    def rep(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    if cx.dim >= 1:
        for u, v in cx.simplices[1]:
            ru, rv = rep(u), rep(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
    return len({rep(v) for v in range(nv)})


def fundamental_group(cx, basepoint=0):
    """Spanning-tree presentation of pi_1.

    Generators are the non-tree edges, one relator per 2-simplex from its
    tree-collapsed boundary.  Different basepoints give presentations of
    the same group.
    """
    nv = len(cx.vertices)
    if not 0 <= basepoint < nv:
        raise ComplexError(f"basepoint {basepoint} out of range")
    if connected_components(cx) != 1:
        raise ComplexError("fundamental group needs a connected complex")
    edges = cx.simplices[1] if cx.dim >= 1 else ()
    adj = [[] for _ in range(nv)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()
    tree = set()
    seen = {basepoint}
    frontier = [basepoint]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    tree.add((min(u, v), max(u, v)))
                    nxt.append(v)
        frontier = nxt
    letter = {}
    names = []
    for e in edges:
        if e not in tree:
            letter[e] = len(names) + 1
            names.append(f"x{len(names) + 1}")

    def word(u, v):
        e = (min(u, v), max(u, v))
        if e in tree:
            return ()
        g = letter[e]
        return (g,) if u < v else (-g,)

    relators = []
    if cx.dim >= 2:
        for a, b, c in cx.simplices[2]:
            relators.append(
                free_reduce(word(a, b) + word(b, c) + inverse_word(word(a, c)))
            )
    return Presentation(tuple(names), tuple(relators))


def is_simply_connected(cx, budget=None, h1=None):
    """"yes", "no", or "inconclusive" (enumeration overflow).

    The 2-skeleton is coreduced once (``_homology_h1``).  Nonzero first
    homology, read off its Morse complex, settles "no" outright.  A checked
    matching that leaves one critical vertex and no critical edge settles
    "yes": the 2-skeleton is then homotopy equivalent to a CW complex with
    no 1-cell (Forman 1998).  Otherwise the second route runs: the reduced
    spanning-tree presentation of the edge-path group is enumerated, and
    only a complete enumeration with a single coset yields "yes".  ``h1``
    is the H1 and critical cell counts of ``_homology_h1(cx)`` when the
    caller already has them.
    """
    if connected_components(cx) != 1:
        raise ComplexError("simple connectivity needs a connected complex")
    (rank, torsion), critical = _homology_h1(cx)[:2] if h1 is None else h1
    if rank or torsion:
        return "no"
    if critical[:2] == (1, 0):
        return "yes"
    pres = tietze_reduce(fundamental_group(cx))
    if not pres.generators:
        return "yes"
    table = todd_coxeter(pres, (), budget)
    if table.status != "complete":
        return "inconclusive"
    return "yes" if table.count == 1 else "no"


# -- homology -------------------------------------------------------------------


def _boundary_matrix(cx, k):
    """Rows indexed by (k-1)-simplices, columns by k-simplices."""
    if not 1 <= k <= cx.dim:
        raise ComplexError(f"no boundary map in dimension {k}")
    lower = {s: i for i, s in enumerate(cx.simplices[k - 1])}
    triplets = []
    for j, s in enumerate(cx.simplices[k]):
        for a in range(len(s)):
            face = s[:a] + s[a + 1 :]
            triplets.append((lower[face], j, (-1) ** a))
    return triplets, (len(cx.simplices[k - 1]), len(cx.simplices[k]))


def homology_h1(cx):
    """(rank, torsion factors) of first homology over the integers, from
    Smith normal form of the Morse boundary left by coreducing the
    2-skeleton."""
    return _homology_h1(cx)[0]


def _homology_h1(cx):
    """``homology_h1(cx)``, the critical cells per degree of the 2-skeleton's
    checked matching, and the ∂1 and ∂2 they were computed from, as
    ``_boundary_matrix`` gives them (None where the complex has no such map).

    The 2-skeleton is coreduced (``morse_complex``), and only its Morse
    boundaries are read.  Each component opens with a critical vertex and
    reduces onto it before any other cell becomes critical, so the Morse
    ∂1 is zero, and H1 is the cokernel of the Morse ∂2.  The matching is
    checked from ∂1 and ∂2 alone (``check_matching``); a matching that fails
    the check is a fault of the coreduction and raises AssertionError.
    """
    if cx.dim < 1:
        return (0, ()), (len(cx.vertices), 0, 0), None, None
    d1 = _boundary_matrix(cx, 1)
    d2 = _boundary_matrix(cx, 2) if cx.dim >= 2 else None
    skeleton = [d1, d2 or ([], (d1[1][1], 0))]
    ((m1, _), (m2, (edges, faces))), pairs = morse_complex(skeleton)
    if m1:
        raise AssertionError("coreduction left a nonzero Morse boundary ∂1")
    try:
        critical = check_matching(skeleton, pairs)
    except ValueError as exc:
        raise AssertionError(f"coreduction gave an invalid matching: {exc}") from exc
    factors = smith_invariant_factors(m2, edges, faces)
    torsion = tuple(int(d) for d in factors if d > 1)
    return (edges - len(factors), torsion), critical, d1, d2


def betti_numbers(cx):
    """Rational Betti numbers b_0..b_dim via boundary ranks."""
    if len(cx.vertices) == 0:
        return ()
    ranks = [0]
    for k in range(1, cx.dim + 1):
        tk, (rows, cols) = _boundary_matrix(cx, k)
        ranks.append(rational_rank(tk, rows, cols))
    ranks.append(0)
    return tuple(
        len(cx.simplices[k]) - ranks[k] - ranks[k + 1]
        for k in range(cx.dim + 1)
    )


# -- structure checks ------------------------------------------------------------


def check_homogeneous_colorable(cx, expected_dim):
    """True iff simplices have pairwise-distinct colors and every simplex
    extends to one of dimension exactly expected_dim."""
    if cx.dim != expected_dim:
        return False
    for level in cx.simplices:
        for s in level:
            cols = [cx.colors[v] for v in s]
            if len(set(cols)) != len(cols):
                return False
    top = set()
    for s in cx.simplices[expected_dim]:
        for size in range(1, len(s) + 1):
            top.update(combinations(s, size))
    for level in cx.simplices:
        for s in level:
            if s not in top:
                return False
    return True


def export_complex(cx):
    """One line per simplex: dimension then vertex ids, all dims ascending."""
    lines = []
    for dim, level in enumerate(cx.simplices):
        for s in level:
            lines.append(" ".join([str(dim)] + [str(v) for v in s]))
    return "\n".join(lines) + "\n"


def verify_complex(n, ring, family="horospherical", checks=("components", "h1", "pi1"), budget=None):
    """Structure report for one flagship coset complex.

    family selects the subgroup family ("horospherical" inside the full
    triangular group, "contracting" inside its unipotent part).  Verdicts
    land in the report config (components, h1_rank, h1_torsion, pi1) so
    front ends can print them; each requested check also cross-validates
    the verdict against an independent computation.
    """
    from .abels import subgroup_family

    budget = get_budget(budget)
    ambient, members = subgroup_family(family, n, ring)
    rep = Report(
        "complex", {"n": n, "ring": ring.descriptor, "family": family}
    )
    try:
        cx = coset_complex(ambient, members, budget=budget)
    except BudgetExceeded as exc:
        rep.check(
            "construction",
            "coset-complex-construction",
            INCONCLUSIVE,
            counts={"cases": 0},
            counterexample=str(exc),
        )
        return rep
    rep.config["vertices"] = len(cx.vertices)
    rep.config["dim"] = cx.dim

    homogeneous = check_homogeneous_colorable(cx, len(members) - 1)
    rep.check(
        "homogeneous-colorable",
        "chambers-span-every-color",
        counts={"chambers": len(cx.simplices[-1])},
        counterexample=None
        if homogeneous
        else "a simplex repeats a color or misses the top dimension",
    )

    components = connected_components(cx)
    rep.config["components"] = components
    if "components" in checks:
        union_gens = []
        for m in members:
            union_gens.extend(generator_list(m))
        try:
            generated = closure_order(
                ring, union_gens, budget, what="generation check"
            )
        except BudgetExceeded as exc:
            rep.check(
                "components",
                "connected-iff-family-generates",
                INCONCLUSIVE,
                counts={"components": components},
                counterexample=str(exc),
            )
        else:
            order = len(cx.keys)
            agree = (components == 1) == (generated == order)
            rep.check(
                "components",
                "connected-iff-family-generates",
                counts={
                    "components": components,
                    "generated": generated,
                    "group_order": order,
                },
                counterexample=None
                if agree
                else f"components={components}, generated={generated} of {order}",
            )

    (rank, torsion), critical, d1, d2 = _homology_h1(cx)
    rep.config["h1_rank"] = rank
    rep.config["h1_torsion"] = len(torsion)
    if "h1" in checks:
        # b1 = e - rank ∂1 - rank ∂2 over the rationals, on the unreduced maps
        betti1 = 0
        if d1 is not None:
            betti1 = len(cx.simplices[1]) - rational_rank(d1[0], *d1[1])
        if d2 is not None:
            betti1 -= rational_rank(d2[0], *d2[1])
        agree = rank == betti1
        rep.check(
            "first-homology",
            "smith-rank-matches-rational-rank",
            counts={"rank": rank, "rational_rank": betti1, "torsion": len(torsion)},
            counterexample=None
            if agree
            else f"smith normal form gives rank {rank}, rational rank {betti1}",
        )

    if "pi1" in checks:
        if components != 1:
            rep.config["pi1"] = "no"
            rep.check(
                "simple-connectivity",
                "disconnected-complexes-are-not-simply-connected",
                counts={"components": components},
            )
        else:
            verdict = is_simply_connected(
                cx, budget=budget, h1=((rank, torsion), critical)
            )
            rep.config["pi1"] = verdict
            detail = None
            if verdict == "yes" and (rank or torsion):
                detail = f"verdict yes but H1 = (rank {rank}, torsion {torsion})"
            rep.check(
                "simple-connectivity",
                "trivial-pi1-forces-trivial-h1",
                INCONCLUSIVE if verdict == "inconclusive" else None,
                counts={
                    "h1_rank": rank,
                    "h1_torsion": len(torsion),
                    "critical_edges": critical[1],
                },
                counterexample=detail,
            )
    return rep
