"""Coset complexes of finite matrix groups and their topology.

The complex of a subgroup family assigns one color per family member,
one vertex per left coset, and a simplex to every set of cosets with a
common element.  Every simplex extends to a chamber (the cosets of a
single group element through all colors), so the complex is homogeneous
of dimension one less than the family size.  Connectivity, fundamental
group, and low homology are computed combinatorially: union-find for
components, a spanning-tree presentation for pi_1 (enumerated after
Tietze reduction), integer Smith form of the coreduced 2-skeleton's Morse
boundary for H_1, and rational ranks of the unreduced boundary maps for
Betti numbers.
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
    closure_set,
    identity_vec,
    mul_batch_left,
    mul_batch_right,
    pack_keys,
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
from .snf import morse_complex, rational_rank, smith_invariant_factors


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

    def euler_characteristic(self):
        return sum(
            (-1) ** k * len(level) for k, level in enumerate(self.simplices)
        )

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
    """Coset complex retaining the group data behind each vertex."""

    def __init__(
        self,
        vertices,
        colors,
        simplices,
        ring,
        n,
        keys,
        labels,
        offsets,
        member_keys,
    ):
        super().__init__(vertices, colors, simplices)
        self.ring = ring
        self.n = n
        self.keys = keys
        self.labels = labels
        self.offsets = tuple(offsets)
        self.member_keys = tuple(member_keys)


# -- construction -------------------------------------------------------------


def _python_element_key(ring, mat):
    return tuple(ring.encode(x) for row in mat.rows for x in row)


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
    status, elems, keys = group_closure(
        cr, encode_matrices(cr, gens), n, budget=budget
    )
    if status != "complete":
        raise BudgetExceeded("inconclusive-budget: group closure overflowed")
    labels = []
    member_keys = []
    for member in family:
        mstatus, melems, mkeys = group_closure(
            cr, encode_matrices(cr, generator_list(member)), n, budget=budget
        )
        if mstatus != "complete":
            raise BudgetExceeded("inconclusive-budget: member closure overflowed")
        if not np.isin(mkeys, keys).all():
            raise ComplexError(
                "family member is not contained in the ambient group"
            )
        labels.append(coset_labels(cr, elems, keys, melems, n))
        member_keys.append(mkeys)

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
    return CosetComplex(
        vertices,
        colors,
        simplices,
        ring,
        n,
        keys,
        tuple(labels),
        offsets,
        member_keys,
    )


def nerve_oracle(group, family, budget=200):
    """Brute-force nerve of the left-coset covering, for cross-checking.

    Enumerates every coset as an explicit element set and tests every
    color-distinct subset for a common element.  Intended for small groups;
    the budget caps the ambient order.
    """
    family = list(family)
    if not family:
        raise ComplexError("family must be nonempty")
    gens = generator_list(group)
    ring = gens[0].ring
    elements = sorted(
        closure_set(ring, gens, budget),
        key=lambda m: _python_element_key(ring, m),
    )
    element_set = set(elements)
    cosets = []
    vertices = []
    colors = []
    for color, member in enumerate(family):
        mset = closure_set(
            ring, generator_list(member), budget, what="member closure"
        )
        if not mset <= element_set:
            raise ComplexError(
                "family member is not contained in the ambient group"
            )
        seen = set()
        for g in elements:
            coset = frozenset(g.mul(h) for h in mset)
            if coset not in seen:
                seen.add(coset)
                cosets.append((color, coset))
                vertices.append((color, _base_q(ring.order(), min(
                    _python_element_key(ring, m) for m in coset
                ))))
                colors.append(color)
    nv = len(vertices)
    levels = [tuple((v,) for v in range(nv))]
    current = [((v,), cosets[v][1]) for v in range(nv)]
    for _ in range(1, len(family)):
        nxt = []
        for simplex, common in current:
            last = simplex[-1]
            for v in range(last + 1, nv):
                if cosets[v][0] == cosets[last][0]:
                    continue
                if any(cosets[v][0] == cosets[u][0] for u in simplex):
                    continue
                inter = common & cosets[v][1]
                if inter:
                    nxt.append((simplex + (v,), inter))
        if not nxt:
            break
        levels.append(tuple(sorted(s for s, _ in nxt)))
        current = nxt
    return SimplicialComplex(vertices, colors, levels)


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

    Nonzero first homology (``homology_h1``, read off the Morse complex of
    the coreduced 2-skeleton) settles "no" outright; otherwise the reduced
    spanning-tree presentation is enumerated, and only a complete
    enumeration with a single coset yields "yes".  ``h1`` is the
    (rank, torsion) of ``homology_h1(cx)`` when the caller already has it.
    """
    if connected_components(cx) != 1:
        raise ComplexError("simple connectivity needs a connected complex")
    rank, torsion = homology_h1(cx) if h1 is None else h1
    if rank or torsion:
        return "no"
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
    """``homology_h1(cx)`` and the ∂1 and ∂2 it was computed from, as
    ``_boundary_matrix`` gives them (None where the complex has no such map).

    The 2-skeleton is coreduced (``morse_complex``), and only its Morse
    boundaries are read.  Each component opens with a critical vertex and
    reduces onto it before any other cell becomes critical, so the Morse
    ∂1 is zero, and H1 is the cokernel of the Morse ∂2.
    """
    if cx.dim < 1:
        return (0, ()), None, None
    d1 = _boundary_matrix(cx, 1)
    d2 = _boundary_matrix(cx, 2) if cx.dim >= 2 else None
    (m1, _), (m2, (edges, faces)) = morse_complex([d1, d2 or ([], (d1[1][1], 0))])
    if m1:
        raise AssertionError("coreduction left a nonzero Morse boundary ∂1")
    factors = smith_invariant_factors(m2, edges, faces)
    torsion = tuple(int(d) for d in factors if d > 1)
    return (edges - len(factors), torsion), d1, d2


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


def action_analysis(group, cx, budget=None):
    """Left-multiplication action of the group on its coset complex.

    Three exhaustive checks: the induced vertex map of every group element
    is a well-defined color-preserving permutation; the maximal simplices
    of the complex are exactly the chambers of group elements (one orbit);
    and the stabilizer of every chamber is the correspondingly conjugated
    intersection of the family members.
    """
    budget = get_budget(budget)
    if not isinstance(cx, CosetComplex):
        raise ComplexError("action analysis needs a coset complex")
    gens = generator_list(group)
    ring = gens[0].ring
    n = gens[0].n
    rep = Report(suite="action", config={"ring": ring.descriptor, "n": n})
    cr = coded_ring(ring)
    status, elems, keys = group_closure(
        cr, encode_matrices(cr, gens), n, budget=budget
    )
    if status != "complete":
        raise BudgetExceeded("inconclusive-budget: group closure overflowed")
    if elems.shape[0] != cx.keys.shape[0] or not (keys == cx.keys).all():
        raise ComplexError("group does not match the complex")
    rep.config["order"] = int(len(keys))
    order = elems.shape[0]
    m = len(cx.labels)
    stacked = np.stack([lab for lab, _ in cx.labels], axis=1)
    for color in range(m):
        stacked[:, color] += cx.offsets[color]

    # position of g*x for every x, one row per g
    perms = np.empty((order, order), dtype=np.int64)
    for gi in range(order):
        moved = mul_batch_left(cr, elems[gi], elems, n)
        perms[gi] = np.searchsorted(keys, pack_keys(cr, moved, n))

    bad = None
    counts = 0
    for gi in range(order):
        pos = perms[gi]
        for color, (lab, _) in enumerate(cx.labels):
            counts += 1
            ncosets = int(lab.max()) + 1
            image = np.empty(ncosets, dtype=np.int64)
            image[lab] = lab[pos]
            if not (image[lab] == lab[pos]).all():
                bad = f"element {gi} does not act on color {color} cosets"
                break
            if not (np.sort(image) == np.arange(ncosets)).all():
                bad = f"element {gi} is not a permutation on color {color}"
                break
        if bad:
            break
    rep.check(
        "vertex-action",
        "elements-permute-vertices-within-colors",
        counts={"cases": counts},
        counterexample=bad,
    )

    chambers = {tuple(int(v) for v in row) for row in stacked}
    maximal = set(cx.simplices[m - 1])
    one_orbit = chambers == maximal
    rep.check(
        "chamber-orbit",
        "maximal-simplices-are-element-chambers",
        counts={"chambers": len(chambers), "maximal": len(maximal)},
        counterexample=None
        if one_orbit
        else f"{len(chambers)} chambers vs {len(maximal)} maximal simplices",
    )

    ident_pos = int(
        np.searchsorted(keys, pack_keys(cr, identity_vec(cr, n)[None], n))[0]
    )
    base = stacked[ident_pos]
    base_stab = np.nonzero((stacked == base[None, :]).all(axis=1))[0]
    meet = cx.member_keys[0]
    for mk in cx.member_keys[1:]:
        meet = np.intersect1d(meet, mk)
    inter_ok = (
        base_stab.size == meet.size
        and (keys[base_stab] == np.sort(meet)).all()
    )
    rep.check(
        "base-stabilizer",
        "base-chamber-stabilizer-is-family-intersection",
        counts={"stabilizer": int(base_stab.size), "intersection": int(meet.size)},
        counterexample=None
        if inter_ok
        else f"stabilizer {base_stab.size} vs intersection {meet.size}",
    )

    bad = None
    checked = 0
    hit_r, hit_c = np.nonzero(perms == ident_pos)
    inv_pos = np.empty(order, dtype=np.int64)
    inv_pos[hit_r] = hit_c
    for hi in range(order):
        checked += 1
        # stabilizer of the chamber of h, computed from the action
        gh_pos = perms[:, hi]
        stab = np.nonzero((stacked[gh_pos] == stacked[hi][None, :]).all(axis=1))[0]
        # h * (base stabilizer) * h^-1, computed from the group
        conj = mul_batch_right(
            cr,
            mul_batch_left(cr, elems[hi], elems[base_stab], n),
            elems[int(inv_pos[hi])],
            n,
        )
        expected = np.sort(np.searchsorted(keys, pack_keys(cr, conj, n)))
        if stab.shape != expected.shape or not (stab == expected).all():
            bad = f"chamber of element {hi} has an unexpected stabilizer"
            break
    rep.check(
        "chamber-stabilizer",
        "chamber-stabilizers-are-conjugated-intersections",
        counts={"chambers_checked": checked, "base_stabilizer": int(base_stab.size)},
        counterexample=bad,
    )
    return rep


def compare_complexes(n, ring, budget=None):
    """Coset complex of the full horospherical family against the
    unipotent one: components, first homology, and the simple-connectivity
    verdict must agree."""
    from .abels import subgroup_family

    budget = get_budget(budget)
    rep = Report(
        suite="complex-comparison",
        config={"n": n, "ring": ring.descriptor},
    )
    cx_full = coset_complex(*subgroup_family("horospherical", n, ring), budget)
    cx_uni = coset_complex(*subgroup_family("contracting", n, ring), budget)

    c_full = connected_components(cx_full)
    c_uni = connected_components(cx_uni)
    rep.check(
        "components",
        "component-counts-agree",
        counts={"full": c_full, "unipotent": c_uni},
        counterexample=None
        if c_full == c_uni
        else f"{c_full} components vs {c_uni}",
    )

    h_full = homology_h1(cx_full)
    h_uni = homology_h1(cx_uni)
    rep.check(
        "first-homology",
        "first-homology-agrees",
        counts={
            "full_rank": h_full[0],
            "unipotent_rank": h_uni[0],
            "full_torsion": len(h_full[1]),
            "unipotent_torsion": len(h_uni[1]),
        },
        counterexample=None if h_full == h_uni else f"{h_full} vs {h_uni}",
    )

    s_full = is_simply_connected(cx_full, budget, h1=h_full)
    s_uni = is_simply_connected(cx_uni, budget, h1=h_uni)
    rep.check(
        "simple-connectivity",
        "simple-connectivity-verdicts-agree",
        INCONCLUSIVE if s_full == s_uni == "inconclusive" else None,
        counts={"full_vertices": len(cx_full.vertices), "unipotent_vertices": len(cx_uni.vertices)},
        counterexample=None if s_full == s_uni else f"{s_full!r} vs {s_uni!r}",
    )
    return rep


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

    (rank, torsion), d1, d2 = _homology_h1(cx)
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
            verdict = is_simply_connected(cx, budget=budget, h1=(rank, torsion))
            rep.config["pi1"] = verdict
            detail = None
            if verdict == "yes" and (rank or torsion):
                detail = f"verdict yes but H1 = (rank {rank}, torsion {torsion})"
            rep.check(
                "simple-connectivity",
                "trivial-pi1-forces-trivial-h1",
                INCONCLUSIVE if verdict == "inconclusive" else None,
                counts={"h1_rank": rank, "h1_torsion": len(torsion)},
                counterexample=detail,
            )
    return rep
