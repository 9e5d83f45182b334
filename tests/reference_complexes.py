"""A second construction of coset complexes, used only by tests.

`nerve_oracle` builds the nerve of the left-coset covering from explicit
`Matrix` element sets, sharing no code with the coded BFS and coset labels
of `abelslab.complexes.coset_complex`; the tests require both to give the
same complex.  `euler_characteristic` is the alternating count of
simplices, which the tests compare with the Betti numbers.
"""

from abelslab.complexes import ComplexError, SimplicialComplex, _base_q
from abelslab.presentation import generator_list
from reference_kernels import closure_set


def euler_characteristic(cx):
    return sum((-1) ** k * len(level) for k, level in enumerate(cx.simplices))


def _python_element_key(ring, mat):
    return tuple(ring.encode(x) for row in mat.rows for x in row)


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
