"""Named subgroups of `abelslab.abels` and their plain enumeration, used
only by tests.

`subgroup_by_name` resolves a short name to its `SubgroupSpec`, so a test
can be parametrized over subgroups by name.  `spec_elements` lists a
subgroup's members as `Matrix` objects, the enumeration that the coded
`SubgroupSpec.elements_encoded` is tested against.
"""

import itertools

from abelslab.abels import (
    AbelsError,
    abels_group,
    center_subgroup,
    contracting,
    horospherical,
    unipotent_and_torus,
)
from abelslab.matrices import Matrix


def subgroup_by_name(name, n, ring):
    """A, U, T, Z, H1..H4 or U1..U4, in either case."""
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


def spec_elements(spec):
    """Yield every member of the subgroup, ascending in row-major
    entry-code order."""
    R, n = spec.ring, spec.n
    choices = {"f": R.elements(), "u": R.units()}
    slots = [(i, j) for i in range(n) for j in range(n) if spec.pattern[i][j] in choices]
    base = [
        [R.one if spec.pattern[i][j] == "1" else R.zero for j in range(n)]
        for i in range(n)
    ]
    for combo in itertools.product(*(choices[spec.pattern[i][j]] for i, j in slots)):
        rows = [row[:] for row in base]
        for (i, j), v in zip(slots, combo):
            rows[i][j] = v
        yield Matrix(R, rows)
