"""Named subgroups of `abelslab.abels`, used only by tests.

`subgroup_by_name` resolves a short name to its `SubgroupSpec`, so a test
can be parametrized over subgroups by name.
"""

from abelslab.abels import (
    AbelsError,
    abels_group,
    center_subgroup,
    contracting,
    horospherical,
    unipotent_and_torus,
)


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
