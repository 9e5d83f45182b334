"""Reference routes for the root data and invariant forms of
`abelslab.chevalley`.

`reflection_permutation` is the permutation of a root datum's roots by a
reflection, used only to test that the simple reflections permute each
root system.  `form_preserved` tests g^T F g = F with Matrix products, one
instance at a time; the coded sweep of `check_form_invariance` is tested
against it.
"""

from abelslab.chevalley import ChevalleyError, reflect


def reflection_permutation(datum, alpha):
    """Index of the image of each root of `datum` under the reflection
    orthogonal to alpha."""
    index = {r: k for k, r in enumerate(datum.roots)}
    try:
        return tuple(index[reflect(tuple(alpha), r)] for r in datum.roots)
    except KeyError as exc:
        raise ChevalleyError(f"reflection leaves the root set: {exc}") from None


def form_preserved(mats, F):
    """One boolean per Matrix g of `mats`: g^T F g = F."""
    return [g.transpose() @ F @ g == F for g in mats]
