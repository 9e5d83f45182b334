from itertools import combinations

import numpy as np
import pytest
import reference_snf
from reference_complexes import euler_characteristic, nerve_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_snf import assert_routes_match_reference

from abelslab import abels
from abelslab.abels import (
    abels_group,
    contracting_family,
    horospherical_family,
    unipotent_and_torus,
)
from abelslab import complexes
from abelslab.complexes import (
    ComplexError,
    CosetComplex,
    SimplicialComplex,
    betti_numbers,
    check_homogeneous_colorable,
    connected_components,
    coset_complex,
    export_complex,
    fundamental_group,
    homology_h1,
    is_simply_connected,
    verify_complex,
)
from abelslab.config import BudgetExceeded
from abelslab.kernels import fits_packing
from abelslab.matrices import Matrix
from abelslab.presentation import Presentation, todd_coxeter
from abelslab.reports import INCONCLUSIVE
from abelslab.rings import make_ring
from abelslab.snf import rational_rank, smith_invariant_factors

Z2 = make_ring("zmod:2")
Z3 = make_ring("zmod:3")


def perm_matrix(images, size=3):
    images = tuple(images) + tuple(range(len(images), size))
    rows = [[Z2.zero] * size for _ in range(size)]
    for src, dst in enumerate(images):
        rows[src][dst] = Z2.one
    return Matrix.from_rows(Z2, rows)


S3_A = perm_matrix((1, 0, 2))
S3_B = perm_matrix((0, 2, 1))
S3_CYC = S3_A @ S3_B


def s3_complex():
    return coset_complex([S3_A, S3_B], ([S3_A], [S3_B]))


# the 6-vertex triangulation of the real projective plane
RP2 = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
)
# its suspension, with cone points 6 and 7
SUSPENDED_RP2 = tuple(s + (c,) for s in RP2 for c in (6, 7))
# a simply connected complex whose coreduction leaves one critical cell in
# each degree 0, 1, 2, so that only the edge-path route decides its pi1
NINE_TRIANGLES = (
    (0, 2, 5), (0, 3, 4), (0, 3, 5), (1, 2, 3), (1, 3, 4),
    (1, 3, 5), (1, 4, 5), (2, 3, 4), (2, 4, 5),
)


def complex_of(top):
    """The complex of these top simplices and all their faces, one color;
    the vertices that occur are numbered 0, 1, ... in the order of their
    labels."""
    number = {v: k for k, v in enumerate(sorted({v for s in top for v in s}))}
    top = [tuple(sorted(number[v] for v in s)) for s in top]
    levels = [
        sorted({f for s in top for f in combinations(s, k + 1)})
        for k in range(max(map(len, top)))
    ]
    nv = len(levels[0])
    return SimplicialComplex(range(nv), (0,) * nv, levels)


def unreduced_h1(cx):
    """H1 from Smith normal form of the whole of ∂1 and ∂2."""
    if cx.dim < 1:
        return (0, ())
    maps = [complexes._boundary_matrix(cx, k) for k in range(1, min(cx.dim, 2) + 1)]
    return reference_snf.homology_h1(*maps)


# -- container validation -----------------------------------------------------


def test_simplicial_complex_validation():
    verts = ("u", "v", "w")
    cols = (0, 1, 2)
    base = (((0,), (1,), (2,)), ((0, 1),))
    cx = SimplicialComplex(verts, cols, base)
    assert cx.dim == 1
    assert cx.f_vector == (3, 1)
    assert euler_characteristic(cx) == 2
    with pytest.raises(ComplexError):
        SimplicialComplex(verts, (0, 1), base)
    with pytest.raises(ComplexError):
        SimplicialComplex(verts, cols, (((0,), (1,), (2,)), ((0, 1, 2),)))
    with pytest.raises(ComplexError):
        SimplicialComplex(verts, cols, (((0,), (1,), (2,)), ((1, 0),)))
    with pytest.raises(ComplexError):
        SimplicialComplex(verts, cols, (((0,), (1,)), ()))
    with pytest.raises(ComplexError):
        SimplicialComplex(verts, cols, (((0,), (1,), (2,), (3,)),))
    with pytest.raises(ComplexError):
        SimplicialComplex(
            verts, cols, (((0,), (1,), (2,)), ((0, 1), (0, 1)))
        )


def test_missing_face_rejected():
    verts = ("u", "v", "w")
    with pytest.raises(ComplexError):
        SimplicialComplex(
            verts,
            (0, 1, 2),
            (((0,), (1,), (2,)), ((0, 1),), ((0, 1, 2),)),
        )


# -- construction ---------------------------------------------------------------


def test_small_dihedral_quotient_complex():
    cx = s3_complex()
    assert isinstance(cx, CosetComplex)
    assert cx.f_vector == (6, 6)
    assert cx.colors == (0, 0, 0, 1, 1, 1)
    assert connected_components(cx) == 1
    pres = fundamental_group(cx)
    assert len(pres.generators) == 1
    assert pres.relators == ()
    assert homology_h1(cx) == (1, ())
    assert is_simply_connected(cx) == "no"


def test_fundamental_group_basepoint_independence():
    cx = s3_complex()
    for base in (0, 3, 5):
        pres = fundamental_group(cx, basepoint=base)
        assert len(pres.generators) == 1 and pres.relators == ()
    with pytest.raises(ComplexError):
        fundamental_group(cx, basepoint=6)


def test_disconnected_complex():
    cx = coset_complex([S3_A, S3_B], ([S3_CYC], [S3_CYC]))
    assert connected_components(cx) == 2
    assert cx.f_vector == (4, 2)
    with pytest.raises(ComplexError):
        fundamental_group(cx)
    with pytest.raises(ComplexError):
        is_simply_connected(cx)


def test_construction_guards():
    with pytest.raises(ComplexError):
        coset_complex([S3_A, S3_B], ())
    with pytest.raises(ComplexError):
        coset_complex([], ([S3_A],))
    # the family member must sit inside the ambient group
    with pytest.raises(ComplexError):
        coset_complex([S3_CYC], ([S3_B],))


def test_byte_keys_match_int64_keys():
    # a budget above 2**26 keeps the coded route and its complex
    coded = s3_complex()
    big = coset_complex([S3_A, S3_B], ([S3_A], [S3_B]), budget=2**26 + 1)
    assert big == coded
    assert [int(k) for k in big.keys] == [int(k) for k in coded.keys]
    u4 = unipotent_and_torus(4, Z2)[0]
    fam = contracting_family(4, Z2)
    assert coset_complex(u4, fam, budget=2**26 + 1) == coset_complex(u4, fam)

    # S3 as 8x8 permutation matrices: 2**64 keys do not pack into int64, so
    # the coded route keys the elements by bytes; vertex payloads are still
    # the base-q integers nerve_oracle computes
    a, b = perm_matrix((1, 0), size=8), perm_matrix((0, 2, 1), size=8)
    assert not fits_packing(Z2.order(), 8)
    plain = coset_complex([a, b], ([a], [b]))
    assert plain == nerve_oracle([a, b], ([a], [b]))
    assert plain.f_vector == (6, 6)
    assert (plain.colors, plain.simplices) == (coded.colors, coded.simplices)
    assert homology_h1(plain) == (1, ())
    assert is_simply_connected(plain) == "no"


# -- flagship instances ----------------------------------------------------------


def test_horospherical_complex_small():
    cx = coset_complex(abels_group(4, Z2), horospherical_family(4, Z2))
    assert cx.f_vector == (40, 192, 224, 64)
    assert cx.dim == 3
    assert check_homogeneous_colorable(cx, 3)
    assert connected_components(cx) == 1
    assert homology_h1(cx) == (0, ())
    assert is_simply_connected(cx) == "yes"
    assert betti_numbers(cx) == (1, 0, 7, 0)
    assert euler_characteristic(cx) == 8
    assert euler_characteristic(cx) == sum(
        (-1) ** k * bk for k, bk in enumerate(betti_numbers(cx))
    )


def test_contracting_complex_rank_five():
    amb = unipotent_and_torus(5, Z2)[0]
    cx = coset_complex(amb, contracting_family(5, Z2))
    assert cx.f_vector == (288, 1152, 1024)
    assert cx.dim == 2
    assert check_homogeneous_colorable(cx, 2)
    assert connected_components(cx) == 1
    assert homology_h1(cx) == (0, ())
    assert is_simply_connected(cx) == "yes"


def test_horospherical_ranks_agree_in_every_degree():
    # A_4(Z/3), f = (162, 1620, 2430, 729): the two routes rank every ∂k
    # alike, and the Betti numbers they give add up to the Euler
    # characteristic
    cx = coset_complex(abels_group(4, Z3), horospherical_family(4, Z3))
    for k in (1, 2, 3):
        tk, (rows, cols) = complexes._boundary_matrix(cx, k)
        assert len(smith_invariant_factors(tk, rows, cols)) == rational_rank(
            tk, rows, cols
        )
    assert euler_characteristic(cx) == sum(
        (-1) ** k * bk for k, bk in enumerate(betti_numbers(cx))
    )


def test_torsion_of_rp2_and_its_suspension():
    rp2 = complex_of(RP2)
    assert rp2.f_vector == (6, 15, 10)
    assert homology_h1(rp2) == (0, (2,))
    assert betti_numbers(rp2) == (1, 0, 0)

    # H2 = Z/2 moves up to the cokernel of ∂3
    sigma = complex_of(SUSPENDED_RP2)
    assert sigma.f_vector == (8, 27, 40, 20)
    assert homology_h1(sigma) == (0, ())
    assert betti_numbers(sigma) == (1, 0, 0, 0)
    t3, (rows, cols) = complexes._boundary_matrix(sigma, 3)
    assert smith_invariant_factors(t3, rows, cols) == [1] * 19 + [2]


def test_boundary_maps_match_reference_routes():
    a, b = perm_matrix((1, 0), size=8), perm_matrix((0, 2, 1), size=8)
    built = [
        s3_complex(),
        coset_complex([S3_A, S3_B], ([S3_CYC], [S3_CYC])),
        coset_complex([a, b], ([a], [b])),
        coset_complex(unipotent_and_torus(4, Z2)[0], contracting_family(4, Z2)),
        coset_complex(abels_group(4, Z2), horospherical_family(4, Z2)),
        coset_complex(unipotent_and_torus(5, Z2)[0], contracting_family(5, Z2)),
        SimplicialComplex("uvw", (0, 1, 0), (((0,), (1,), (2,)), ((0, 1),))),
        complex_of(RP2),
        complex_of(SUSPENDED_RP2),
    ]
    for cx in built:
        for k in range(1, cx.dim + 1):
            tk, (rows, cols) = complexes._boundary_matrix(cx, k)
            assert_routes_match_reference(tk, rows, cols)
        assert homology_h1(cx) == unreduced_h1(cx)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    top=st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=12,
    )
)
@example(top=RP2)
def test_reduced_h1_matches_unreduced_on_random_complexes(top):
    cx = complex_of(top)
    assert homology_h1(cx) == unreduced_h1(cx)


def test_verify_complex_runs_smith_form_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return smith(*args, **kwargs)

    smith = complexes.smith_invariant_factors
    monkeypatch.setattr(complexes, "smith_invariant_factors", counted)
    rep = verify_complex(4, Z2, family="contracting")
    assert rep.ok
    assert rep.config["pi1"] == "yes"
    assert len(calls) == 1


def test_verify_complex_ranks_each_boundary_once(monkeypatch):
    ranked = []

    def counted(triplets, rows, cols):
        ranked.append((rows, cols))
        return rank(triplets, rows, cols)

    def built(cx, k):
        dims.append(k)
        return boundary(cx, k)

    rank = complexes.rational_rank
    boundary = complexes._boundary_matrix
    dims = []
    monkeypatch.setattr(complexes, "rational_rank", counted)
    monkeypatch.setattr(complexes, "_boundary_matrix", built)
    cx = coset_complex(abels_group(4, Z2), horospherical_family(4, Z2))
    rep = verify_complex(4, Z2)
    assert rep.ok
    # ∂1 for homology_h1, ∂2 for the rational b1; not ∂1 again, nor ∂3
    assert ranked == [(40, 192), (192, 224)]
    # ∂2 is built once, for both SNF and the rational rank
    assert dims == [1, 2]
    (check,) = [c for c in rep.checks if c.id == "first-homology"]
    assert check.counts["rational_rank"] == betti_numbers(cx)[1]


# -- negative controls: every verify_complex check can fail --------------------


def only_check(rep, check_id, status="fail"):
    (check,) = [c for c in rep.checks if c.id == check_id]
    assert check.status == status
    return check.counterexample


def test_homogeneous_colorable_needs_the_expected_dimension():
    # the S3 hexagon is a colorable graph; asked for one dimension more, the
    # check answers False before it reads a missing level of simplices
    cx = s3_complex()
    assert cx.dim == 1
    assert check_homogeneous_colorable(cx, 1)
    assert not check_homogeneous_colorable(cx, 0)
    assert not check_homogeneous_colorable(cx, 2)


def test_verify_complex_homogeneity_can_fail(monkeypatch):
    monkeypatch.setattr(complexes, "check_homogeneous_colorable", lambda cx, dim: False)
    rep = verify_complex(4, Z2, family="contracting")
    assert only_check(rep, "homogeneous-colorable") == (
        "a simplex repeats a color or misses the top dimension"
    )


def test_verify_complex_components_can_fail(monkeypatch):
    monkeypatch.setattr(complexes, "closure_order", lambda *args, **kwargs: 32)
    rep = verify_complex(4, Z2, family="contracting")
    assert only_check(rep, "components") == "components=1, generated=32 of 64"

    def overflow(*args, **kwargs):
        raise BudgetExceeded("inconclusive-budget: generation check overflowed")

    monkeypatch.setattr(complexes, "closure_order", overflow)
    rep = verify_complex(4, Z2, family="contracting")
    assert only_check(rep, "components", INCONCLUSIVE) == (
        "inconclusive-budget: generation check overflowed"
    )


def test_verify_complex_first_homology_can_fail(monkeypatch):
    # a rational route that ranks ∂1 and ∂2 one short reads b1 = 2
    rank = complexes.rational_rank
    monkeypatch.setattr(
        complexes, "rational_rank", lambda t, rows, cols: rank(t, rows, cols) - 1
    )
    rep = verify_complex(4, Z2, family="contracting")
    assert only_check(rep, "first-homology") == (
        "smith normal form gives rank 0, rational rank 2"
    )


def test_verify_complex_simple_connectivity_can_fail(monkeypatch):
    # the S3 pair complex is a hexagon: H1 = Z, so pi1 is not trivial
    hexagon = ([S3_A, S3_B], ([S3_A], [S3_B]))
    monkeypatch.setattr(abels, "subgroup_family", lambda family, n, ring: hexagon)
    rep = verify_complex(4, Z2)
    assert rep.ok and rep.config["pi1"] == "no"
    monkeypatch.setattr(complexes, "is_simply_connected", lambda *args, **kwargs: "yes")
    rep = verify_complex(4, Z2)
    assert only_check(rep, "simple-connectivity") == (
        "verdict yes but H1 = (rank 1, torsion ())"
    )


def test_verify_complex_disconnected_complex_is_not_simply_connected(monkeypatch):
    # both members are <S3_CYC>, which does not generate S3: two components
    split = ([S3_A, S3_B], ([S3_CYC], [S3_CYC]))
    monkeypatch.setattr(abels, "subgroup_family", lambda family, n, ring: split)
    rep = verify_complex(4, Z2)
    assert rep.ok
    assert (rep.config["components"], rep.config["pi1"]) == (2, "no")
    (check,) = [c for c in rep.checks if c.id == "simple-connectivity"]
    assert check.anchor == "disconnected-complexes-are-not-simply-connected"


def test_pi1_enumeration_confirms_simple_connectivity():
    cx = coset_complex(abels_group(4, Z2), horospherical_family(4, Z2))
    table = todd_coxeter(fundamental_group(cx))
    assert table.status == "complete"
    assert table.count == 1


@pytest.mark.parametrize(
    "relators,budget,verdict",
    [(((1,),), None, "yes"), (((1, 1),), None, "no"), ((), 8, "inconclusive")],
    ids=("x", "x^2", "free"),
)
def test_simple_connectivity_reads_the_coset_enumeration(
    monkeypatch, relators, budget, verdict
):
    """Where H1 is trivial but the matching leaves a critical edge, the
    verdict comes from Todd-Coxeter on the reduced presentation: one coset
    is "yes", two cosets "no", and the infinite cyclic group overflows the
    budget."""
    monkeypatch.setattr(
        complexes, "tietze_reduce", lambda pres: Presentation(("x",), relators)
    )
    cx = complex_of(NINE_TRIANGLES)
    assert complexes._homology_h1(cx)[:2] == ((0, ()), (1, 1, 1))
    assert is_simply_connected(cx, budget=budget) == verdict


EDGE_PATH_CASES = {
    # name: (complex, certified by the matching, edge-path verdict)
    "A4-zmod2": (
        lambda: coset_complex(abels_group(4, Z2), horospherical_family(4, Z2)),
        True,
        "yes",
    ),
    "A4-zmod2-contracting": (
        lambda: coset_complex(unipotent_and_torus(4, Z2)[0], contracting_family(4, Z2)),
        True,
        "yes",
    ),
    "A4-zmod3": (
        lambda: coset_complex(abels_group(4, Z3), horospherical_family(4, Z3)),
        True,
        "yes",
    ),
    "A5-zmod2": (
        lambda: coset_complex(unipotent_and_torus(5, Z2)[0], contracting_family(5, Z2)),
        True,
        "yes",
    ),
    "rp2": (lambda: complex_of(RP2), False, "no"),
    "suspended-rp2": (lambda: complex_of(SUSPENDED_RP2), True, "yes"),
    "s3-hexagon": (s3_complex, False, "inconclusive"),
    "nine-triangles": (lambda: complex_of(NINE_TRIANGLES), False, "yes"),
}


@pytest.mark.parametrize("name", EDGE_PATH_CASES)
def test_edge_path_route_confirms_the_matching_certificate(name):
    """The matching certifies pi1 = 1 only where the edge-path route,
    Tietze reduction and Todd-Coxeter, also finds the trivial group.
    Passing a trivial H1 with one critical edge makes is_simply_connected
    run that route alone; the S3 hexagon's pi1 is Z, so it overflows."""
    build, certified, verdict = EDGE_PATH_CASES[name]
    cx = build()
    critical = complexes._homology_h1(cx)[1]
    assert (critical[:2] == (1, 0)) == certified
    assert is_simply_connected(cx, budget=1000, h1=((0, ()), (1, 1))) == verdict
    if certified:
        assert verdict == "yes"


def test_verify_complex_certificate_skips_the_edge_path_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the edge-path route ran")

    for name in ("fundamental_group", "tietze_reduce", "todd_coxeter"):
        monkeypatch.setattr(complexes, name, refuse)
    for family in ("horospherical", "contracting"):
        rep = verify_complex(4, Z2, family)
        assert rep.ok and rep.config["pi1"] == "yes"
        (check,) = [c for c in rep.checks if c.id == "simple-connectivity"]
        assert check.counts["critical_edges"] == 0


def test_invalid_matching_is_a_coreduction_fault(monkeypatch):
    # a matching that runs round the triangle's boundary is cyclic: the
    # certificate refuses it, and no route is taken in its place
    def cyclic(boundaries):
        morse, _ = coreduce(boundaries)
        # vertices 0, 1, 2 and edges 3 = 01, 4 = 02, 5 = 12
        return morse, [(0, 3), (1, 5), (2, 4)]

    coreduce = complexes.morse_complex
    monkeypatch.setattr(complexes, "morse_complex", cyclic)
    with pytest.raises(AssertionError, match="invalid matching: the matching has a cycle"):
        is_simply_connected(complex_of([(0, 1, 2)]))


# -- oracle agreement -------------------------------------------------------------


def test_nerve_oracle_matches_small_instances():
    s3 = nerve_oracle([S3_A, S3_B], ([S3_A], [S3_B]))
    assert s3 == s3_complex()
    amb = abels_group(4, Z2)
    fam = horospherical_family(4, Z2)
    a4 = nerve_oracle(amb, fam)
    assert a4 == coset_complex(amb, fam)
    a, b = perm_matrix((1, 0), size=8), perm_matrix((0, 2, 1), size=8)
    for cx in (s3, a4, nerve_oracle([a, b], ([a], [b]))):
        assert homology_h1(cx) == unreduced_h1(cx)


def test_nerve_oracle_budget():
    amb = unipotent_and_torus(4, Z3)[0]
    with pytest.raises(BudgetExceeded):
        nerve_oracle(amb, contracting_family(4, Z3), budget=100)
    # the ambient group <a> fits the budget, the member <a, b> = S3 does not:
    # both constructions refuse the partial member closure
    overflow = r"^inconclusive-budget: member closure overflowed$"
    for build in (nerve_oracle, coset_complex):
        with pytest.raises(BudgetExceeded, match=overflow):
            build([S3_A], ([S3_A, S3_B],), budget=2)


def test_homogeneity_negative_control():
    cx = SimplicialComplex(
        ("u", "v", "w"),
        (0, 1, 0),
        (((0,), (1,), (2,)), ((0, 1),)),
    )
    assert not check_homogeneous_colorable(cx, 1)
    same_color = SimplicialComplex(
        ("u", "v"), (0, 0), (((0,), (1,)), ((0, 1),))
    )
    assert not check_homogeneous_colorable(same_color, 1)


def test_export_format():
    text = export_complex(s3_complex())
    assert text == (
        "0 0\n0 1\n0 2\n0 3\n0 4\n0 5\n"
        "1 0 3\n1 0 4\n1 1 3\n1 1 5\n1 2 4\n1 2 5\n"
    )


# -- the two families ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n, ring, skeleton",
    [(4, Z2, (40, 192)), (4, Z3, (162, 1620)), (5, Z2, (288, 1152))],
    ids=["A4-zmod2", "A4-zmod3", "A5-zmod2"],
)
def test_families_give_the_same_verdicts(n, ring, skeleton, monkeypatch):
    # the horospherical complex and its contracting counterpart pass every
    # check and agree on every verdict; each is coreduced exactly once
    reduced = []

    def counted(boundaries):
        reduced.append(boundaries[0][1])
        return morse(boundaries)

    morse = complexes.morse_complex
    monkeypatch.setattr(complexes, "morse_complex", counted)
    configs = []
    for family in ("horospherical", "contracting"):
        rep = verify_complex(n, ring, family)
        assert rep.ok
        assert [(c.id, c.status) for c in rep.sorted_checks()] == [
            ("components", "pass"),
            ("first-homology", "pass"),
            ("homogeneous-colorable", "pass"),
            ("simple-connectivity", "pass"),
        ]
        assert rep.config.pop("family") == family
        configs.append(rep.config)
    assert configs[0] == configs[1]
    assert reduced == [skeleton, skeleton]
