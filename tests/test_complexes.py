import numpy as np
import pytest

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
    action_analysis,
    betti_numbers,
    check_homogeneous_colorable,
    compare_complexes,
    connected_components,
    coset_complex,
    export_complex,
    fundamental_group,
    homology_h1,
    is_simply_connected,
    nerve_oracle,
    verify_complex,
)
from abelslab.matrices import Matrix
from abelslab.presentation import todd_coxeter
from abelslab.rings import make_ring

Z2 = make_ring("zmod:2")
Z3 = make_ring("zmod:3")


def perm_matrix(images):
    rows = [[Z2.zero] * 3 for _ in range(3)]
    for src, dst in enumerate(images):
        rows[src][dst] = Z2.one
    return Matrix.from_rows(Z2, rows)


S3_A = perm_matrix((1, 0, 2))
S3_B = perm_matrix((0, 2, 1))
S3_CYC = S3_A @ S3_B


def s3_complex():
    return coset_complex([S3_A, S3_B], ([S3_A], [S3_B]))


# -- container validation -----------------------------------------------------


def test_simplicial_complex_validation():
    verts = ("u", "v", "w")
    cols = (0, 1, 2)
    base = (((0,), (1,), (2,)), ((0, 1),))
    cx = SimplicialComplex(verts, cols, base)
    assert cx.dim == 1
    assert cx.f_vector == (3, 1)
    assert cx.euler_characteristic() == 2
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


def test_python_route_matches_coded_route():
    coded = s3_complex()
    plain = coset_complex([S3_A, S3_B], ([S3_A], [S3_B]), budget=2**26 + 1)
    assert plain == coded
    assert [int(k) for k in plain.keys] == [int(k) for k in coded.keys]

    u4 = unipotent_and_torus(4, Z2)[0]
    fam = contracting_family(4, Z2)
    assert coset_complex(u4, fam, budget=2**26 + 1) == coset_complex(u4, fam)


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
    assert cx.euler_characteristic() == 8
    assert cx.euler_characteristic() == sum(
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

    rank = complexes.rational_rank
    monkeypatch.setattr(complexes, "rational_rank", counted)
    cx = coset_complex(abels_group(4, Z2), horospherical_family(4, Z2))
    rep = verify_complex(4, Z2)
    assert rep.ok
    # ∂1 for homology_h1, ∂2 for the rational b1; not ∂1 again, nor ∂3
    assert ranked == [(40, 192), (192, 224)]
    (check,) = [c for c in rep.checks if c.id == "first-homology"]
    assert check.counts["rational_rank"] == betti_numbers(cx)[1]


def test_pi1_enumeration_confirms_simple_connectivity():
    cx = coset_complex(abels_group(4, Z2), horospherical_family(4, Z2))
    table = todd_coxeter(fundamental_group(cx))
    assert table.status == "complete"
    assert table.count == 1


# -- oracle agreement -------------------------------------------------------------


def test_nerve_oracle_matches_small_instances():
    assert nerve_oracle([S3_A, S3_B], ([S3_A], [S3_B])) == s3_complex()
    amb = abels_group(4, Z2)
    fam = horospherical_family(4, Z2)
    assert nerve_oracle(amb, fam) == coset_complex(amb, fam)


def test_nerve_oracle_budget():
    from abelslab.config import BudgetExceeded

    amb = unipotent_and_torus(4, Z3)[0]
    with pytest.raises(BudgetExceeded):
        nerve_oracle(amb, contracting_family(4, Z3), budget=100)


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


# -- group action ------------------------------------------------------------------


def test_action_analysis_on_full_family():
    amb = abels_group(4, Z2)
    cx = coset_complex(amb, horospherical_family(4, Z2))
    rep = action_analysis(amb, cx)
    assert rep.ok
    assert {c.id for c in rep.checks} == {
        "vertex-action",
        "chamber-orbit",
        "base-stabilizer",
        "chamber-stabilizer",
    }


def test_action_analysis_on_contracting_family():
    amb = unipotent_and_torus(5, Z2)[0]
    cx = coset_complex(amb, contracting_family(5, Z2))
    rep = action_analysis(amb, cx)
    assert rep.ok
    assert all(c.status == "pass" for c in rep.checks)


def test_compare_construction_routes():
    rep = compare_complexes(4, Z2)
    assert rep.ok
    assert [(c.id, c.status) for c in rep.sorted_checks()] == [
        ("components", "pass"),
        ("first-homology", "pass"),
        ("simple-connectivity", "pass"),
    ]
