"""Acceptance gate: one test per headline criterion.

Each test prints a single ACCEPT line on success (visible with -s) and
carries its stated time budget as an assertion where one applies.
"""

import json
import time
from functools import reduce

import numpy as np
import pytest
from reference_complexes import nerve_oracle

from abelslab.abels import (
    abels_group,
    contracting_family,
    horospherical_family,
    unipotent_and_torus,
    verify_abels,
)
from abelslab.chevalley import (
    borel_cases,
    borel_gln_check,
    borel_isomorphism_check,
    check_affine_iso,
    check_borel_retraction,
    check_elementary_relations,
    check_form_invariance,
    check_steinberg,
)
from abelslab.cli import run
from abelslab.complexes import (
    betti_numbers,
    check_homogeneous_colorable,
    connected_components,
    coset_complex,
    export_complex,
    fundamental_group,
    homology_h1,
    is_simply_connected,
)
from abelslab.kernels import coded_ring, encode_matrices, group_closure
from abelslab.matrices import Matrix
from abelslab.presentation import (
    colimit_presentation,
    family_diagram,
    generator_list,
    tits_criterion_check,
    todd_coxeter,
    verify_presentations,
)
from abelslab.rings import make_ring

Z2 = make_ring("zmod:2")
Z3 = make_ring("zmod:3")
Z4 = make_ring("zmod:4")
Z5 = make_ring("zmod:5")
Z7 = make_ring("zmod:7")
F2X = make_ring("polyq:2:0,0,1")

STEINBERG_TYPES = ("A1", "A2", "A3", "C2", "C3", "B3", "D4", "G2")


def s3_pair():
    def perm(images):
        rows = [[Z2.zero] * 3 for _ in range(3)]
        for src, dst in enumerate(images):
            rows[src][dst] = Z2.one
        return Matrix.from_rows(Z2, rows)

    return perm((1, 0, 2)), perm((0, 2, 1))


def test_c01_relation_suite():
    start = time.perf_counter()
    failures = 0
    for ring in (Z2, Z3, Z4, F2X):
        for n in (2, 3, 4, 5):
            rep = check_elementary_relations(n, ring)
            failures += sum(1 for c in rep.checks if c.status != "pass")
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 30.0, f"relation suite took {elapsed:.1f}s"
    print(f"ACCEPT C01 elementary relation suite: PASS ({elapsed:.1f}s)")


def test_c02_steinberg_suite():
    start = time.perf_counter()
    for ring in (Z5, Z7):
        for label in STEINBERG_TYPES:
            rep = check_steinberg(label, ring)
            assert rep.ok, f"{label} over {ring.descriptor}"
            assert all(c.status == "pass" for c in rep.checks)
            if label == "G2":
                ids = {c.id for c in rep.checks}
                assert "torus-display-conjugation" in ids
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"steinberg suite took {elapsed:.1f}s"
    print(f"ACCEPT C02 steinberg relations incl. G2 display: PASS ({elapsed:.1f}s)")


def test_c03_form_invariance():
    kinds = {"C2": "alternating", "C3": "alternating", "B3": "symmetric", "D4": "symmetric"}
    for label, kind in kinds.items():
        rep = check_form_invariance(label, Z5)
        assert rep.ok, label
        assert rep.config["kind"] == kind
        assert all(c.status == "pass" for c in rep.checks)
    print("ACCEPT C03 invariant forms over zmod:5: PASS")


def test_c04_borel_isomorphisms():
    for ring in (Z3, Z4):
        for label, idx in borel_cases():
            rep = borel_isomorphism_check(label, idx, ring)
            assert rep.ok, f"{label} root {idx} over {ring.descriptor}"
            by_id = {c.id: c for c in rep.checks}
            card = by_id["target-cardinality"].counts
            assert card["source"] == card["target"] == card["predicted"]
        for n in (3, 4):
            rep = borel_gln_check(n, 1, 2, ring)
            assert rep.ok
            card = {c.id: c for c in rep.checks}["target-cardinality"].counts
            expected = ring.order() * len(ring.units()) ** n
            assert card["source"] == card["predicted"] == expected
        assert check_affine_iso(ring)
        assert check_borel_retraction(4, ring)
    print("ACCEPT C04 borel factorizations over zmod:3 and zmod:4: PASS")


def test_c05_abels_structure():
    for ring in (Z2, Z3):
        for n in (4, 5):
            rep = verify_abels(n, ring)
            assert rep.ok, f"n={n} over {ring.descriptor}"
            assert rep.inconclusive_count == 0
            ids = {c.id for c in rep.checks}
            assert {"center", "factorization:A", "torus-invariance", "retraction"} <= ids
            if n == 4:
                assert "fiber-product" in ids
    print("ACCEPT C05 triangular group structure: PASS")


def test_c06_presentation_equivalence():
    start = time.perf_counter()
    expected = {(4, Z2): 64, (4, Z3): 729, (5, Z2): 1024}
    for (n, ring), order in expected.items():
        rep = verify_presentations(n, ring)
        assert rep.ok, f"n={n} over {ring.descriptor}"
        assert rep.inconclusive_count == 0
        by_id = {c.id: c for c in rep.checks}
        for variant in ("canonical", "economic"):
            assert by_id[f"{variant}-index"].counts["index"] == order
            assert by_id[f"{variant}-relators-hold"].status == "pass"
            assert by_id[f"{variant}-generates"].counts["generated"] == order
        assert by_id["corner-definition"].status == "pass"
        assert by_id["corner-central"].status == "pass"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"presentation suite took {elapsed:.1f}s"
    print(f"ACCEPT C06 presentation equivalence: PASS ({elapsed:.1f}s)")


def _closure_keys(group):
    gens = generator_list(group)
    cr = coded_ring(gens[0].ring)
    status, _, keys = group_closure(cr, encode_matrices(cr, gens), gens[0].n)
    assert status == "complete"
    return keys


def test_c07_topology_suite():
    for n, expected_dim in ((4, 3), (5, 2)):
        ambient = abels_group(n, Z2)
        family = horospherical_family(n, Z2)
        cx = coset_complex(ambient, family)
        assert cx.dim == expected_dim
        assert check_homogeneous_colorable(cx, expected_dim)
        assert connected_components(cx) == 1
        assert homology_h1(cx) == (0, ())
        assert is_simply_connected(cx) == "yes"
        table = todd_coxeter(fundamental_group(cx))
        assert table.status == "complete" and table.count == 1
        # orbit-stabilizer: color i has |G| / |H_i| vertices, and the
        # chambers, one orbit with stabilizer the meet of the family, are
        # the top simplices
        order = len(_closure_keys(ambient))
        member_keys = [_closure_keys(member) for member in family]
        for color, keys in enumerate(member_keys):
            assert cx.colors.count(color) == order // len(keys)
        meet = reduce(np.intersect1d, member_keys)
        assert len(cx.simplices[-1]) == order // len(meet)
    print("ACCEPT C07 coset complex topology: PASS")


def test_c08_tits_biconditional():
    positives = [
        (unipotent_and_torus(4, Z2)[0], contracting_family(4, Z2), 64),
        (unipotent_and_torus(4, Z3)[0], contracting_family(4, Z3), 729),
        (unipotent_and_torus(5, Z2)[0], contracting_family(5, Z2), 1024),
        (abels_group(4, Z2), horospherical_family(4, Z2), 64),
    ]
    for group, family, order in positives:
        rep = tits_criterion_check(group, family)
        assert rep.ok
        by_id = {c.id: c for c in rep.checks}
        assert by_id["colimit-index"].counts["index"] == order
        assert by_id["simple-connectivity-vs-colimit"].status == "pass"

    a, b = s3_pair()
    rep = tits_criterion_check([a, b], ([a], [b]), budget=2048)
    assert rep.ok
    by_id = {c.id: c for c in rep.checks}
    assert by_id["connectivity-vs-generation"].counts["components"] == 1
    assert by_id["simple-connectivity-vs-colimit"].counts.get("colimit_overflow") == 1
    cx = coset_complex([a, b], ([a], [b]))
    assert homology_h1(cx) == (1, ())
    assert is_simply_connected(cx) == "no"
    # pi_1 surjects onto the infinite dihedral group: enumerating the
    # colimit relative to a finite-index subgroup certifies |colim| >= 12
    colim = colimit_presentation(family_diagram(([a], [b])))
    relative = todd_coxeter(colim, ((1, 2) * 6,), budget=4096)
    assert relative.status == "complete" and relative.count == 12

    cyc = a @ b
    rep = tits_criterion_check([a, b], ([cyc], [cyc]))
    assert rep.ok
    by_id = {c.id: c for c in rep.checks}
    counts = by_id["connectivity-vs-generation"].counts
    assert counts["components"] == 2
    assert counts["generated"] == 3
    # component count equals the index of the generated subgroup
    assert counts["components"] == counts["group_order"] // counts["generated"]
    print("ACCEPT C08 nerve criterion, 4 positive + 2 negative: PASS")


def test_c09_oracle_equivalence():
    a, b = s3_pair()
    cyc = a @ b
    e12 = Matrix.elementary(Z2, 4, 1, 2, Z2.one)
    e13 = Matrix.elementary(Z2, 4, 1, 3, Z2.one)
    u4 = unipotent_and_torus(4, Z2)[0]
    instances = [
        ([a, b], ([a], [b])),
        ([a, b], ([cyc], [cyc])),
        (abels_group(4, Z2), horospherical_family(4, Z2)),
        (u4, contracting_family(4, Z2)),
        (u4, ([e12], [e13])),
    ]
    for group, family in instances:
        cx = coset_complex(group, family)
        assert len(cx.keys) <= 200
        assert nerve_oracle(group, family) == cx
        rank, _ = homology_h1(cx)
        rational = betti_numbers(cx)[1] if cx.dim >= 1 else 0
        assert rank == rational
    print("ACCEPT C09 nerve and homology oracles agree: PASS")


def _normalized_report(path):
    data = json.loads(path.read_text())
    data.pop("timestamp", None)
    for check in data["checks"]:
        check.pop("elapsed", None)
    return json.dumps(data, sort_keys=True)


def test_c10_determinism(tmp_path, capsys):
    commands = [
        ["verify", "presentations", "--n", "4", "--ring", "zmod:2"],
        ["verify", "complex", "--n", "4", "--ring", "zmod:2"],
        ["verify", "steinberg", "--type", "G2", "--ring", "zmod:5"],
    ]
    for idx, argv in enumerate(commands):
        first, second = tmp_path / f"{idx}a.json", tmp_path / f"{idx}b.json"
        assert run(argv + ["--out", str(first)]) == 0
        assert run(argv + ["--out", str(second)]) == 0
        assert _normalized_report(first) == _normalized_report(second)
    capsys.readouterr()
    cx = coset_complex(abels_group(4, Z2), horospherical_family(4, Z2))
    again = coset_complex(abels_group(4, Z2), horospherical_family(4, Z2))
    assert export_complex(cx) == export_complex(again)
    assert cx.vertices == again.vertices
    print("ACCEPT C10 determinism modulo timestamps: PASS")
