"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each criterion checks the engine against an independent oracle from
`oracles.py`, a published value or a statement of the paper; some also
enforce a time budget.
"""

import time
from itertools import product

import pytest

from helpers import (are_isomorphic, corpus_extensions, corpus_quandles,
                     endpoints_same_translation, extension_with_projection,
                     presentations, sym4_class_quandle)
from oracles import (brute_coboundary_count, brute_cocycle_count,
                     coxeter_s3_order, grid_coloring_count, quandles_up_to_iso)
from quandleforge.cohomology import (Cocycle2, coboundary_space_order,
                                     cocycle_witness, cohomologous,
                                     second_cohomology)
from quandleforge.constructions import dihedral_quandle, extension_table
from quandleforge.core import (inn_image, is_connected, is_faithful,
                               validate_quandle)
from quandleforge.envgroup import (Presentation, conjugation_criterion,
                                   todd_coxeter, verify_coset_table)
from quandleforge.errors import AxiomViolation, TheoremViolation
from quandleforge.knots import (bundled_knots, enumerate_colorings,
                                is_constant, parse_braid, state_sum,
                                tangle_colorings)
from quandleforge.pipeline import fiber_criterion, recover_index2_cocycle


def report(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {desc}", flush=True)
    assert not failures, f"criterion {num}: " + " | ".join(failures)


@pytest.fixture(scope="module")
def extensions():
    return corpus_extensions(max_base_order=6, moduli=(2, 3))


def test_criterion_1_coloring_counts():
    t0 = time.time()
    failures = []
    cases = [
        (dihedral_quandle(3), 2, [1, 1, 1], 9),
        (dihedral_quandle(3), 3, [1, -2, 1, -2], 3),
        (dihedral_quandle(5), 3, [1, -2, 1, -2], 25),
    ]
    for q, s, w, expected in cases:
        oracle = grid_coloring_count(q.table, s, w)
        engine = len(enumerate_colorings(q, parse_braid("k", s, w)))
        if oracle != expected:
            failures.append(f"oracle gave {oracle}, expected {expected}")
        if engine != expected:
            failures.append(f"engine gave {engine}, expected {expected}")
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    report(1, "coloring counts vs independent brute-force oracle "
              f"({elapsed:.2f}s)", failures)


def test_criterion_2_cohomology_cross_validation():
    t0 = time.process_time()
    failures = []
    for n in (1, 2, 3, 4):
        for table in quandles_up_to_iso(n):
            q = validate_quandle(n, table)
            for m in (2, 3):
                h2_order = second_cohomology(q, m).order
                b_snf = coboundary_space_order(q, m)
                z_snf = h2_order * b_snf
                z_brute = brute_cocycle_count(table, m)
                b_brute = brute_coboundary_count(table, m)
                if (z_snf, b_snf) != (z_brute, b_brute):
                    failures.append(
                        f"order {n} mod {m}: SNF ({z_snf},{b_snf}) vs "
                        f"brute ({z_brute},{b_brute})")
                if h2_order != z_brute // b_brute:
                    failures.append(
                        f"order {n} mod {m}: |H2| {h2_order} vs brute "
                        f"{z_brute}/{b_brute} = {z_brute // b_brute}")
    # H^2(R_3; Z_m) is trivial for m = 2 and m = 3: exhaustive enumeration
    # finds as many cocycles as coboundaries (4/4 mod 2, 9/9 mod 3). The Z_3
    # class of R_3 is a 3-cocycle, not a 2-cocycle (Carter-Jelsovsky-Kamada-
    # Langford-Saito, Trans. AMS 355 (2003); Mochizuki, JPAA 179 (2003)).
    d3 = dihedral_quandle(3)
    for m in (2, 3):
        h = second_cohomology(d3, m)
        z_brute = brute_cocycle_count(d3.table, m)
        b_brute = brute_coboundary_count(d3.table, m)
        if h.invariant_factors != () or h.order != z_brute // b_brute:
            failures.append(
                f"H2(dihedral(3),Z{m}): engine factors "
                f"{h.invariant_factors}, order {h.order}; brute force "
                f"{z_brute} cocycles / {b_brute} coboundaries, expected ()")
    elapsed = time.process_time() - t0
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, budget 5s")
    report(2, f"cohomology space orders vs exhaustive enumeration "
              f"({elapsed:.2f}s)", failures)


def test_criterion_3_extension_iff_cocycle():
    t0 = time.time()
    failures = []
    m = 2
    checked = 0
    for n in (1, 2, 3):
        for table in quandles_up_to_iso(n):
            q = validate_quandle(n, table)
            pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
            for assignment in product(range(m), repeat=len(pairs)):
                vals = [[0] * n for _ in range(n)]
                for v, (x, y) in zip(assignment, pairs):
                    vals[x][y] = v
                is_co = cocycle_witness(q, m, vals) is None
                try:
                    validate_quandle(n * m, extension_table(q, m, vals))
                    valid = True
                except AxiomViolation:
                    valid = False
                checked += 1
                if valid != is_co:
                    failures.append(f"discrepancy at order {n}: {vals}")
    elapsed = time.time() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, budget 10s")
    report(3, f"extension validity iff cocycle identity, {checked} functions "
              f"({elapsed:.2f}s)", failures)


def test_criterion_4_diagram_independence(tetrahedral, tet_psi, x6, x6_psi,
                                          extensions):
    failures = []
    psi4 = second_cohomology(sym4_class_quandle((4,)), 4).representatives[0]
    corpus_pairs = [
        ("d3/zero3", dihedral_quandle(3), Cocycle2.zero(3, 3)),
        ("d4/zero2", dihedral_quandle(4), Cocycle2.zero(4, 2)),
        ("tetrahedral/gen", tetrahedral, tet_psi),
        ("sym4transp/gen", x6, x6_psi),
        ("sym4fourcycles/genZ4", sym4_class_quandle((4,)), psi4),
    ]
    corpus_pairs += [(name, x, phi) for name, x, m, phi, e, proj in extensions]
    required_trefoils = [(2, [1, 1, 1]), (3, [1, 1, 1, 2]), (3, [1, 1, 1, -2])]
    if [(k.strands, list(k.word)) for k in presentations("3_1")] \
            != required_trefoils:
        failures.append("trefoil presentations are not the required three")
    if len(presentations("4_1")) != 2:
        failures.append("figure-eight needs two presentations")
    for name in ("3_1", "4_1"):
        pres = presentations(name)
        for tag, q, phi in corpus_pairs:
            counts = {len(enumerate_colorings(q, k)) for k in pres}
            sums = {state_sum(q, phi, k).coeffs for k in pres}
            if len(counts) != 1 or len(sums) != 1:
                failures.append(f"{name} disagrees across diagrams on {tag}")
    report(4, "coloring counts and state sums agree across Markov-equivalent "
              "presentations", failures)


def test_criterion_5_theorem_constancy_end_to_end(x6):
    t0 = time.time()
    failures = []
    if x6.n != 6 or not is_connected(x6) or not is_faithful(x6):
        failures.append("transposition-class quandle is not order-6 "
                        "connected faithful")
    h = second_cohomology(x6, 2)
    if h.invariant_factors != (2,):
        failures.append(f"H2(X,Z2) = {h.invariant_factors}, expected (2,)")
    else:
        psi = h.representatives[0]
        e, proj = extension_with_projection(x6, psi)
        if e.n != 12:
            failures.append(f"extension order {e.n}, expected 12")
        if is_faithful(e):
            failures.append("extension should be non-faithful")
        img, _ = inn_image(e)
        if are_isomorphic(img, x6) is None:
            failures.append("inn(E) is not isomorphic to the base")
        if conjugation_criterion(e, max_cosets=10 ** 6).verdict != "yes":
            failures.append("conjugation-quandle verdict is not 'yes'")
        for k in bundled_knots():
            inv = state_sum(x6, psi, k)
            if not is_constant(inv):
                failures.append(f"non-constant invariant on {k.name}: {inv}")
    elapsed = time.time() - t0
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.2f}s, budget 60s")
    report(5, f"order-12 conjugation extension has constant invariants on "
              f"every bundled knot ({elapsed:.2f}s)", failures)


def test_criterion_6_tangle_lemma_suites(extensions, knots):
    failures = []
    for name, q in corpus_quandles(max_order=12):
        for k in knots:
            if not endpoints_same_translation(q, k):
                failures.append(f"translation equality fails: {name}/{k.name}")
    for name, x, m, phi, e, proj in extensions:
        for k in knots:
            mono = all(c.y0 == c.y1 for c in tangle_colorings(e, k))
            const = is_constant(state_sum(x, phi, k))
            if mono != const:
                failures.append(
                    f"{name}/{k.name}: end-monochromatic={mono} but "
                    f"constant={const}")
    report(6, "endpoint translations agree on all corpus tangles; "
              "end-monochromatic iff constant for every constructed "
              "extension and knot", failures)


def test_criterion_7_fixed_fiber_suite(extensions):
    failures = []
    for name, x, m, phi, e, proj in extensions:
        witness = fiber_criterion(proj)
        if witness is not None:
            failures.append(f"{name}: witness {witness}")
    report(7, f"no inner automorphism part-fixes a fiber across "
              f"{len(extensions)} constructed extensions", failures)


def test_criterion_8_coset_enumeration_targets(corpus):
    failures = []
    t = todd_coxeter(Presentation(1, ((1, 1),)))
    if t.size != 2:
        failures.append(f"<a|a^2> gave order {t.size}")
    t = todd_coxeter(Presentation(2, ((1, 1), (2, 2), (1, 2) * 3)))
    if t.size != 6:
        failures.append(f"S3 presentation gave order {t.size}")
    if coxeter_s3_order() != 6:
        failures.append("word-rewriting oracle disagrees on S3")
    try:
        verify_coset_table(t)
    except TheoremViolation as exc:
        failures.append(f"relator-trace verification failed: {exc}")
    for name, q in corpus:
        if not (is_connected(q) and is_faithful(q)) or q.n > 9:
            continue
        if conjugation_criterion(q).collision is not None:
            failures.append(f"rho not injective on faithful connected {name}")
    report(8, "unit group orders, relator traces, and injectivity on "
              "faithful connected corpus quandles", failures)


def test_criterion_9_index2_recovery(extensions):
    failures = []
    count = 0
    for name, x, m, phi, e, proj in extensions:
        if m != 2 or not is_connected(x):
            continue
        count += 1
        try:
            rec = recover_index2_cocycle(proj)
        except Exception as exc:
            failures.append(f"{name}: recovery raised {exc!r}")
            continue
        if not cohomologous(x, rec, phi):
            failures.append(f"{name}: recovered cocycle not cohomologous")
    if count == 0:
        failures.append("no index-2 extensions over connected bases built")
    report(9, f"index-2 cocycle recovery round-trips on {count} extensions",
           failures)


def test_criterion_10_certificate_coherence(extensions):
    failures = []
    knots = bundled_knots()
    nonconstant_seen = 0
    for name, x, m, phi, e, proj in extensions:
        nonconstant = any(not is_constant(state_sum(x, phi, k))
                          for k in knots)
        if not nonconstant:
            continue
        nonconstant_seen += 1
        verdict = conjugation_criterion(e, max_cosets=10 ** 6).verdict
        if verdict == "yes":
            failures.append(
                f"{name}: non-constant invariant but verdict 'yes'")
    if nonconstant_seen == 0:
        failures.append("no non-constant corpus pair; the check is vacuous")
    report(10, f"non-constant invariants never coexist with a conjugation "
               f"verdict ({nonconstant_seen} certified pairs)", failures)
