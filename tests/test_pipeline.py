from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (Permutation, are_isomorphic, corpus_extensions,
                     extension_with_projection, product_quandle,
                     sym4_class_quandle, sym_class_quandle)
from oracles import enveloping_relators
from quandleforge.cohomology import (Cocycle2, cocycle_power, cohomologous,
                                     second_cohomology)
from quandleforge.constructions import (abelian_extension,
                                        conjugation_automorphism,
                                        dihedral_quandle, finite_group,
                                        generalized_alexander_quandle,
                                        symmetric_group, trivial_quandle)
from quandleforge.core import (QuandleMap, inn_image, is_connected,
                               is_covering, validate_quandle)
from quandleforge.envgroup import (Presentation, conjugation_criterion,
                                   todd_coxeter)
from quandleforge.errors import (DNotDividesModulus, NotACocycle,
                                 NotACovering, NotEpimorphism, NotIndex2,
                                 TheoremViolation)
from quandleforge import cohomology, constructions, core, envgroup
from quandleforge.knots import (GroupRingElt, bundled_knots, coloring_weight,
                                enumerate_colorings, is_constant, parse_braid,
                                state_sum, tangle_colorings)
from quandleforge.pipeline import (constancy_pipeline, fiber_criterion,
                                   inn_sequence, nonconstancy_certificates,
                                   power_coefficient_check,
                                   recover_index2_cocycle)


def synthetic_noncommuting_covering():
    """A covering that is not an abelian extension, built at desk scale.

    On the trivial quandle of order 2, any choice of beta(x, y) in Sym(S)
    with beta(x, x) = id gives a quandle on X x S projecting to X as a
    covering.  Taking beta(0, 1) to fix one fiber point and swap two others
    defeats the fixed-fiber criterion, certifying non-abelian-ness.
    """
    base = trivial_quandle(2)
    s = 3
    beta = {(0, 0): (0, 1, 2), (1, 1): (0, 1, 2),
            (0, 1): (0, 2, 1),      # fixes level 0, swaps 1 and 2
            (1, 0): (1, 2, 0)}      # 3-cycle, for variety
    size = 2 * s
    table = [[0] * size for _ in range(size)]
    for xx in range(2):
        for lv in range(s):
            for yy in range(2):
                for lw in range(s):
                    table[xx * s + lv][yy * s + lw] = \
                        xx * s + beta[(xx, yy)][lv]
    q = validate_quandle(size, table)
    proj = QuandleMap(q, base, tuple(i // s for i in range(size)))
    return q, proj


class TestInnSequence:
    def test_faithful_is_terminal(self, d3):
        seq = inn_sequence(d3)
        assert len(seq.quandles) == 1 and seq.terminal_faithful

    def test_zero_extension_one_step(self, d3):
        e = abelian_extension(d3, Cocycle2.zero(3, 2))
        seq = inn_sequence(e)
        assert [q.n for q in seq.quandles] == [6, 3]
        assert seq.terminal_faithful

    def test_trivial_collapses_to_point(self):
        seq = inn_sequence(trivial_quandle(4))
        assert [q.n for q in seq.quandles] == [4, 1]

    def test_maps_are_coverings_and_compose(self, tetrahedral, tet_psi):
        e = abelian_extension(tetrahedral, tet_psi)
        big = abelian_extension(e, Cocycle2.zero(e.n, 2))
        seq = inn_sequence(big)
        for f in seq.maps:
            assert is_covering(f)
        # the composite covering from big onto the terminal faithful quandle
        images = tuple(range(big.n))
        for f in seq.maps:
            images = tuple(f.images[v] for v in images)
        comp = QuandleMap(big, seq.quandles[-1], images)
        assert is_covering(comp)


class TestRecoverIndex2:
    def test_roundtrip_exact_on_projection(self, x6, x6_psi):
        e, proj = extension_with_projection(x6, x6_psi)
        phi = recover_index2_cocycle(proj)
        assert phi.values == x6_psi.values

    def test_zero_cocycle_roundtrip(self, d3):
        e, proj = extension_with_projection(d3, Cocycle2.zero(3, 2))
        phi = recover_index2_cocycle(proj)
        assert cohomologous(d3, phi, Cocycle2.zero(3, 2))

    def test_inn_map_of_connected_index2(self, x6, x6_psi):
        # an index-2 inner representation with connected source
        e = abelian_extension(x6, x6_psi)
        assert is_connected(e)
        img, f = inn_image(e)
        assert e.n == 2 * img.n
        phi = recover_index2_cocycle(f)
        rebuilt = abelian_extension(img, phi)
        assert are_isomorphic(rebuilt, e) is not None

    def test_disconnected_equal_fibers_still_recovers(self):
        # with all fibers of size two the level labeling always works, even
        # without connectivity
        g, elems = symmetric_group(3)
        t = next(i for i, p in enumerate(elems)
                 if Permutation(p).cycle_type() == (1, 2))
        y = generalized_alexander_quandle(g, conjugation_automorphism(g, t))
        assert not is_connected(y)
        img, f = inn_image(y)
        assert y.n == 2 * img.n
        phi = recover_index2_cocycle(f)
        rebuilt = abelian_extension(img, phi)
        assert are_isomorphic(rebuilt, y) is not None

    def test_corpus_roundtrip_exact(self):
        # every m = 2 corpus extension, disconnected bases included: the
        # level labeling gives back phi itself, not only its class
        cases = corpus_extensions(max_base_order=12, moduli=(2,))
        assert any(not is_connected(x) for _, x, _, _, _, _ in cases)
        for name, x, m, phi, e, proj in cases:
            assert recover_index2_cocycle(proj).values == phi.values, name

    def test_labeling_check_is_live(self, monkeypatch, x6, x6_psi):
        # with E built from the zero cocycle instead of the recovered one,
        # the labeling is no quandle map, and that check must say so
        _, proj = extension_with_projection(x6, x6_psi)
        build = constructions._extension
        monkeypatch.setattr(constructions, "_extension",
                            lambda x, phi: build(
                                x, Cocycle2.zero(x.n, phi.m)))
        with pytest.raises(TheoremViolation, match=r"^recovered labeling is "
                           r"not a quandle map: f\(\d+\*\d+\) != "
                           r"f\(\d+\)\*f\(\d+\)$"):
            recover_index2_cocycle(proj)

    def test_cocycle_check_is_live(self, monkeypatch, x6, x6_psi):
        # the recovered values are checked as a 2-cocycle of the result
        _, proj = extension_with_projection(x6, x6_psi)
        monkeypatch.setattr(cohomology, "cocycle_witness",
                            lambda *args: ("identity", 0, 1, 0))
        with pytest.raises(TheoremViolation, match=r"^recovered values are "
                           r"not a 2-cocycle; witness \('identity', 0, 1, "
                           r"0\)$"):
            recover_index2_cocycle(proj)

    def test_not_index_two(self, d3):
        e, proj = extension_with_projection(d3, Cocycle2.zero(3, 3))
        with pytest.raises(NotIndex2):
            recover_index2_cocycle(proj)

    def test_not_covering(self, d3):
        p = product_quandle(d3, d3)
        f = QuandleMap(p, d3, tuple(i // 3 for i in range(9)))
        with pytest.raises(NotACovering):
            recover_index2_cocycle(f)


class TestFiberCriterion:
    def test_holds_on_extensions(self, x6, x6_psi, tetrahedral, tet_psi):
        for x, phi in [(x6, x6_psi), (tetrahedral, tet_psi),
                       (dihedral_quandle(5), Cocycle2.zero(5, 3))]:
            _, proj = extension_with_projection(x, phi)
            assert fiber_criterion(proj) is None

    def test_identity_trivial_fibers(self, d3):
        f = QuandleMap(d3, d3, (0, 1, 2))
        assert fiber_criterion(f) is None

    def test_not_an_epimorphism_rejected(self, d3):
        # every element to the idempotent 0 is a homomorphism onto one point
        f = QuandleMap(d3, d3, (0, 0, 0))
        with pytest.raises(NotEpimorphism, match="expects an epimorphism"):
            fiber_criterion(f)

    def test_synthetic_covering_fails_with_witness(self):
        q, proj = synthetic_noncommuting_covering()
        assert is_covering(proj)
        img, fixed, moved = fiber_criterion(proj)
        assert img[fixed] == fixed and img[moved] != moved
        assert proj.images[fixed] == proj.images[moved]

    def test_product_with_extension_still_fails(self, d3):
        # pairing the bad covering with an honest abelian extension keeps the
        # witness alive in the product
        q, proj = synthetic_noncommuting_covering()
        e, eproj = extension_with_projection(d3, Cocycle2.zero(3, 2))
        p = product_quandle(q, e)
        images = tuple(proj.images[i // e.n] * d3.n
                       + eproj.images[i % e.n]
                       for i in range(p.n))
        target = product_quandle(proj.target, d3)
        f = QuandleMap(p, target, images)
        assert is_covering(f)
        assert fiber_criterion(f) is not None


def regular_group(t):
    """Rebuild the enumerated group as an explicit multiplication table.

    Cosets over the trivial subgroup are the group elements; a word of
    columns reaching each coset from 0 is found by breadth-first search, and
    i*j follows j's word from i.  Returns the group plus the element index of
    each generator.  Quadratic in the group order, so keep it for small
    enumerations.
    """
    size = t.size
    words = {0: ()}
    frontier = [0]
    while frontier:
        nxt = []
        for c in frontier:
            for k, col in enumerate(t.columns):
                d = col[c]
                if d not in words:
                    words[d] = words[c] + (k,)
                    nxt.append(d)
        frontier = nxt
    assert len(words) == size, "coset table is not transitive"

    def follow(i, word):
        for k in word:
            i = t.columns[k][i]
        return i

    mult = [[follow(i, words[j]) for j in range(size)] for i in range(size)]
    g = finite_group(mult)
    gens = tuple(t.generator_column(i)[0] for i in range(t.presentation.ngens))
    return g, gens


class TestConstancyPipeline:
    def test_conjugation_extension_constant(self, x6, x6_psi):
        verdict = constancy_pipeline(x6, x6_psi)
        assert verdict.extension.n == 12
        assert verdict.is_conjugation == "yes"
        assert verdict.invariant_constant_on_corpus
        assert all(is_constant(v) for v in verdict.invariants.values())

    def test_explicit_inner_preimage_exists(self, e12):
        # rebuild the finite enveloping group explicitly and check that the
        # twisted group quandle over it has E as its inner image
        e, _ = e12
        table = todd_coxeter(Presentation(e.n, enveloping_relators(e.table)))
        assert table.size == 48
        g, gens = regular_group(table)
        y = generalized_alexander_quandle(
            g, conjugation_automorphism(g, gens[0]))
        img, _ = inn_image(y)
        assert are_isomorphic(img, e) is not None

    def test_sym5_transposition_extension_constant(self, sym5_ext):
        # the second "yes" extension: H^2(S_5 transpositions; Z_2) = Z_2,
        # and its generator's extension has an enveloping group of order 240
        name, x, m, phi, e, _ = sym5_ext
        assert (x.n, e.n) == (10, 20)
        assert second_cohomology(x, m).invariant_factors == (2,)
        criterion = conjugation_criterion(e)
        assert (criterion.verdict, criterion.order) == ("yes", 240)
        verdict = constancy_pipeline(x, phi)
        assert verdict.is_conjugation == "yes"
        assert verdict.invariant_constant_on_corpus

    def test_nonconjugation_extension_reports(self, tetrahedral, tet_psi):
        verdict = constancy_pipeline(tetrahedral, tet_psi)
        assert verdict.is_conjugation == "no"
        assert not verdict.invariant_constant_on_corpus

    def test_zero_cocycle_trivial_extension(self, d3):
        verdict = constancy_pipeline(d3, Cocycle2.zero(3, 2))
        assert verdict.invariant_constant_on_corpus
        for inv in verdict.invariants.values():
            assert is_constant(inv)

    def test_constancy_matches_end_monochromatic(self, tetrahedral, tet_psi,
                                                 knots):
        # two independent computations of the same dichotomy
        e = abelian_extension(tetrahedral, tet_psi)
        verdict = constancy_pipeline(tetrahedral, tet_psi)
        for k in knots:
            assert is_constant(verdict.invariants[k.name]) \
                == all(c.y0 == c.y1 for c in tangle_colorings(e, k)), k.name


class TestPowerCheck:
    def test_d_one_reduces_to_constancy(self, x6, x6_psi):
        report = power_coefficient_check(x6, x6_psi, 1)
        assert report.verdict == constancy_pipeline(x6, x6_psi)
        assert report.verdict.is_conjugation == "yes"
        assert report.invariants == report.verdict.invariants

    def test_x6_mod6_d3_hypothesis_holds(self, x6):
        # the one corpus case of Theorem 3.5 with d > 1 whose hypothesis
        # holds: phi = psi^3 mod 2 gives the conjugation quandle E(x6, Z_2)
        h = second_cohomology(x6, 6)
        assert h.invariant_factors == (2,)
        report = power_coefficient_check(x6, h.representatives[0], 3)
        assert report.verdict.extension.n == 2 * x6.n
        assert report.verdict.is_conjugation == "yes"
        for name, inv in report.invariants.items():
            assert inv.m == 6
            assert not any(c for k, c in enumerate(inv.coeffs) if k % 2), \
                name

    def test_d_equals_n_vacuous(self, x6, x6_psi, knots):
        report = power_coefficient_check(x6, x6_psi, 2)
        assert report.verdict is None
        assert list(report.invariants) == [k.name for k in knots]

    def test_fourcycles_z4_hypothesis_fails_with_witness(self):
        # the order-12 extension by the squared generator admits no inner
        # preimage, and indeed some odd coefficient over Z4 is nonzero
        q = sym4_class_quandle((4,))
        psi = second_cohomology(q, 4).representatives[0]
        report = power_coefficient_check(q, psi, 2)
        assert report.verdict.extension.n == 2 * q.n
        assert report.verdict.is_conjugation == "no"
        odd = [c for inv in report.invariants.values()
               for k, c in enumerate(inv.coeffs) if k % 2]
        assert any(odd)
        assert report.invariants["3_1"] == GroupRingElt(4, (6, 24, 0, 0))
        assert report.invariants["6_1"] == GroupRingElt(4, (6, 0, 0, 24))


    def test_folded_invariants_one_state_sum_per_knot(self, corpus, knots,
                                                       monkeypatch):
        # the phi-invariants folded from the psi-invariant equal the state
        # sums of phi = psi^d, and each knot is summed once per request
        calls = []

        def counted(x, phi, k):
            calls.append(k.name)
            return state_sum(x, phi, k)

        monkeypatch.setattr("quandleforge.knots.state_sum", counted)
        seen = 0
        for name, x in corpus:
            if x.n > 6:
                continue
            for psi in second_cohomology(x, 4).representatives:
                for d in (1, 2, 4):
                    calls.clear()
                    report = power_coefficient_check(x, psi, d,
                                                     knots=knots)
                    assert calls == [k.name for k in knots], (name, d)
                    if d == 4:
                        assert report.verdict is None
                        continue
                    phi = cocycle_power(psi, d)
                    for k in knots:
                        assert report.verdict.invariants[k.name] \
                            == state_sum(x, phi, k), (name, d, k.name)
                    seen += 1
        assert seen >= 40


@pytest.mark.parametrize("run", [
    lambda x, phi: constancy_pipeline(x, phi),
    lambda x, phi: power_coefficient_check(x, phi, 1),
    lambda x, phi: nonconstancy_certificates(x, phi),
], ids=["thm31", "thm35", "certify"])
def test_cochain_rejected_before_any_state_sum(run, d3, monkeypatch):
    calls = []
    monkeypatch.setattr("quandleforge.knots.state_sum",
                        lambda *args: calls.append(args))
    not_cocycle = Cocycle2(3, 2, ((0, 1, 1), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(NotACocycle):
        run(d3, not_cocycle)
    assert calls == []


@pytest.mark.parametrize("d", [0, 3])
def test_d_not_dividing_modulus_rejected_before_any_state_sum(d,
                                                              monkeypatch):
    # c4 is the class of 4-cycles in Sym(4), with H^2(c4; Z_4) = Z_4
    c4 = sym4_class_quandle((4,))
    psi = second_cohomology(c4, 4).representatives[0]
    calls = []
    monkeypatch.setattr("quandleforge.knots.state_sum",
                        lambda *args: calls.append(args))
    with pytest.raises(DNotDividesModulus):
        power_coefficient_check(c4, psi, d)
    assert calls == []


@pytest.mark.parametrize("run", [
    lambda x, phi, knots: constancy_pipeline(x, phi, knots=knots),
    lambda x, phi, knots: power_coefficient_check(x, phi, 1, knots=knots),
    lambda x, phi, knots: nonconstancy_certificates(x, phi, knots=knots),
], ids=["thm31", "thm35", "certify"])
def test_repeated_knot_name_rejected_before_any_state_sum(
        run, tetrahedral, tet_psi, monkeypatch):
    # keyed by name, the second "a" would hide the non-constant first one
    calls = []
    monkeypatch.setattr("quandleforge.knots.state_sum",
                        lambda *args: calls.append(args))
    knots = [parse_braid("a", 2, [1, 1, 1]), parse_braid("a", 1, [])]
    with pytest.raises(ValueError, match="'a'"):
        run(tetrahedral, tet_psi, knots)
    assert calls == []


@pytest.mark.parametrize("run", [
    lambda x, phi: constancy_pipeline(x, phi),
    lambda x, phi: power_coefficient_check(x, phi, 1),
    lambda x, phi: nonconstancy_certificates(x, phi),
], ids=["thm31", "thm35", "certify"])
def test_one_cocycle_check_per_request(run, tetrahedral, tet_psi):
    # phi is checked in _validated; the extension is built from that
    # Cocycle2 without a second check.  tet_psi has non-constant invariants,
    # so certify builds the extension too
    with mock.patch("quandleforge.cohomology.cocycle_witness",
                    wraps=cohomology.cocycle_witness) as witness:
        result = run(tetrahedral, tet_psi)
    assert witness.call_count == 1
    verdict = getattr(result, "verdict", result)
    assert verdict.extension.n == 8


def test_one_enumeration_per_request(x6, x6_psi, tetrahedral, tet_psi,
                                     monkeypatch):
    # each request enumerates its extension's enveloping group once, and a
    # disconnected extension not at all
    calls = []
    todd_coxeter_ = envgroup.todd_coxeter
    monkeypatch.setattr(
        envgroup, "todd_coxeter",
        lambda *args, **kwargs: calls.append(args)
        or todd_coxeter_(*args, **kwargs))
    c4 = sym4_class_quandle((4,))
    c4_psi = second_cohomology(c4, 4).representatives[0]

    def count(request):
        calls.clear()
        result = request()
        return len(calls), result

    n, verdict = count(lambda: constancy_pipeline(x6, x6_psi))
    assert (n, verdict.is_conjugation) == (1, "yes")
    n, report = count(lambda: power_coefficient_check(c4, c4_psi, 2))
    assert (n, report.verdict.is_conjugation) == (1, "no")
    n, verdict = count(lambda: nonconstancy_certificates(tetrahedral,
                                                         tet_psi))
    assert n == 1 and not verdict.invariant_constant_on_corpus
    n, verdict = count(lambda: constancy_pipeline(dihedral_quandle(4),
                                                  Cocycle2.zero(4, 2)))
    assert (n, verdict.is_conjugation) == (0, "not_applicable")


@pytest.fixture(scope="module")
def c4():
    """The class of 4-cycles in Sym(4)."""
    return sym4_class_quandle((4,))


@pytest.fixture(scope="module")
def c4_psi(c4):
    """The generator of H^2(c4; Z_4) = Z_4."""
    return second_cohomology(c4, 4).representatives[0]


@pytest.mark.parametrize("run, fixtures, checks", [
    (lambda x, phi: constancy_pipeline(x, phi), ("x6", "x6_psi"), 0),
    (lambda x, psi: power_coefficient_check(x, psi, 2), ("c4", "c4_psi"),
     0),
    (lambda x, phi: nonconstancy_certificates(x, phi),
     ("tetrahedral", "tet_psi"), 0),
    (lambda e12: recover_index2_cocycle(e12[1]), ("e12",), 1),
    (lambda x, phi: abelian_extension(x, phi), ("x6", "x6_psi"), 0),
], ids=["thm31", "thm35", "certify", "recover-ext", "extend"])
def test_homomorphism_checks_per_request(run, fixtures, checks, request):
    # thm31, thm35, certify and extend read E alone, so no projection onto
    # X is built and checked; recover-ext checks only its labeling onto E
    args = [request.getfixturevalue(name) for name in fixtures]
    with mock.patch("quandleforge.core._law_failure",
                    wraps=core._law_failure) as law:
        result = run(*args)
    assert law.call_count == checks
    assert result is not None


class TestCertificates:
    def test_tetrahedral_certificate(self, tetrahedral, tet_psi):
        # the certificate is thm31's verdict, returned only when some
        # invariant is non-constant
        verdict = nonconstancy_certificates(tetrahedral, tet_psi)
        assert verdict == constancy_pipeline(tetrahedral, tet_psi)
        assert verdict.extension.n == 8
        assert not is_constant(verdict.invariants["3_1"])
        assert verdict.is_conjugation == "no"

    def test_zero_cocycle_no_certificate(self, d3):
        assert nonconstancy_certificates(d3, Cocycle2.zero(3, 2)) is None

    def test_squared_generator_order12_certificate(self):
        # index-2 extension of the four-cycle class by the squared generator:
        # non-constant mod 2, hence no inner preimage
        q = sym4_class_quandle((4,))
        psi = second_cohomology(q, 4).representatives[0]
        phi = cocycle_power(psi, 2)
        verdict = nonconstancy_certificates(q, phi)
        assert verdict.extension.n == 12
        assert not verdict.invariant_constant_on_corpus
        assert verdict.is_conjugation == "no"

    def test_constant_family_never_certified(self, x6, x6_psi):
        assert nonconstancy_certificates(x6, x6_psi) is None


class TestCorpusCoherence:
    def test_verdicts_never_contradict(self, knots):
        # non-constant invariant forces a non-"yes" conjugation verdict
        from quandleforge.knots import state_sum
        for name, x, m, phi, e, proj in corpus_extensions(
                max_base_order=4, moduli=(2,)):
            nonconstant = any(not is_constant(state_sum(x, phi, k))
                              for k in knots)
            if nonconstant:
                assert conjugation_criterion(e).verdict != "yes", name


@pytest.fixture(scope="module")
def sym5_ext():
    """E(S_5 transpositions, Z_2, phi) for the generator phi of H^2 = Z_2,
    as a corpus_extensions tuple."""
    x = sym_class_quandle(5, (1, 1, 1, 2))
    phi = second_cohomology(x, 2).representatives[0]
    e, proj = extension_with_projection(x, phi)
    return ("E(sym5_transpositions,Z2,h2gen0)", x, 2, phi, e, proj)


def sign_visible(x, phi, knots):
    """Whether, on some knot of knots, dropping the crossing signs from the
    weights changes how many X-colorings weigh 0, and so the lift count to
    E(X, Z_m, phi) that the weights predict.  Both weights are summed here:
    coloring_weight is what the fuzz checks."""
    for k in knots:
        signed = unsigned = 0
        for c in enumerate_colorings(x, k):
            values = [(phi.values[a][b], s) for a, b, s in c.source_pairs]
            signed += sum(v * s for v, s in values) % phi.m == 0
            unsigned += sum(v for v, _ in values) % phi.m == 0
        if signed != unsigned:
            return True
    return False


# a knot on which the lift count over E(sym4_fourcycles, Z_4, h2gen0), as
# over its mirror, sees a crossing's sign, though no bundled knot's does; it
# stays out of the bundled table, which the frozen benchmark records read
SIGN_PROBE = parse_braid("sign_probe", 3, [2, 2, -1, -1, -1, 2])


@pytest.fixture(scope="module")
def fuzz_pools(sym5_ext):
    """The corpus extensions that are connected (the only ones with a 'yes'
    or 'no' verdict), all of them, the S_5 "yes" extension alone, whose
    base of order 10 is outside the corpus pools, and the extensions whose
    lift counts see the sign of a crossing's weight on some bundled knot or
    on SIGN_PROBE: the 12 nonzero classes mod 3, 4 and 6 over dihedral_6 and
    galex_sym3_conj, and E(sym4_fourcycles, Z_4, h2gen0).  At m = 2 no count
    can.  Of the 16 classes that m > 2, a nonzero cocycle and a nontrivial
    base used to admit, a probe of 300 random knots and their mirrors saw a
    sign over no other; over E(sym4_fourcycles, Z_4) on 4 knots, against 64
    for E(dihedral_6, Z_3)."""
    pool = corpus_extensions(moduli=(2, 3, 4, 6))
    probes = bundled_knots() + [SIGN_PROBE]
    signed = [c for c in pool
              if c[2] > 2 and sign_visible(c[1], c[3], probes)]
    return ([c for c in pool if is_connected(c[4])], pool, [sym5_ext],
            signed)


def test_sign_pool_keeps_13_extensions(fuzz_pools):
    signed = fuzz_pools[-1]
    assert len(signed) == 13
    assert "E(sym4_fourcycles,Z4,h2gen0)" in [c[0] for c in signed]
    # SIGN_PROBE is what keeps it, and both the probe and its mirror see
    # the sign there
    name, x, m, phi, e, _ = next(c for c in signed
                                 if c[0] == "E(sym4_fourcycles,Z4,h2gen0)")
    assert not sign_visible(x, phi, bundled_knots())
    mirror = parse_braid("mirror", 3, [-g for g in SIGN_PROBE.word])
    assert sign_visible(x, phi, [SIGN_PROBE])
    assert sign_visible(x, phi, [mirror])


def joining_letters(strands, word, signs):
    """Letters that, appended to word, leave its closure one component: each
    is the sigma_i (sign signs[j] for the j-th) whose positions i, i+1 lie in
    different cycles of the permutation so far, which merges the two."""
    perm = list(range(strands))
    for g in word:
        p = abs(g) - 1
        perm[p], perm[p + 1] = perm[p + 1], perm[p]
    out = []
    while True:
        cycle = [None] * strands        # the first position of each cycle
        for start in range(strands):
            j = start
            while cycle[j] is None:
                cycle[j] = start
                j = perm[j]
        i = next((i for i in range(strands - 1)
                  if cycle[i] != cycle[i + 1]), None)
        if i is None:
            return out
        out.append(signs[len(out)] * (i + 1))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]


@pytest.fixture(scope="module")
def conjugation_criteria():
    """Vendramin criteria by (extension table, max_cosets), shared by the
    fuzz examples, which draw the same few extensions again and again."""
    return {}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_knots_never_violate_theorems(fuzz_pools,
                                              conjugation_criteria, data):
    # Theorems 3.1 and 3.5 on random knots: a random braid word, closed to
    # one component by joining letters, is a classical knot.  One extension
    # is drawn from each pool.  Every example still takes each verdict
    # through _extension_verdict and its TheoremViolation check; only the
    # enveloping group of an extension seen before is not enumerated again.
    # The pools have only mod-2 "yes" extensions, so the weights are also
    # checked by lift counts: an X-coloring lifts to E(X, Z_m, phi) exactly
    # when its weight is 0, and then in m ways.  They are counted on the
    # knot and on its mirror (every letter negated: again a knot, with every
    # crossing sign flipped), over the extensions drawn from the first pools
    # and over all of the last, whose counts can see a crossing's sign.
    # Joining letters alone close to the unknot, whose colorings are all
    # trivial and weigh 0, so each word has at least two letters of its own.
    def memoized(e, max_cosets):
        key = (e.table, max_cosets)
        if key not in conjugation_criteria:
            conjugation_criteria[key] = conjugation_criterion(e, max_cosets)
        return conjugation_criteria[key]

    s = data.draw(st.integers(2, 5))
    word = data.draw(st.lists(
        st.sampled_from([g for g in range(1 - s, s) if g]), min_size=2,
        max_size=12))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=s - 1,
                               max_size=s - 1))
    k = parse_braid("fuzz", s, word + joining_letters(s, word, signs))
    mirror = parse_braid("mirror", s, [-g for g in k.word])
    drawn = [data.draw(st.sampled_from(pool)) for pool in fuzz_pools]
    for name, x, m, phi, e, _ in drawn[:-1] + fuzz_pools[-1]:
        for knot in (k, mirror):
            weights = [coloring_weight(phi, c)
                       for c in enumerate_colorings(x, knot)]
            assert len(enumerate_colorings(e, knot)) \
                == m * weights.count(0), (name, knot.name)
    with mock.patch.object(envgroup, "conjugation_criterion", memoized):
        for name, x, m, phi, e, _ in drawn:
            verdict = constancy_pipeline(x, phi, knots=[k])
            if verdict.is_conjugation == "yes":
                assert is_constant(verdict.invariants["fuzz"]), name
            # d = 1 is the constancy check above
            for d in (d for d in range(2, m + 1) if m % d == 0):
                report = power_coefficient_check(x, phi, d, knots=[k])
                if d < m and report.verdict.is_conjugation == "yes":
                    assert not any(c for j, c in enumerate(
                        report.invariants["fuzz"].coeffs) if j % (m // d)), \
                        (name, d)
