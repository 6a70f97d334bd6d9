import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from helpers import (Permutation, corpus_extensions,
                     endpoints_same_translation, extension_with_projection,
                     presentations, product_quandle)
from oracles import (dihedral_linear_count, grid_coloring_count,
                     move_tables, propagate_moves)
from quandleforge import _kernels, knots
from quandleforge.cohomology import Cocycle2, coboundary, cocycle_power, second_cohomology
from quandleforge.constructions import (abelian_extension, dihedral_quandle,
                                        trivial_quandle)
from quandleforge.core import QuandleMap, is_faithful, orbit_forest
from quandleforge.errors import (BadGenerator, EnumerationTooLarge,
                                 FiberMismatch, NotACovering, NotAKnot,
                                 ShapeMismatch, StateSumTooLarge,
                                 TheoremViolation)
from quandleforge.knots import (BUNDLED_WORDS, GroupRingElt, coloring_weight,
                                enumerate_colorings, is_constant,
                                lift_coloring, parse_braid, state_sum,
                                tangle_colorings)

# determinant parts: which dihedral orders should see extra colorings
EXPECTED_FINGERPRINTS = {
    "unknot": {}, "3_1": {3}, "4_1": {5}, "5_1": {5}, "5_2": {7},
    "6_1": {3}, "6_2": {11}, "6_3": {13}, "7_1": {7}, "8_19": {3},
    "8_20": {3},
}


class TestParseBraid:
    def test_trefoil(self):
        k = parse_braid("3_1", 2, [1, 1, 1])
        assert (k.name, k.strands, k.word) == ("3_1", 2, (1, 1, 1))

    def test_figure_eight(self):
        # closure is a single 3-cycle, so the word parses as a knot
        k = parse_braid("4_1", 3, [1, -2, 1, -2])
        assert (k.name, k.strands, k.word) == ("4_1", 3, (1, -2, 1, -2))

    def test_two_component_closure_rejected(self):
        with pytest.raises(NotAKnot):
            parse_braid("bad", 2, [1, 1])

    def test_more_strands_than_letters_refused_before_any_list(self):
        # each letter is one transposition, so 10^6 strands and one letter
        # close to 999,999 components; a list of the strands alone would
        # take about 38 MB
        tracemalloc.start()
        try:
            with pytest.raises(NotAKnot, match="^closure of k has more than "
                               "one component$"):
                parse_braid("k", 10 ** 6, [1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak

    def test_bad_generator(self):
        with pytest.raises(BadGenerator):
            parse_braid("bad", 2, [2])
        with pytest.raises(BadGenerator):
            parse_braid("bad", 3, [0])

    def test_bundled_table_is_parseable(self, knots):
        assert len(knots) == len(BUNDLED_WORDS)


class TestColoringCounts:
    def test_trefoil_d3(self, d3):
        k = parse_braid("3_1", 2, [1, 1, 1])
        assert grid_coloring_count(d3.table, 2, [1, 1, 1]) == 9
        assert len(enumerate_colorings(d3, k)) == 9

    def test_figure8_d3_monochromatic(self, d3):
        k = parse_braid("4_1", 3, [1, -2, 1, -2])
        assert grid_coloring_count(d3.table, 3, k.word) == 3
        cols = enumerate_colorings(d3, k)
        assert len(cols) == 3
        assert all(len(set(c.top)) == 1 for c in cols)

    def test_figure8_d5(self, d5):
        k = parse_braid("4_1", 3, [1, -2, 1, -2])
        assert grid_coloring_count(d5.table, 3, k.word) == 25
        assert len(enumerate_colorings(d5, k)) == 25

    def test_bundled_fingerprints_vs_linear_oracle(self, knots):
        for k in knots:
            extra = EXPECTED_FINGERPRINTS[k.name]
            for p in (3, 5, 7, 11, 13):
                oracle = dihedral_linear_count(p, k.strands, k.word)
                engine = len(enumerate_colorings(dihedral_quandle(p), k))
                assert engine == oracle, (k.name, p)
                assert oracle == (p * p if p in extra else p), (k.name, p)

    def test_engine_matches_grid_oracle_offprime(self, knots, tetrahedral,
                                                 x6):
        for q in (tetrahedral, x6, dihedral_quandle(4)):
            for k in knots:
                if k.strands > 3:
                    continue
                assert len(enumerate_colorings(q, k)) \
                    == grid_coloring_count(q.table, k.strands,
                                           list(k.word)), k.name

    def test_cap(self, d5, monkeypatch):
        # the trefoil needs 2 seed arcs: 5^2 = 25 candidates
        k = parse_braid("3_1", 2, [1, 1, 1])
        monkeypatch.setattr(knots, "MAX_ASSIGNMENTS", 10)
        with pytest.raises(EnumerationTooLarge, match=r"2 strands need 2 "
                           r"seed arcs, 5\^2 = 25 candidates") as info:
            enumerate_colorings(d5, k)
        err = info.value
        assert (err.n, err.strands, err.seeds, err.candidates, err.cap) \
            == (5, 2, 2, 25, 10)

    def test_cap_bounds_seed_tuples_not_top_tuples(self, monkeypatch):
        # 5_2 stabilized to 6 strands: 7^6 top tuples, but a plan of at
        # most 5 seed arcs fits a cap of 7^5
        k = parse_braid("5_2", 6, [1, 1, 1, 2, -1, 2, 3, 4, 5])
        assert len(_kernels._plan(k.strands, k.word, False).levels) <= 5
        monkeypatch.setattr(knots, "MAX_ASSIGNMENTS", 7 ** 5)
        cols = enumerate_colorings(dihedral_quandle(7), k)
        assert len(cols) == dihedral_linear_count(7, 6, k.word) == 49


def propagate(q, strands, word):
    """Every top tuple in lexicographic order, pushed through the word by the
    move loop of the scan oracle: (bottoms, source pairs) as arrays."""
    tab, inv = move_tables([v for row in q.table for v in row], q.n)
    tops = np.array(list(product(range(q.n), repeat=strands)),
                    dtype=np.int64)
    pairs = np.empty((len(tops), len(word), 2), dtype=np.int64)
    return propagate_moves(tab, inv, q.n, tops, word, pairs), pairs


def propagation_map(q, strands, word):
    """The permutation of Q^strands induced by the word; tuples are encoded
    base |Q| with position 0 most significant."""
    bottoms, _ = propagate(q, strands, word)
    images = bottoms @ q.n ** np.arange(strands - 1, -1, -1)
    return Permutation(tuple(images.tolist()))


class TestBraidMoves:
    def test_yang_baxter(self, d3, tetrahedral):
        for q in (d3, tetrahedral):
            assert propagation_map(q, 3, [1, 2, 1]) \
                == propagation_map(q, 3, [2, 1, 2])

    def test_distant_letters_commute(self, d3):
        assert propagation_map(d3, 4, [1, 3]) \
            == propagation_map(d3, 4, [3, 1])

    def test_cancellation_exact(self, d5):
        # [g, -g] must undo itself with identical source pairs of opposite
        # sign, so the weight cancels for every cocycle
        bottoms, pairs = propagate(d5, 2, [1, -1])
        assert bottoms.tolist() == [list(t) for t in product(range(5),
                                                             repeat=2)]
        assert (pairs[:, 0] == pairs[:, 1]).all()
        cols = _kernels.braid_closure_colorings(d5.table, 5, 2, [1, -1],
                                                orbit_forest(d5), cap=25)
        assert len(cols) == 25
        for top, bottom, ((x1, y1, s1), (x2, y2, s2)) in cols:
            assert bottom == top
            assert (x1, y1) == (x2, y2) and s1 == -s2
        assert propagation_map(d5, 2, [1, -1]) \
            == propagation_map(d5, 2, [])

    def test_markov_diagram_independence(self, d3, tetrahedral, tet_psi,
                                         x6, x6_psi):
        pairs = [(d3, Cocycle2.zero(3, 3)), (tetrahedral, tet_psi),
                 (x6, x6_psi)]
        for name in ("3_1", "4_1"):
            pres = presentations(name)
            assert len(pres) >= 2
            for q, phi in pairs:
                sums = {state_sum(q, phi, k).coeffs for k in pres}
                counts = {len(enumerate_colorings(q, k)) for k in pres}
                assert len(sums) == 1, (name, q.n)
                assert len(counts) == 1


class TestStateSum:
    def test_zero_cocycle_trefoil(self, d3):
        k = parse_braid("3_1", 2, [1, 1, 1])
        e = state_sum(d3, Cocycle2.zero(3, 3), k)
        assert e.coeffs == (9, 0, 0)
        assert is_constant(e)

    def test_tetrahedral_trefoil_nonconstant(self, tetrahedral, tet_psi):
        k = parse_braid("3_1", 2, [1, 1, 1])
        e = state_sum(tetrahedral, tet_psi, k)
        assert e.coeffs == (4, 12)
        assert not is_constant(e)

    def test_unknot_no_crossings(self, d5, tet_psi, tetrahedral):
        k = parse_braid("unknot", 1, [])
        assert state_sum(d5, Cocycle2.zero(5, 4), k).coeffs == (5, 0, 0, 0)
        assert state_sum(tetrahedral, tet_psi, k).coeffs == (4, 0)

    def test_coefficient_sum_is_coloring_count(self, knots, tetrahedral,
                                               tet_psi, x6, x6_psi, d3):
        pairs = [(tetrahedral, tet_psi), (x6, x6_psi),
                 (d3, Cocycle2.zero(3, 2))]
        for q, phi in pairs:
            for k in knots:
                assert sum(state_sum(q, phi, k).coeffs) \
                    == len(enumerate_colorings(q, k)), k.name

    def test_cohomologous_cocycles_same_invariant(self, tetrahedral,
                                                  tet_psi, knots):
        g = coboundary(tetrahedral, 2, (1, 1, 0, 0))
        shifted = tet_psi.add(g)
        for k in knots:
            assert state_sum(tetrahedral, tet_psi, k).coeffs \
                == state_sum(tetrahedral, shifted, k).coeffs, k.name

    def test_cocycle_of_another_order_rejected(self, d3, d5):
        k = parse_braid("3_1", 2, [1, 1, 1])
        with pytest.raises(ShapeMismatch, match="cocycle on 5 elements, "
                           "quandle of order 3"):
            state_sum(d3, Cocycle2.zero(5, 2), k)

    def test_coefficients_refused_before_any_coloring(self, d3, monkeypatch):
        # a cocycle mod 10^8 asks for a vector of 10^8 coefficients, about
        # 800 MB: refused with nothing allocated and no coloring enumerated
        k = parse_braid("3_1", 2, [1, 1, 1])
        calls = []
        monkeypatch.setattr(knots, "enumerate_colorings",
                            lambda *args: calls.append(args))
        phi = Cocycle2.zero(3, 10 ** 8)
        tracemalloc.start()
        try:
            with pytest.raises(StateSumTooLarge, match=(
                    r"^a state sum mod 100000000 has 100000000 "
                    r"coefficients, over the budget of 2000000$")) as exc:
                state_sum(d3, phi, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak
        assert (exc.value.m, exc.value.budget) == (10 ** 8, 2 * 10 ** 6)
        assert calls == []

    def test_coefficient_budget_is_inclusive(self, d3, monkeypatch):
        k = parse_braid("3_1", 2, [1, 1, 1])
        # the default admits m = 10^6: the trefoil's 9 colorings by d3
        assert state_sum(d3, Cocycle2.zero(3, 10 ** 6), k).coeffs[0] == 9
        monkeypatch.setattr(knots, "MAX_COEFFICIENTS", 4)
        assert state_sum(d3, Cocycle2.zero(3, 4), k).coeffs == (9, 0, 0, 0)
        with pytest.raises(StateSumTooLarge, match="over the budget of 4$"):
            state_sum(d3, Cocycle2.zero(3, 5), k)

    def test_is_constant(self):
        assert is_constant(GroupRingElt(1, (9,)))
        assert is_constant(GroupRingElt(3, (9, 0, 0)))
        assert not is_constant(GroupRingElt(2, (1, 1)))
        assert is_constant(GroupRingElt(2, (0, 0)))


class TestTangles:
    def test_faithful_connected_ends_equal(self, d3):
        k = parse_braid("3_1", 2, [1, 1, 1])
        cols = tangle_colorings(d3, k)
        assert cols and all(c.y0 == c.y1 for c in cols)

    def test_trivial_quandle_ends_equal(self):
        q = trivial_quandle(4)
        k = parse_braid("4_1", 3, [1, -2, 1, -2])
        cols = tangle_colorings(q, k)
        assert cols and all(c.y0 == c.y1 for c in cols)

    def test_figure8_d3_end_monochromatic(self, d3):
        k = parse_braid("4_1", 3, [1, -2, 1, -2])
        assert all(c.y0 == c.y1 for c in tangle_colorings(d3, k))

    def test_translation_equality_everywhere(self, corpus, knots):
        for name, q in corpus:
            if q.n > 9:
                continue
            for k in knots:
                assert endpoints_same_translation(q, k), (name, k.name)

    def test_translation_equality_nonfaithful(self, tetrahedral, tet_psi,
                                              knots):
        e = abelian_extension(tetrahedral, tet_psi)
        assert not is_faithful(e)
        for k in knots:
            assert endpoints_same_translation(e, k), k.name

    def test_unknot_tangle(self, d3):
        k = parse_braid("unknot", 1, [])
        assert all(c.y0 == c.y1 for c in tangle_colorings(d3, k))
        assert endpoints_same_translation(d3, k)

    def test_nonfaithful_extension_can_split_ends(self, tetrahedral,
                                                  tet_psi):
        # the trefoil tangle over E(tetrahedral) has fiber-splitting ends
        # exactly because the base invariant is non-constant
        e = abelian_extension(tetrahedral, tet_psi)
        k = parse_braid("3_1", 2, [1, 1, 1])
        assert not all(c.y0 == c.y1 for c in tangle_colorings(e, k))


class TestLifts:
    def test_identity_lift(self, d3):
        f = QuandleMap(d3, d3, (0, 1, 2))
        k = parse_braid("3_1", 2, [1, 1, 1])
        base = tangle_colorings(d3, k)[0]
        assert lift_coloring(f, k, base, base.y0).top == base.top

    def test_zero_extension_m_lifts(self, d3):
        m = 3
        e, proj = extension_with_projection(d3, Cocycle2.zero(3, m))
        k = parse_braid("3_1", 2, [1, 1, 1])
        for base in tangle_colorings(d3, k):
            fiber = [y for y in range(e.n) if proj.images[y] == base.y0]
            assert len(fiber) == m
            lifts = [lift_coloring(proj, k, base, y) for y in fiber]
            assert len({l.top for l in lifts}) == m

    def test_generator_extension_unique_lift_per_fiber(self, tetrahedral,
                                                       tet_psi):
        e, proj = extension_with_projection(tetrahedral, tet_psi)
        k = parse_braid("3_1", 2, [1, 1, 1])
        for base in tangle_colorings(tetrahedral, k)[:6]:
            fiber = [y for y in range(e.n) if proj.images[y] == base.y0]
            for y in fiber:
                lift = lift_coloring(proj, k, base, y)
                assert lift.top[0] == y
                assert tuple(proj.images[v] for v in lift.top) == base.top

    def test_fiber_mismatch(self, d3):
        e, proj = extension_with_projection(d3, Cocycle2.zero(3, 2))
        k = parse_braid("3_1", 2, [1, 1, 1])
        base = tangle_colorings(d3, k)[0]
        wrong = next(y for y in range(e.n) if proj.images[y] != base.y0)
        with pytest.raises(FiberMismatch):
            lift_coloring(proj, k, base, wrong)

    def test_lift_count_check_is_live(self, d3, monkeypatch):
        # every source coloring listed twice gives two lifts where the
        # covering lifting property allows one: the implementation's fault
        from quandleforge import knots as qknots
        e, proj = extension_with_projection(d3, Cocycle2.zero(3, 2))
        k = parse_braid("3_1", 2, [1, 1, 1])
        base = tangle_colorings(d3, k)[0]
        y = next(y for y in range(e.n) if proj.images[y] == base.y0)
        colorings = qknots.tangle_colorings
        monkeypatch.setattr(qknots, "tangle_colorings",
                            lambda q, k: 2 * colorings(q, k))
        with pytest.raises(TheoremViolation,
                           match="^expected exactly one lift, found 2$"):
            lift_coloring(proj, k, base, y)

    def test_not_a_covering_rejected(self, d3):
        p = product_quandle(d3, d3)
        f = QuandleMap(p, d3, tuple(i // 3 for i in range(9)))
        k = parse_braid("3_1", 2, [1, 1, 1])
        base = tangle_colorings(d3, k)[0]
        with pytest.raises(NotACovering):
            lift_coloring(f, k, base, 0)


class TestPowerWeights:
    def test_exponent_law_per_coloring(self, knots):
        # phi = psi^d: tangle weights reduce mod m, i.e. d*B_phi == d*B_psi
        # in Z_n, coloring by coloring
        from helpers import sym4_class_quandle
        q = sym4_class_quandle((4,))
        psi = second_cohomology(q, 4).representatives[0]
        d = 2
        phi = cocycle_power(psi, d)
        n, m = psi.m, phi.m
        for k in knots[:5]:
            for c in tangle_colorings(q, k):
                wn = coloring_weight(psi, c)
                wm = coloring_weight(phi, c)
                assert wm == wn % m
                assert (d * wn) % n == (d * wm) % n


def random_knots(seed, count):
    """count knots drawn from a seeded generator: words of 4 to 10 letters
    on 3 or 4 strands, kept when the closure has one component."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = rng.choice((3, 4))
        word = [rng.choice([g for g in range(1 - s, s) if g])
                for _ in range(rng.randrange(4, 11))]
        try:
            out.append(parse_braid(f"random{len(out)}", s, word))
        except NotAKnot:
            pass
    return out


class TestLiftCounts:
    """Carter-Elhamdadi-Nikiforou-Saito: an X-coloring of a knot lifts to
    E(X, Z_m, phi) exactly when its phi-weight is 0, and then in m ways.
    Colorings of E use no weights at all, so the counts check the signed
    weights that the state sum adds up.  The bundled knots of at most 3
    strands alone cannot see the sign at negative crossings (dropping it
    moves none of their state sums over these extensions); the seeded
    random knots can."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_lift_counts_match_weights(self, knots, m):
        knots = [k for k in knots if k.strands <= 3] + random_knots(1, 8)
        for name, x, _, phi, e, _ in corpus_extensions(6, (m,)):
            # E(X, Z_m, k*phi) for each k | m; k = m is the zero cocycle
            scaled = [(k, e if k == 1 else abelian_extension(x, phi.scale(k)))
                      for k in range(1, m + 1) if m % k == 0]
            for knot in knots:
                base = enumerate_colorings(x, knot)
                weights = [coloring_weight(phi, c) for c in base]
                lifts = {k: len(enumerate_colorings(ek, knot))
                         for k, ek in scaled}
                for k, count in lifts.items():
                    assert count == m * sum(k * w % m == 0 for w in weights), \
                        (name, k, knot.name)
                # the state sum is constant iff every coloring lifts to E
                assert is_constant(state_sum(x, phi, knot)) \
                    == (lifts[1] == m * len(base)), (name, knot.name)
