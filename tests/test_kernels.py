"""Kernel checks.

The coloring kernel must return exactly the list of the scan oracle, on
closed braids and on 1-tangles, and find as many colorings as the grid-walk
oracle.  The list is in lexicographic top-tuple order, each coloring with
a bottom that closes up and one signed source pair per crossing, the plan
never guesses more seed arcs than there are strands, and the first seed
runs over orbit representatives only.
Coset enumeration must give the same group orders and generator-column
patterns as the define-only oracle.
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EXTRA_PRESENTATIONS, tetrahedral_quandle
from oracles import (define_only_coset_enumeration, enveloping_relators,
                     grid_coloring_count, scan_colorings)
from quandleforge import _kernels
from quandleforge._kernels import braid_closure_colorings, coset_enumeration
from quandleforge.cohomology import second_cohomology
from quandleforge.constructions import (abelian_extension, alexander_quandle,
                                        dihedral_quandle, trivial_quandle)
from quandleforge.core import is_connected, orbit_forest, orbits
from quandleforge.knots import BUNDLED_WORDS


def flat(q):
    return [v for row in q.table for v in row]


def colorings(q, s, word, relax, stats=None):
    return braid_closure_colorings(q.table, q.n, s, word, orbit_forest(q),
                                   relax_first=relax, stats=stats)


def to_columns(word):
    return tuple(2 * (g - 1) if g > 0 else 2 * (-g - 1) + 1 for g in word)


def tetrahedral_extension():
    """E(tetrahedral, Z_2, generator), order 8: its trefoil tangle has
    colorings with distinct endpoints, so relax_first changes the count.
    Over faithful or Alexander quandles (all dihedral ones) it never does."""
    t = tetrahedral_quandle()
    psi = second_cohomology(t, 2).representatives[0]
    return abelian_extension(t, 2, psi)[0]


class TestColoringScan:
    TET_EXT = tetrahedral_extension()
    QUANDLES = [dihedral_quandle(3), dihedral_quandle(4), dihedral_quandle(5),
                dihedral_quandle(6), TET_EXT]
    WORDS = [
        (2, [1, 1, 1]),
        (3, [1, -2, 1, -2]),
        (1, []),
        (4, [1, 1, 2, -1, -3, 2, -3]),
        (3, [1, 1, 1, 2, -1, 2]),
    ]

    def test_fixed_words(self):
        # lexicographic top-tuple order
        for q in (dihedral_quandle(6), alexander_quandle(5, 2),
                  trivial_quandle(4), self.TET_EXT):
            for s, w in self.WORDS:
                for relax in (False, True):
                    whole = colorings(q, s, w, relax)
                    tops = [top for top, _, _ in whole]
                    assert tops == sorted(set(tops))
                    start = 1 if relax else 0
                    for top, bottom, pairs in whole:
                        assert bottom[start:] == top[start:]
                        assert [sign for _, _, sign in pairs] \
                            == [1 if g > 0 else -1 for g in w]
                    assert len(whole) == grid_coloring_count(
                        q.table, s, w, tangle=relax)

    def test_corpus_matches_scan_oracle(self, corpus):
        words = [(s, w) for _, s, w in BUNDLED_WORDS]
        words += [p for extra in EXTRA_PRESENTATIONS.values() for p in extra]
        seen = 0
        for name, q in corpus:
            if q.n > 9:
                continue
            for s, w in words:
                for relax in (False, True):
                    assert colorings(q, s, w, relax) \
                        == scan_colorings(flat(q), q.n, s, w,
                                          relax_first=relax), (name, w, relax)
                    seen += 1
        assert seen >= 400

    def test_stats_count_seed_tuples(self):
        # dihedral_quandle(5) is connected, dihedral_quandle(6) has 2 orbits
        words = [(s, w) for name, s, w in BUNDLED_WORDS
                 if name in ("3_1", "5_2")]
        for q, r in ((dihedral_quandle(5), 1), (dihedral_quandle(6), 2)):
            for s, w in words:
                for relax in (False, True):
                    stats = {}
                    colorings(q, s, w, relax, stats)
                    k = stats["seeds"]
                    assert k == len(_kernels._plan(s, w, relax).levels)
                    assert stats["orbits"] == len(orbits(q)) == r
                    assert 0 < stats["candidates"] <= r * q.n ** (k - 1)
                    if r == 1:
                        assert stats["candidates"] < q.n ** k

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_words_match_scan_oracle(self, data):
        q = data.draw(st.sampled_from(self.QUANDLES))
        s = data.draw(st.integers(1, 5))
        word = data.draw(st.lists(
            st.sampled_from([g for g in range(-s + 1, s) if g != 0]),
            max_size=10)) if s > 1 else []
        relax = data.draw(st.booleans())
        assert len(_kernels._plan(s, word, relax).levels) <= s
        assert colorings(q, s, word, relax) \
            == scan_colorings(flat(q), q.n, s, word, relax_first=relax)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_words_match_grid_oracle(self, data):
        q = data.draw(st.sampled_from(self.QUANDLES))
        s = data.draw(st.integers(2, 4))
        word = data.draw(st.lists(
            st.sampled_from([g for g in range(-s + 1, s) if g != 0]),
            max_size=8))
        relax = data.draw(st.booleans())
        got = colorings(q, s, word, relax)
        assert len(got) == grid_coloring_count(q.table, s, word,
                                               tangle=relax)


def coxeter(*ms):
    """Relators of the linear Coxeter group with Coxeter matrix entries ms
    between consecutive generators."""
    n = len(ms) + 1
    rels = [(2 * i, 2 * i) for i in range(n)]
    for i, m in enumerate(ms):
        rels.append((2 * i, 2 * (i + 1)) * m)
    for i in range(n):
        for j in range(i + 2, n):
            rels.append((2 * i, 2 * j) * 2)
    return n, rels


def order_and_classes(ngens, relators, enumerate_cosets):
    """The group order and, for each generator, the first generator with
    the same column: both independent of the coset numbering."""
    complete, table = enumerate_cosets(ngens, relators, 10 ** 6)
    assert complete
    first = {}
    classes = tuple(first.setdefault(tuple(row[2 * i] for row in table), i)
                    for i in range(ngens))
    return len(table), classes


def assert_matches_oracle(ngens, relators):
    got = order_and_classes(ngens, relators, coset_enumeration)
    assert got == order_and_classes(ngens, relators,
                                    define_only_coset_enumeration)
    return got[0]


class TestCosetEnumerationAgainstOracle:
    def test_small_presentations(self):
        for ng, rels, order in [(1, [(0,)], 1), (1, [(0, 0)], 2),
                                (1, [(0,) * 7], 7), (1, [(1,) * 5], 5),
                                (1, [(0,) * 12, (0,) * 8], 4),
                                (2, [(0, 0), (2, 2), (0, 2) * 3], 6)]:
            assert assert_matches_oracle(ng, rels) == order

    @pytest.mark.parametrize("ms,order", [((3, 3, 4), 384),
                                          ((3, 3, 3, 4), 3840),
                                          ((3, 3, 3, 3, 3), 5040)],
                             ids=["B4", "B5", "A6"])
    def test_coxeter_groups(self, ms, order):
        ng, rels = coxeter(*ms)
        assert assert_matches_oracle(ng, rels) == order

    def test_connected_corpus_enveloping_groups(self, corpus):
        seen = 0
        for name, q in corpus:
            if not is_connected(q):
                continue
            rels = enveloping_relators(q.table)
            assert_matches_oracle(q.n, [to_columns(r) for r in rels])
            seen += 1
        assert seen >= 10

    def test_stats_count_cosets(self):
        stats = {}
        complete, table = coset_enumeration(*coxeter(3, 3, 4), 10 ** 6, stats)
        assert complete and stats["live"] == len(table) == 384
        assert stats["allocated"] >= 384

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_cyclic_and_dihedral(self, data):
        if data.draw(st.booleans()):
            ks = data.draw(st.lists(st.integers(1, 24), min_size=1,
                                    max_size=3))
            ng, order = 1, gcd(*ks)
            rels = [(data.draw(st.sampled_from([0, 1])),) * k for k in ks]
        else:
            ms = data.draw(st.lists(st.integers(1, 12), min_size=1,
                                    max_size=2))
            ng, order = 2, 2 * gcd(*ms)
            rels = [(0, 0), (2, 2)] + [(0, 2) * m for m in ms]
        rels = data.draw(st.permutations(rels))
        assert assert_matches_oracle(ng, rels) == order
