import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (Permutation, are_isomorphic, corpus_extensions,
                     extension_with_projection)
from oracles import dihedral_table, group_axiom_failure, trivial_table
from quandleforge.cohomology import Cocycle2, cocycle_witness
from quandleforge.constructions import (GroupAutomorphism, abelian_extension,
                                        alexander_quandle,
                                        conjugation_automorphism,
                                        conjugation_quandle, cyclic_group,
                                        dihedral_quandle, extension_table,
                                        finite_group,
                                        generalized_alexander_quandle,
                                        symmetric_group, trivial_quandle)
from quandleforge.core import (QuandleMap, inn_image, is_connected,
                               is_covering, validate_quandle)
from quandleforge.errors import AxiomViolation, NotACocycle, NotAUnit


def inversion_automorphism(g):
    """a -> a^-1; an automorphism exactly when g is abelian."""
    return GroupAutomorphism(g, g.inverse)


def element_of_cycle_type(elems, ct):
    for i, p in enumerate(elems):
        if Permutation(p).cycle_type() == ct:
            return i
    raise AssertionError(f"no element of type {ct}")


class TestGroups:
    def test_cyclic(self):
        g = cyclic_group(6)
        assert g.order == 6 and g.identity == 0
        assert g.inverse[2] == 4

    def test_symmetric_orders(self):
        for d, expected in [(1, 1), (2, 2), (3, 6), (4, 24)]:
            g, _ = symmetric_group(d)
            assert g.order == expected

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            finite_group([[0, 1], [1, 1]])   # not associative/invertible

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_verdict_matches_numpy_oracle(self, data):
        # a cyclic or Sym(3) table with one entry changed is rejected exactly
        # when the first, numpy check rejects it, for the same reason
        k = data.draw(st.sampled_from([2, 3, 4, 6, "sym3"]))
        g = symmetric_group(3)[0] if k == "sym3" else cyclic_group(k)
        table = [list(r) for r in g.mult]
        cell = st.integers(0, g.order - 1)
        table[data.draw(cell)][data.draw(cell)] = data.draw(cell)
        failure = group_axiom_failure(table)
        if failure is None:
            assert finite_group(table).mult == tuple(map(tuple, table))
            return
        kind, witness = failure
        message = {"associativity": "multiplication is not associative",
                   "identity": "no identity element",
                   "inverse": f"element {witness} has no inverse"}[kind]
        with pytest.raises(ValueError, match=f"^{message}$"):
            finite_group(table)

    def test_axiom_checks_need_little_memory(self):
        # the checks compare one (b, c) pair at a time; two n^3 int64 arrays
        # would be about 750 MB at order 360 and 100 MB at order 188, and
        # numpy reports its buffers to tracemalloc
        group = [[(a + b) % 360 for b in range(360)] for a in range(360)]
        d188 = [[(2 * b - a) % 188 for b in range(188)] for a in range(188)]
        for check in (lambda: finite_group(group),
                      lambda: validate_quandle(188, d188)):
            tracemalloc.start()
            try:
                check()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2 ** 20

    def test_automorphism_validated(self):
        g = cyclic_group(5)
        GroupAutomorphism(g, (0, 2, 4, 1, 3))   # multiplication by 2
        with pytest.raises(ValueError):
            GroupAutomorphism(g, (0, 1, 2, 4, 3))

    def test_inversion_needs_abelian(self):
        g, _ = symmetric_group(3)
        with pytest.raises(ValueError):
            inversion_automorphism(g)


class TestDihedralAlexander:
    def test_dihedral3_formula(self, d3):
        assert d3.table == ((0, 2, 1), (2, 1, 0), (1, 0, 2))

    def test_dihedral1_trivial(self):
        assert dihedral_quandle(1).n == 1

    def test_dihedral_and_trivial_match_their_formulas(self):
        # both are now Alexander quandles, t = -1 and t = 1
        for n in range(1, 31):
            assert dihedral_quandle(n).table == dihedral_table(n), n
            assert trivial_quandle(n).table == trivial_table(n), n

    @pytest.mark.parametrize("make", [dihedral_quandle, trivial_quandle])
    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one_rejected(self, make, n):
        with pytest.raises(ValueError, match="order must be positive"):
            make(n)

    def test_dihedral4_disconnected(self, d4):
        assert not is_connected(d4)

    def test_alexander_t_minus_one_is_dihedral(self):
        for n in (2, 3, 4, 5, 8, 9):
            assert alexander_quandle(n, n - 1).table \
                == dihedral_quandle(n).table

    def test_alexander_5_2_connected(self):
        assert is_connected(alexander_quandle(5, 2))

    def test_alexander_4_3_equals_dihedral4(self, d4):
        q = alexander_quandle(4, 3)
        assert q.table == d4.table and not is_connected(q)

    def test_nonunit_rejected(self):
        with pytest.raises(NotAUnit):
            alexander_quandle(4, 2)


class TestGeneralizedAlexander:
    def test_z3_inversion_is_dihedral3(self, d3):
        g = cyclic_group(3)
        q = generalized_alexander_quandle(g, inversion_automorphism(g))
        assert are_isomorphic(q, d3) is not None

    def test_identity_automorphism_gives_trivial(self):
        g = cyclic_group(4)
        f = GroupAutomorphism(g, tuple(range(4)))
        q = generalized_alexander_quandle(g, f)
        assert q.table == trivial_quandle(4).table

    def test_sym4_conjugation_order_24(self):
        g, elems = symmetric_group(4)
        t = element_of_cycle_type(elems, (1, 1, 2))
        q = generalized_alexander_quandle(g, conjugation_automorphism(g, t))
        assert q.n == 24

    def test_projection_onto_conjugacy_class(self):
        # g -> x^g is an epimorphism from the twisted group quandle onto the
        # class of x, and the image of the inner representation matches it
        g, elems = symmetric_group(3)
        t = element_of_cycle_type(elems, (1, 2))
        y = generalized_alexander_quandle(g, conjugation_automorphism(g, t))
        x, labels = conjugation_quandle(g, t)
        pos = {v: i for i, v in enumerate(labels)}
        p = QuandleMap(y, x, tuple(pos[g.conj(t, h)] for h in range(g.order)))
        assert p.is_epimorphism()
        assert is_covering(p)
        img, _ = inn_image(y)
        assert are_isomorphic(img, x) is not None

    def test_projection_sym4(self):
        g, elems = symmetric_group(4)
        t = element_of_cycle_type(elems, (1, 1, 2))
        y = generalized_alexander_quandle(g, conjugation_automorphism(g, t))
        x, labels = conjugation_quandle(g, t)
        pos = {v: i for i, v in enumerate(labels)}
        p = QuandleMap(y, x, tuple(pos[g.conj(t, h)] for h in range(g.order)))
        assert p.is_epimorphism()
        img, _ = inn_image(y)
        assert are_isomorphic(img, x) is not None


class TestConjugationQuandle:
    def test_sym4_transpositions(self, x6):
        assert x6.n == 6 and is_connected(x6)

    def test_abelian_group_singleton(self):
        g = cyclic_group(5)
        q, labels = conjugation_quandle(g, 3)
        assert q.n == 1 and labels == (3,)

    def test_sym3_transpositions_is_dihedral3(self, d3):
        g, elems = symmetric_group(3)
        t = element_of_cycle_type(elems, (1, 2))
        q, _ = conjugation_quandle(g, t)
        assert q.n == 3
        assert are_isomorphic(q, d3) is not None


class TestAbelianExtension:
    def test_zero_cocycle_sizes(self, d3):
        for m in (2, 3, 4):
            e, proj = extension_with_projection(d3, Cocycle2.zero(3, m))
            assert e.n == 3 * m
            assert is_covering(proj)

    def test_generator_extension_valid(self, tetrahedral, tet_psi):
        e, proj = extension_with_projection(tetrahedral, tet_psi)
        assert e.n == 8
        assert is_covering(proj)

    def test_bad_cocycle_rejected(self, d3):
        vals = [[0, 1, 1], [0, 0, 0], [0, 0, 0]]
        assert cocycle_witness(d3, 2, vals) is not None
        with pytest.raises(NotACocycle) as exc:
            abelian_extension(d3, Cocycle2(3, 2, vals))
        assert exc.value.witness is not None

    def test_extensions_pass_table_check(self):
        # abelian_extension checks only the cocycle; the axioms of the table
        # it builds must hold on every extension of the corpus
        exts = corpus_extensions(max_base_order=12, moduli=(2, 3, 4))
        assert len(exts) == 154
        for name, x, m, phi, e, proj in exts:
            assert validate_quandle(e.n, e.table) == e, name

    def test_extension_valid_iff_cocycle(self):
        # exhaustive equivalence between the quandle axioms on the raw
        # extension table and the cocycle identity
        cases = [(trivial_quandle(2), 2), (trivial_quandle(2), 3),
                 (dihedral_quandle(3), 2), (dihedral_quandle(3), 3),
                 (trivial_quandle(3), 2)]
        for q, m in cases:
            pairs = [(x, y) for x in range(q.n) for y in range(q.n) if x != y]
            mismatches = 0
            for assignment in product(range(m), repeat=len(pairs)):
                vals = [[0] * q.n for _ in range(q.n)]
                for v, (x, y) in zip(assignment, pairs):
                    vals[x][y] = v
                really = cocycle_witness(q, m, vals) is None
                table = extension_table(q, m, vals)
                try:
                    validate_quandle(q.n * m, table)
                    valid = True
                except AxiomViolation:
                    valid = False
                if valid != really:
                    mismatches += 1
            assert mismatches == 0, (q.n, m)
