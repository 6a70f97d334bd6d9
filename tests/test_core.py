from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (Permutation, are_isomorphic, corpus_quandles,
                     extension_with_projection, product_quandle)
from oracles import (composition_order, naive_closure,
                     quandle_axiom_failure)
from quandleforge.constructions import (abelian_extension, dihedral_quandle,
                                        trivial_quandle)
from quandleforge import core
from quandleforge.cohomology import Cocycle2
from quandleforge.core import (QuandleMap, _generating_tree,
                               epimorphism_index, inn_image, inner_group,
                               is_connected, is_covering, is_faithful,
                               orbit_forest, orbits, validate_quandle)
from quandleforge.envgroup import _permutation_order
from quandleforge.errors import (AxiomViolation, GroupTooLarge,
                                 NonIntegralIndex, NotEpimorphism)

CORPUS_TABLES = [[list(r) for r in q.table] for _, q in corpus_quandles()]


def restarting_tree(q):
    """_generating_tree's first form: each time an element joins S, the
    breadth-first pass restarts at the first tree entry and tries every
    generator on every entry."""
    gens, tree, reached = [], [], [False] * q.n
    for s in range(q.n):
        if reached[s]:
            continue
        gens.append(s)
        reached[s] = True
        tree.append((s, None, len(gens) - 1))
        head = 0
        while head < len(tree):
            u = tree[head][0]
            head += 1
            for k, g in enumerate(gens):
                v = q.table[u][g]
                if not reached[v]:
                    reached[v] = True
                    tree.append((v, u, k))
    return gens, tuple(tree)


def relabel(q, sigma):
    inv = [0] * q.n
    for i, v in enumerate(sigma):
        inv[v] = i
    table = [[sigma[q.table[inv[a]][inv[b]]] for b in range(q.n)]
             for a in range(q.n)]
    return validate_quandle(q.n, table)


class TestPermutationOrder:
    def test_matches_composition_count(self):
        # every permutation of degree 0..6, the empty one included
        for degree in range(7):
            for images in permutations(range(degree)):
                assert _permutation_order(images) \
                    == composition_order(images), images

    def test_lcm_of_large_coprime_cycles(self):
        # cycles of lengths 2, 3, 5, 7, 11, 19 on 47 points, laid end to end
        images, start = [], 0
        for length in (2, 3, 5, 7, 11, 19):
            images += [start + (i + 1) % length for i in range(length)]
            start += length
        assert len(images) == 47
        assert Permutation(tuple(images)).cycle_type() == (2, 3, 5, 7, 11, 19)
        assert _permutation_order(tuple(images)) == 43890


class TestValidate:
    def test_trivial_order_one(self):
        q = validate_quandle(1, [[0]])
        assert q.n == 1

    def test_dihedral3_table(self, d3):
        assert d3.table == ((0, 2, 1), (2, 1, 0), (1, 0, 2))

    def test_rows_constant_is_trivial_quandle(self):
        # constant rows give the (valid) trivial quandle
        q = validate_quandle(2, [[0, 0], [1, 1]])
        assert q.n == 2

    def test_invertibility_violation(self):
        # column 0 is (0, 0), not a permutation
        with pytest.raises(AxiomViolation) as exc:
            validate_quandle(2, [[0, 1], [0, 1]])
        assert exc.value.kind == "invertibility"

    def test_idempotency_violation(self):
        with pytest.raises(AxiomViolation) as exc:
            validate_quandle(2, [[0, 1], [1, 0]])
        assert exc.value.kind == "idempotency"
        assert exc.value.witness == 1

    def test_distributivity_violation(self):
        # dihedral(3) with the last column replaced by the identity: columns
        # still fix the diagonal and are bijections, but axiom 3 breaks
        table = [[0, 2, 0], [2, 1, 1], [1, 0, 2]]
        with pytest.raises(AxiomViolation) as exc:
            validate_quandle(3, table)
        assert exc.value.kind == "distributivity"

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            validate_quandle(0, [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            validate_quandle(2, [[0, 5], [0, 1]])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_witness_matches_numpy_oracle(self, data):
        # a corpus table with one entry changed, or with two entries of one
        # column swapped, which keeps the columns bijections so that
        # distributivity decides; the oracle is the first, numpy check
        table = [list(r) for r in data.draw(st.sampled_from(CORPUS_TABLES))]
        n = len(table)
        cell = st.integers(0, n - 1)
        a, b = data.draw(cell), data.draw(cell)
        if data.draw(st.booleans()):
            table[a][b] = data.draw(cell)
        else:
            c = data.draw(cell)
            table[a][b], table[c][b] = table[c][b], table[a][b]
        expected = quandle_axiom_failure(table)
        if expected is None:
            assert validate_quandle(n, table).table == tuple(map(tuple, table))
        else:
            with pytest.raises(AxiomViolation) as exc:
                validate_quandle(n, table)
            assert (exc.value.kind, exc.value.witness) == expected


class TestTranslations:
    def test_dihedral3_column(self, d3):
        assert d3.column(0) == (0, 2, 1)

    def test_fixed_point(self, corpus):
        for _, q in corpus:
            for a in range(q.n):
                assert q.column(a)[a] == a

    def test_trivial_identity(self):
        assert trivial_quandle(1).column(0) == (0,)

    def test_matches_table(self, corpus):
        for _, q in corpus:
            for b in range(q.n):
                r = q.column(b)
                for a in range(q.n):
                    assert r[a] == q.table[a][b]


class TestInnerGroup:
    def test_trivial(self):
        assert len(inner_group(trivial_quandle(1))) == 1

    def test_dihedral3_order_six(self, d3):
        # oracle: naive closure of the three translations
        gens = {d3.column(a) for a in range(3)}
        assert len(naive_closure(gens)) == 6
        assert len(inner_group(d3)) == 6

    def test_dihedral4_matches_closure_oracle(self, d4):
        gens = {d4.column(a) for a in range(4)}
        expected = len(naive_closure(gens))
        assert expected == 4
        assert len(inner_group(d4)) == expected

    def test_corpus_matches_closure_oracle(self, corpus, e12):
        # inner_group closes over the translations of its generating set
        # only; the oracle closes over all n of them
        cases = [(name, q) for name, q in corpus if q.n <= 9]
        for name, q in cases + [("E(x6, Z_2, rep0)", e12[0])]:
            gens = {q.column(a) for a in range(q.n)}
            assert set(inner_group(q)) == naive_closure(gens), name

    def test_generating_tree(self, corpus, e12):
        for name, q in list(corpus) + [("E(x6, Z_2, rep0)", e12[0])]:
            gens, tree = _generating_tree(q)
            # the generator presentation's bytes follow this order
            assert (gens, tree) == restarting_tree(q), name
            order = [v for v, _, _ in tree]
            assert sorted(order) == list(range(q.n)), name
            roots = [v for v, u, _ in tree if u is None]
            assert roots == gens, name
            place = {v: i for i, v in enumerate(order)}
            for i, (v, u, k) in enumerate(tree):
                if u is None:
                    assert v == gens[k], name
                else:
                    assert v == q.table[u][gens[k]], name
                    assert place[u] < i, name

    def test_cap(self, d3, monkeypatch):
        # 9 cells are 3 elements of degree 3
        monkeypatch.setattr(core, "MAX_GROUP_CELLS", 9)
        with pytest.raises(GroupTooLarge) as info:
            inner_group(d3)
        err = info.value
        assert (err.cap, err.reached, err.degree) == (3, 4, 3)
        assert str(err).startswith("group closure exceeded cap 3")

    def test_default_cap_budgets_cells(self, d3, monkeypatch):
        # the cap counts elements x degree: Inn(d3 x T_20) is Inn(d3) acting
        # on 60 points, so the six elements that fit a budget of 60 cells at
        # degree 3 do not fit it at degree 60
        monkeypatch.setattr(core, "MAX_GROUP_CELLS", 60)
        assert len(inner_group(d3)) == 6
        wide = product_quandle(d3, trivial_quandle(20))
        with pytest.raises(GroupTooLarge) as info:
            inner_group(wide)
        err = info.value
        assert (err.cap, err.reached, err.degree) == (1, 2, 60)
        monkeypatch.setattr(core, "MAX_GROUP_CELLS", 360)
        assert len(inner_group(wide)) == 6

    def test_group_axioms(self, d5):
        g = inner_group(d5)
        assert g[0] == tuple(range(5))
        elems = set(g)
        assert len(elems) == len(g)
        for a in range(5):
            assert d5.column(a) in elems
        for a in map(Permutation, list(elems)[:10]):
            assert a.inverse().images in elems
            for b in map(Permutation, list(elems)[:10]):
                assert (a * b).images in elems


class TestConnectivityFaithfulness:
    def test_dihedral3_connected(self, d3):
        assert is_connected(d3)

    def test_dihedral4_disconnected(self, d4):
        assert not is_connected(d4)

    def test_trivial_one_connected(self):
        assert is_connected(trivial_quandle(1))

    def test_orbit_forest_on_corpus(self, corpus):
        for name, q in corpus:
            # each orbit grown to a fixed point under all translations
            expected = set()
            for x in range(q.n):
                orb = {x}
                while True:
                    grown = orb | {q.op(y, a) for y in orb for a in range(q.n)}
                    if grown == orb:
                        break
                    orb = grown
                expected.add(tuple(sorted(orb)))
            parts, edges = orbit_forest(q)
            assert orbits(q) == parts == tuple(sorted(expected)), name
            roots = {o[0] for o in parts}
            assert len(edges) == q.n - len(parts), name
            reached = set(roots)
            for y, a in edges:
                assert y != a and y in reached, name
                assert q.op(y, a) not in reached, name
                reached.add(q.op(y, a))
            assert reached == set(range(q.n)), name

    def test_dihedral3_faithful(self, d3):
        assert is_faithful(d3)

    def test_duplicate_columns_unfaithful(self):
        q = trivial_quandle(3)   # all columns identical
        assert not is_faithful(q)

    def test_zero_extension_unfaithful(self, d3):
        e = abelian_extension(d3, Cocycle2.zero(3, 2))
        assert not is_faithful(e)


class TestInnImage:
    def test_faithful_is_bijective(self, d3):
        img, f = inn_image(d3)
        assert img.n == 3
        assert sorted(f.images) == list(range(img.n))
        assert are_isomorphic(img, d3) is not None

    def test_trivial_collapses(self):
        img, _ = inn_image(trivial_quandle(5))
        assert img.n == 1

    def test_zero_extension_collapses(self, d3):
        e = abelian_extension(d3, Cocycle2.zero(3, 2))
        img, f = inn_image(e)
        assert img.n == 3
        assert is_covering(f)

    def test_conjugation_convention(self, corpus):
        # R[a*b] == R[b]^-1 R[a] R[b] under left-to-right composition
        for name, q in corpus:
            if q.n > 9:
                continue
            rs = [Permutation(q.column(a)) for a in range(q.n)]
            for a in range(q.n):
                for b in range(q.n):
                    conj = rs[b].inverse() * rs[a] * rs[b]
                    assert conj == rs[q.table[a][b]], name

    def test_image_always_covering(self, corpus):
        for name, q in corpus:
            _, f = inn_image(q)
            assert is_covering(f), name


class TestCovering:
    def test_projection_is_covering(self, d3):
        e, proj = extension_with_projection(d3, Cocycle2.zero(3, 3))
        assert is_covering(proj)

    def test_product_projection_covering_iff_dropped_factor_trivial(self, d3):
        # dropping a trivial factor is a covering; translations inside a
        # fiber still move a nontrivial second factor, so d3 x d3 -> d3 isn't
        p = product_quandle(d3, trivial_quandle(2))
        proj = QuandleMap(p, d3, tuple(i // 2 for i in range(6)))
        assert is_covering(proj)
        p2 = product_quandle(d3, d3)
        proj2 = QuandleMap(p2, d3, tuple(i // 3 for i in range(9)))
        assert not is_covering(proj2)

    def test_requires_epimorphism(self, d3):
        f = QuandleMap(d3, d3, (0, 0, 0))   # constant map is a hom
        with pytest.raises(NotEpimorphism):
            is_covering(f)

    def test_non_covering_detected(self, d5):
        # the identity composed with a fiber-merging map onto a smaller
        # quandle: alexander(5,2)-style translations differ within fibers
        from quandleforge.constructions import alexander_quandle
        q = alexander_quandle(5, 2)
        t = trivial_quandle(1)
        f = QuandleMap(q, t, (0,) * 5)
        assert not is_covering(f)


class TestIsomorphism:
    def test_self_isomorphic(self, corpus):
        for name, q in corpus:
            if q.n > 9:
                continue
            f = are_isomorphic(q, q)
            assert f is not None, name

    def test_dihedral_vs_trivial_absent(self, d3):
        assert are_isomorphic(d3, trivial_quandle(3)) is None

    def test_relabeling_found(self, d3):
        shifted = relabel(d3, (1, 2, 0))
        f = are_isomorphic(d3, shifted)
        assert f is not None and sorted(f.images) == list(range(3))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_relabelings(self, data):
        pool = [(n, q) for n, q in corpus_quandles() if q.n <= 9]
        name, q = data.draw(st.sampled_from(pool))
        sigma = data.draw(st.permutations(list(range(q.n))))
        other = relabel(q, tuple(sigma))
        f = are_isomorphic(q, other)
        g = are_isomorphic(other, q)
        assert f is not None and g is not None, name
        assert sorted(f.images) == sorted(g.images) == list(range(q.n))

    def test_distinguishes_same_profile_families(self):
        # two order-6 disconnected quandles that profiles alone may not split
        a = product_quandle(dihedral_quandle(3), trivial_quandle(2))
        b = product_quandle(trivial_quandle(2), dihedral_quandle(3))
        assert are_isomorphic(a, b) is not None


class TestProduct:
    def test_order(self, d3):
        assert product_quandle(d3, d3).n == 9

    def test_trivial_product_trivial(self):
        p = product_quandle(trivial_quandle(2), trivial_quandle(3))
        assert are_isomorphic(p, trivial_quandle(6)) is not None

    def test_product_faithful(self, d3):
        assert is_faithful(product_quandle(d3, d3))

    def test_componentwise_translations(self, d3, d5):
        p = product_quandle(d3, d5)
        for b1 in range(3):
            for b2 in range(5):
                r = p.column(b1 * 5 + b2)
                r1 = d3.column(b1)
                r2 = d5.column(b2)
                for a1 in range(3):
                    for a2 in range(5):
                        assert (r[a1 * 5 + a2]
                                == r1[a1] * 5 + r2[a2])


class TestEpimorphismIndex:
    def test_projection_index_two(self, d3):
        _, proj = extension_with_projection(d3, Cocycle2.zero(3, 2))
        rep = epimorphism_index(proj)
        assert rep.index == 2 and rep.fibers_equal

    def test_identity_index_one(self, d3):
        f = QuandleMap(d3, d3, (0, 1, 2))
        assert epimorphism_index(f).index == 1

    def test_connected_source_fibers_equal(self, e12, x6):
        # inn on a non-faithful connected quandle
        e, _ = e12
        assert is_connected(e) and not is_faithful(e)
        _, f = inn_image(e)
        rep = epimorphism_index(f)
        assert rep.index == 2 and rep.fibers_equal

    def test_non_integral(self, d3):
        q = trivial_quandle(2)
        bigger = trivial_quandle(3)
        f = QuandleMap(bigger, q, (0, 1, 1))
        with pytest.raises(NonIntegralIndex):
            epimorphism_index(f)

    def test_requires_epi(self, d3):
        f = QuandleMap(d3, d3, (0, 0, 0))
        with pytest.raises(NotEpimorphism):
            epimorphism_index(f)

    def test_connected_epimorphisms_have_equal_fibers(self, corpus):
        for name, q in corpus:
            if not is_connected(q) or q.n > 9:
                continue
            _, f = inn_image(q)
            assert epimorphism_index(f).fibers_equal, name
