from collections import Counter

import pytest

from helpers import Permutation, corpus_extensions, sym_class_quandle

from oracles import coxeter_s3_order, enveloping_relators
from quandleforge import envgroup
from quandleforge.cohomology import Cocycle2, second_cohomology
from quandleforge.constructions import (abelian_extension, alexander_quandle,
                                        dihedral_quandle, trivial_quandle)
from quandleforge.core import is_connected, is_faithful
from quandleforge.envgroup import (DEFAULT_MAX_COSETS, CosetTable,
                                   Presentation, _element_columns,
                                   conjugation_criterion,
                                   generator_presentation, todd_coxeter,
                                   verify_coset_table)
from quandleforge._kernels import coset_enumeration
from quandleforge.errors import Capped, TheoremViolation


def full_presentation(q):
    """q's finite enveloping group over one generator per element."""
    return Presentation(q.n, enveloping_relators(q.table))


class TestPresentation:
    def test_trivial_quandle_presentation(self):
        p = full_presentation(trivial_quandle(1))
        assert p.ngens == 1
        assert (1,) in p.relators          # translation has order 1
        assert todd_coxeter(p).size == 1

    def test_dihedral3_relator_counts(self, d3):
        p = full_presentation(d3)
        assert p.ngens == 3
        conj = [r for r in p.relators if len(r) == 4]
        powers = [r for r in p.relators if r == (r[0],) * len(r) and r[0] > 0]
        assert len(conj) == 9
        assert sorted(powers) == [(1, 1), (2, 2), (3, 3)]

    def test_infinite_without_power_relators(self):
        # one generator, only the vacuous conjugation relator of the order-1
        # quandle: a free group, so enumeration must hit the cap
        p = Presentation(1, ((-1, 1, 1, -1),))
        with pytest.raises(Capped) as exc:
            todd_coxeter(p, max_cosets=500)
        # the cap is checked at every definition, and a free group's cosets
        # never coincide
        assert exc.value.allocated == 501
        assert exc.value.live == 500
        assert "allocated 501 cosets, 500 live" in str(exc.value)

    def test_bad_relator_rejected(self):
        with pytest.raises(ValueError):
            Presentation(2, ((3,),))
        with pytest.raises(ValueError):
            Presentation(2, ((),))


class TestToddCoxeter:
    def test_order_two(self):
        p = Presentation(1, ((1, 1),))
        t = todd_coxeter(p)
        assert t.size == 2

    def test_coxeter_presentation_of_sym3(self):
        # oracle: normal forms of all words up to length 12 under the
        # rewriting system for <a, b | a^2, b^2, (ab)^3>
        assert coxeter_s3_order() == 6
        p = Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)))
        t = todd_coxeter(p)
        assert t.size == 6

    def test_dihedral3_finite_enveloping(self, d3):
        t = todd_coxeter(full_presentation(d3))
        assert t.size == 6
        cols = {t.generator_column(i) for i in range(3)}
        assert len(cols) == 3

    def test_columns_are_inverse_permutations(self, d5):
        t = todd_coxeter(full_presentation(d5))
        for i in range(5):
            fwd, bwd = t.columns[2 * i], t.columns[2 * i + 1]
            assert t.generator_column(i) == fwd
            assert sorted(fwd) == list(range(t.size))
            assert all(bwd[fwd[c]] == c for c in range(t.size))

    def test_full_relator_trace_verification(self, d3):
        t = todd_coxeter(full_presentation(d3))
        verify_coset_table(t)   # every relator from every coset
        broken = CosetTable(presentation=Presentation(1, ((1, 1),)),
                            size=2, columns=((1, 1), (1, 0)))
        with pytest.raises(TheoremViolation, match="not act by a permutation"):
            verify_coset_table(broken)

    def test_verification_rejects_non_inverse_columns(self):
        # both columns are permutations, but the second is not the inverse
        # of the first
        t = CosetTable(presentation=Presentation(1, ((1, 1, 1),)), size=3,
                       columns=((1, 2, 0), (1, 2, 0)))
        with pytest.raises(TheoremViolation, match="columns are not inverse"):
            verify_coset_table(t)

    def test_verification_names_least_failing_coset(self):
        # x swaps cosets 1 and 2, so the relator x closes at 0 only
        t = CosetTable(presentation=Presentation(1, ((1,),)), size=3,
                       columns=((0, 2, 1), (0, 2, 1)))
        with pytest.raises(TheoremViolation,
                           match=r"relator \(1,\) does not close at coset 1$"):
            verify_coset_table(t)

    def test_monotone_under_extra_relators(self):
        # adding relators never increases the enumerated order
        for k in (4, 6, 9, 12):
            base = todd_coxeter(Presentation(1, ((1,) * k,))).size
            assert base == k
            for extra in (2, 3, 4):
                bigger = Presentation(1, ((1,) * k, (1,) * extra))
                assert todd_coxeter(bigger).size <= base

    def test_capped_carries_counts(self):
        p = full_presentation(dihedral_quandle(9))
        with pytest.raises(Capped) as exc:
            todd_coxeter(p, max_cosets=3)
        assert exc.value.max_cosets == 3
        assert exc.value.allocated == 4
        assert exc.value.live == 3
        assert (exc.value.ngens, exc.value.relators) == (9, 90)
        # the benchmark's frozen known failures match on this text
        assert "coset enumeration exceeded cap 3" in str(exc.value)
        assert "9 generators and 90 relators" in str(exc.value)
        # coincidences before the abort take cosets out of the live count
        p = full_presentation(dihedral_quandle(27))
        with pytest.raises(Capped) as exc:
            todd_coxeter(p, max_cosets=1000)
        assert exc.value.allocated == 1001
        assert 0 < exc.value.live < 1000

    def test_conjugation_action_realizes_quandle(self, d3, x6):
        for q in (d3, x6):
            t = todd_coxeter(full_presentation(q))
            perms = [Permutation(t.generator_column(i)) for i in range(q.n)]
            for i in range(q.n):
                for j in range(q.n):
                    conj = perms[j].inverse() * perms[i] * perms[j]
                    assert conj == perms[q.table[i][j]]


class TestVendramin:
    def test_dihedral3_yes(self, d3):
        crit = conjugation_criterion(d3)
        assert crit.collision is None
        assert crit.verdict == "yes"

    def test_order_one_yes(self):
        assert conjugation_criterion(trivial_quandle(1)).collision is None

    def test_dihedral4_not_applicable(self, d4):
        crit = conjugation_criterion(d4)
        assert crit.verdict == "not_applicable"
        assert (crit.connected, crit.order, crit.collision) \
            == (False, None, None)

    @pytest.mark.parametrize("q", [dihedral_quandle(3), trivial_quandle(2)],
                             ids=["connected", "disconnected"])
    def test_max_cosets_checked_before_connectivity(self, q):
        with pytest.raises(ValueError, match="must be positive"):
            conjugation_criterion(q, 0)

    def test_faithful_connected_corpus_all_yes(self, corpus):
        for name, q in corpus:
            if not (is_connected(q) and is_faithful(q)) or q.n > 9:
                continue
            assert conjugation_criterion(q).verdict == "yes", name

    def test_collision_on_non_injective(self, tetrahedral, tet_psi):
        e = abelian_extension(tetrahedral, tet_psi)
        assert is_connected(e)
        crit = conjugation_criterion(e)
        assert (crit.verdict, crit.order, crit.collision) == ("no", 24, (0, 1))

    def test_order_25_alexander_within_default_budget(self):
        # a connected order-25 quandle whose group has 500 elements
        crit = conjugation_criterion(alexander_quandle(25, 2),
                                     DEFAULT_MAX_COSETS)
        assert (crit.verdict, crit.order) == ("yes", 500)

    def test_extension_verdict_yes(self, e12):
        e, _ = e12
        crit = conjugation_criterion(e)
        assert crit.verdict == "yes"
        assert crit.collision is None


def _first_collision(cols):
    seen = {}
    for i, col in enumerate(cols):
        if col in seen:
            return seen[col], i
        seen[col] = i
    return None


def _oracle(q):
    """(order, first collision) from the full conjugation presentation."""
    t = todd_coxeter(full_presentation(q))
    return t.size, _first_collision(t.generator_column(i)
                                    for i in range(q.n))


def _fast(q):
    p, tree = generator_presentation(q)
    t = todd_coxeter(p)
    cols = _element_columns(q, t, tree)
    return t, cols


class TestGeneratorPresentation:
    def test_dihedral3_over_two_generators(self, d3):
        p, tree = generator_presentation(d3)
        # 0 and 1 generate: 0*1 = 2 is the only element reached by an edge
        assert tree == ((0, None, 0), (1, None, 1), (2, 0, 1))
        assert p.ngens == 2
        assert (1, 1) in p.relators and (2, 2) in p.relators
        assert todd_coxeter(p).size == 6

    def test_tree_spans_and_words_hold(self, corpus):
        for name, q in corpus:
            p, tree = generator_presentation(q)
            assert sorted(v for v, _, _ in tree) == list(range(q.n)), name
            gens = [v for v, u, _ in tree if u is None]
            assert len(gens) == p.ngens, name
            reached = set()
            for v, u, k in tree:
                if u is not None:
                    assert u in reached and q.table[u][gens[k]] == v, name
                reached.add(v)
            assert all(p.relators), name

    def test_matches_full_presentation_on_corpus(self, corpus):
        # every connected case, where the criterion applies, and every case
        # of order <= 12.  The disconnected extensions of order 14-36 are
        # left out: their groups reach 65,536 elements, and the full
        # presentation takes minutes there
        exts = [(name, e) for name, _, _, _, e, _ in corpus_extensions(
            max_base_order=12, moduli=(2, 3, 4))]
        cases = [(name, q) for name, q in list(corpus) + exts
                 if q.n <= 12 or is_connected(q)]
        assert len(cases) == 106
        for name, q in cases:
            t, cols = _fast(q)
            assert (t.size, _first_collision(cols)) == _oracle(q), name

    def test_derived_permutations_realize_quandle(self, d3, x6, e12):
        for q in (d3, x6, e12[0]):
            t, cols = _fast(q)
            perms = [Permutation(c) for c in cols]
            for i in range(q.n):
                for j in range(q.n):
                    conj = perms[j].inverse() * perms[i] * perms[j]
                    assert conj == perms[q.table[i][j]]

    def test_relation_check_rejects_a_wrong_table(self, d3):
        # the Klein group satisfies the power relators of d3's generators
        # but not its conjugation relations, so a derived x_2 = x_0 breaks
        # x_0 x_1 = x_1 x_2
        _, tree = generator_presentation(d3)
        klein = todd_coxeter(Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2))))
        with pytest.raises(TheoremViolation, match="relation x_"):
            _element_columns(d3, klein, tree)

    def test_alexander_47_5_presentation_size(self):
        # the README's figure: 2 generators and 49 relators, where the full
        # presentation has 47 generators and 2,256 relators
        p, _ = generator_presentation(alexander_quandle(47, 5))
        assert (p.ngens, len(p.relators)) == (2, 49)

    def test_alexander_47_5_within_default_budget(self):
        # a paper-scale base: order 47, the group has 2,162 elements
        crit = conjugation_criterion(alexander_quandle(47, 5),
                                     DEFAULT_MAX_COSETS)
        assert (crit.verdict, crit.order) == ("yes", 2162)

    @pytest.mark.parametrize("ngens", [1, 2])
    def test_free_presentation_capped(self, ngens):
        # no relator survives: a free group, capped at the definition that
        # would allocate coset max_cosets + 1
        with pytest.raises(Capped) as exc:
            todd_coxeter(Presentation(ngens, ()), max_cosets=200)
        assert exc.value.allocated == 201
        assert (exc.value.ngens, exc.value.relators) == (ngens, 0)

    def test_relators_reducing_to_nothing_are_dropped(self):
        # the one conjugation relator of the trivial quandle of order 1,
        # x_1^-1 x_1 x_1 x_1^-1, reduces away and only its power is left
        p, _ = generator_presentation(trivial_quandle(1))
        assert p == Presentation(1, ((1,),))


def e120():
    """E(c30, Z_4, rep0), c30 the 4-cycles of Sym(5): order 120, connected,
    and not a conjugation quandle."""
    c30 = sym_class_quandle(5, (1, 4))
    rep0 = second_cohomology(c30, 4).representatives[0]
    return abelian_extension(c30, rep0)


class TestCosetsOfGeneratorSubgroup:
    """conjugation_criterion enumerates the cosets of <x_s>, not of the
    trivial subgroup (see the envgroup docstring); the enumeration of the
    full presentation over the trivial subgroup is its oracle."""

    def test_matches_full_presentation(self, corpus):
        # every connected corpus quandle and the transpositions of Sym(5),
        # and each of their Z_2, Z_3 and Z_4 extensions (orders up to 40),
        # over the zero cocycle and every H^2 representative; a
        # disconnected extension is not enumerated
        bases = [(name, q) for name, q in corpus if is_connected(q)]
        bases.append(("sym5_transpositions",
                       sym_class_quandle(5, (1, 1, 1, 2))))
        cases = list(bases)
        for name, x in bases:
            for m in (2, 3, 4):
                h = second_cohomology(x, m)
                for i, phi in enumerate((Cocycle2.zero(x.n, m),
                                         *h.representatives)):
                    cases.append((f"E({name},Z{m},{i})",
                                  abelian_extension(x, phi)))
        verdicts = Counter()
        for name, q in cases:
            crit = conjugation_criterion(q)
            verdicts[crit.verdict] += 1
            if crit.connected:
                assert (crit.order, crit.collision) == _oracle(q), name
            else:
                assert not is_connected(q), name
        assert verdicts == {"yes": 16, "no": 4, "not_applicable": 45}

    @pytest.mark.parametrize("build, order, collision", [
        (lambda: alexander_quandle(47, 5), 2162, None),
        (e120, 480, (0, 1)),
    ], ids=["alexander_47_5", "e120"])
    def test_paper_scale(self, build, order, collision):
        # order and collision frozen from the full presentation (47 and 120
        # generators), which takes 5 and 11 s to enumerate; the generating
        # set's presentation over the trivial subgroup, which the corpus
        # tests match to the full one, checks them here
        q = build()
        crit = conjugation_criterion(q)
        assert (crit.order, crit.collision) == (order, collision)
        t, cols = _fast(q)
        assert (t.size, _first_collision(cols)) == (order, collision)

    def test_index_of_a_subgroup(self):
        # Sym(3) = <a, b | a^2, b^2, (ab)^3>: <a> has index 3, <a, b> index 1
        p = Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)))
        assert todd_coxeter(p, subgroup=((1,),)).size == 3
        assert todd_coxeter(p, subgroup=((1,), (2,))).size == 1
        assert todd_coxeter(p, subgroup=((1, 2),)).size == 2

    def test_subgroup_words_are_checked(self, monkeypatch):
        # a kernel that returns the regular action of Z_2 as if x fixed
        # coset 0: the table is a valid one, but not over <x>
        monkeypatch.setattr(envgroup, "coset_enumeration",
                            lambda *args, **kwargs: (True, [[1, 1], [0, 0]]))
        p = Presentation(1, ((1, 1),))
        assert todd_coxeter(p).size == 2
        with pytest.raises(TheoremViolation,
                           match=r"subgroup word \(1,\) moves coset 0 to 1$"):
            todd_coxeter(p, subgroup=((1,),))

    def test_max_cosets_counts_cosets_of_the_subgroup(self):
        # alexander(25, 2): |G| = 500 and R_s has order 20, so the criterion
        # enumerates 25 cosets and completes within a budget far below 500
        q = alexander_quandle(25, 2)
        p, _ = generator_presentation(q)
        stats = {}
        complete, table = coset_enumeration(
            p.ngens, [envgroup._to_columns(r) for r in p.relators],
            DEFAULT_MAX_COSETS, stats, subgroup=[(0,)])
        assert complete and len(table) == 25
        crit = conjugation_criterion(q, stats["allocated"])
        assert (crit.verdict, crit.order) == ("yes", 500)
        with pytest.raises(Capped) as exc:
            conjugation_criterion(q, stats["allocated"] - 1)
        assert exc.value.allocated == stats["allocated"]
