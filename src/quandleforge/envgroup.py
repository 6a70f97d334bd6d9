"""Enveloping groups of quandles and the conjugation-quandle criterion.

The enveloping group of a quandle has one generator per element and the
conjugation relations  x_j^-1 x_i x_j = x_{i*j}.  Adjoining x_i^{n_i}, where
n_i is the order of the right translation by i (the lcm of its cycle
lengths, _permutation_order), gives the finite enveloping group G, and a
connected quandle is a conjugation quandle exactly when the generators x_i
stay pairwise distinct in G.

conjugation_criterion is the one entry point to that group: it walks the
orbits once and, for a connected quandle only, reads the verdict, the group
order and the first collision off one enumeration.  The definition above has
n generators and n^2 + n relators, and the tests build it from the raw table
as their reference; the criterion enumerates generator_presentation instead,
the same group over a generating set S of the quandle:

- S and its spanning tree come from core._generating_tree, which
  core.inner_group closes over too, so Inn(q) and this group are generated
  from one set.  S is chosen greedily: the least element not yet generated
  joins S, and the set is closed under the right translations R_s, s in S,
  breadth first.  Each element v reached from u by s (v = u*s) records the
  tree edge (u, s).
- Every element gets a word over S: word(s) = x_s for s in S, and
  word(v) = x_s^-1 word(u) x_s, freely reduced, along the tree.
- The relators are x_s^-1 word(i) x_s word(i*s)^-1 for every pair (i, s),
  s in S, that is not a tree edge, freely reduced, and the powers x_s^{n_s}
  for s in S only.  A tree edge would give the empty word; a relator that
  reduces to the empty word is dropped, and a repeated one kept once.

These relators imply all of the original ones.  Write y_v = word(v); the
relators give y_s^-1 y_i y_s = y_{i*s} for all i and all s in S.  For j
reached from u by s, y_j = y_s^-1 y_u y_s, and since R_s is a bijection
every i is k*s for some k, so y_s y_i y_s^-1 = y_k.  By induction along
the tree, y_j^-1 y_i y_j = y_s^-1 y_u^-1 y_k y_u y_s = y_{(k*u)*s}, and
(k*u)*s = (k*s)*(u*s) = i*j by right distributivity, which is the same as
R_{u*s} = R_s^-1 R_u R_s.  So x_v -> y_v respects every conjugation
relation, and x_s -> x_s inverts it.  Every x_v is conjugate to an x_s, and
R_v to R_s, so n_v = n_s and the powers of elements outside S follow too.

The enumeration runs over H = <x_s>, s the first element of S, not over the
trivial subgroup, so its table has |G|/k cosets instead of |G|.  Here k is
the order of R_s; q is connected, so every R_i is conjugate to R_s and has
order k too.  This is exact:

- x_s has order k in G, so |G| = k [G : H].  x_s^k is a relator, and the
  map eps: G -> Z_k sending every x_i to 1 respects every relator (a
  conjugation relator has exponent sum 0, a power x_i^k has k), so
  eps(x_s^m) = m mod k, and x_s^m = 1 only when k divides m.
- x_i and x_j act alike on G/H exactly when x_i = x_j.  Acting alike means
  that x_i x_j^-1 lies in every conjugate of H, so in H; it has eps = 0,
  and the only element of H with eps = 0 is 1.  So the first collision of
  the generator images on G/H is their first collision in G.

The table is still checked against the original presentation:
todd_coxeter checks that each subgroup generator fixes coset 0,
verify_coset_table traces every reduced relator from all cosets at once,
one column lookup per letter, and the permutation of each element on G/H,
derived along the tree from the generator columns, must satisfy all n^2
relations x_i x_j = x_j x_{i*j}.  The first collision is read off those
permutations.

Words are tuples of signed 1-based generator indices.  Enumeration is the
single pure-Python HLT with deductions in _kernels (scans from both ends,
queued coincidences, deterministic numbering); a completed table is stored
by columns and gets a full verification pass (each generator's two columns
mutually inverse permutations, every relator closing at every coset).
todd_coxeter reads its budget, MAX_COSETS, at call time; past it, Capped.
"""

from collections import namedtuple
from math import lcm
from operator import itemgetter

from ._kernels import coset_enumeration
from .core import _generating_tree, is_connected
from .errors import Capped, TheoremViolation, computed

# cosets that one enumeration may allocate.  e120 = E(c30, Z_4, rep0), the
# largest enumeration measured, allocates 9,830
MAX_COSETS = 10 ** 6


class Presentation(namedtuple("Presentation", "ngens relators")):
    """A finite group presentation; relators are words over signed 1-based
    generator indices."""

    __slots__ = ()

    def __new__(cls, ngens, relators):
        for rel in relators:
            if len(rel) == 0:
                raise ValueError("relators must be nonempty")
            for g in rel:
                if g == 0 or abs(g) > ngens:
                    raise ValueError(f"bad generator {g}")
        return super().__new__(cls, ngens, relators)


class CosetTable(namedtuple("CosetTable", "presentation size columns")):
    """A completed coset table of a Presentation over a subgroup: the
    action of the presented group on the subgroup's cosets, coset 0 the
    subgroup itself.

    columns[2*i] is generator i's permutation of the cosets, columns[2*i + 1]
    its inverse's.  size is the live coset count, i.e. the subgroup's index;
    over the trivial subgroup, the group order.
    """

    __slots__ = ()

    def generator_column(self, i):
        """The permutation induced by generator i on the cosets."""
        return self.columns[2 * i]


def _to_columns(word):
    return tuple(2 * (g - 1) if g > 0 else 2 * (-g - 1) + 1 for g in word)


def _reduced(word):
    """word with every adjacent generator-inverse pair cancelled."""
    out = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def _inverse(word):
    return tuple(-g for g in reversed(word))


def generator_presentation(q):
    """The finite enveloping group of q over the generating set S of
    core._generating_tree (see the module docstring).

    Returns (presentation, tree), tree as core._generating_tree gives it.
    Generator k + 1 stands for the k-th element of S.
    """
    table = q.table
    gens, tree = _generating_tree(q)
    word = [None] * q.n
    for v, u, k in tree:
        word[v] = (k + 1,) if u is None else _reduced(
            (-(k + 1),) + word[u] + (k + 1,))
    edges = {(u, k) for _, u, k in tree}
    rels = {}
    for k, g in enumerate(gens):
        for i in range(q.n):
            if (i, k) not in edges:
                rel = _reduced((-(k + 1),) + word[i] + (k + 1,)
                               + _inverse(word[table[i][g]]))
                if rel:
                    rels[rel] = None
    for k, g in enumerate(gens):
        rels[(k + 1,) * _permutation_order(q.column(g))] = None
    with computed("generator presentation"):
        return Presentation(ngens=len(gens), relators=tuple(rels)), tree


def _permutation_order(images):
    """The order of the permutation with these images: the lcm of its cycle
    lengths."""
    seen = [False] * len(images)
    lens = []
    for i in range(len(images)):
        if seen[i]:
            continue
        l, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = images[j]
            l += 1
        lens.append(l)
    return lcm(*lens)


def todd_coxeter(p, subgroup=()):
    """Enumerate the cosets of the subgroup generated by the words of
    subgroup, the trivial subgroup by default; the live count is its index.
    Raises Capped once the enumeration would allocate more than MAX_COSETS
    cosets, and verifies the completed table, and that every subgroup word
    fixes coset 0, before returning it; a failed check raises
    TheoremViolation."""
    stats = {}
    words = [_to_columns(w) for w in subgroup]
    complete, result = coset_enumeration(
        p.ngens, [_to_columns(r) for r in p.relators], MAX_COSETS, stats,
        subgroup=words)
    if not complete:
        raise Capped(MAX_COSETS, result, stats["live"], p.ngens,
                     len(p.relators))
    table = CosetTable(presentation=p, size=len(result),
                       columns=tuple(zip(*result)))
    verify_coset_table(table)
    for word, cols in zip(subgroup, words):
        c = 0
        for col in cols:
            c = table.columns[col][c]
        if c != 0:
            raise TheoremViolation(
                f"subgroup word {word} moves coset 0 to {c}")
    return table


def verify_coset_table(t):
    """Full verification pass over the columns: each generator's two columns
    are mutually inverse permutations, and every relator, traced from all
    cosets at once one column per letter, closes at every coset.  Raises
    TheoremViolation when a check fails, naming the least coset where a
    relator fails."""
    cols = t.columns
    cosets = list(range(t.size))
    for i in range(t.presentation.ngens):
        fwd, bwd = cols[2 * i], cols[2 * i + 1]
        if sorted(fwd) != cosets or sorted(bwd) != cosets:
            raise TheoremViolation(
                f"generator {i} does not act by a permutation")
        if [bwd[c] for c in fwd] != cosets:
            raise TheoremViolation(f"generator {i} columns are not inverse")
    for rel in t.presentation.relators:
        ends = cosets
        for col in _to_columns(rel):
            step = cols[col]
            ends = [step[c] for c in ends]
        if ends != cosets:
            c = next(c for c in cosets if ends[c] != c)
            raise TheoremViolation(
                f"relator {rel} does not close at coset {c}")


class ConjugationCriterion(namedtuple("ConjugationCriterion",
                                      "connected order collision")):
    """Vendramin's criterion read off one enumeration of the cosets of
    <x_s> in q's finite enveloping group G (see the module docstring).

    order is the order of G, k [G : <x_s>]; collision is the first pair
    (i, j), i < j, of distinct elements with equal images, or None when the
    natural map is injective.  The criterion is stated for connected
    quandles only, so a disconnected one is not enumerated and both are
    None.
    """

    __slots__ = ()

    @property
    def verdict(self):
        if not self.connected:
            return "not_applicable"
        return "yes" if self.collision is None else "no"


def _element_columns(q, t, tree):
    """The permutation of each element of q on the cosets of t, a table of
    generator_presentation(q), derived along its tree.  Raises
    TheoremViolation unless all n^2 relations x_i x_j = x_j x_{i*j} hold."""
    gens = [t.generator_column(k) for k in range(t.presentation.ngens)]
    cols = [None] * q.n
    for v, u, k in tree:
        if u is None:
            cols[v] = gens[k]
        else:
            # c . x_s^-1 x_u x_s, with the inverse column giving c . x_s^-1
            gen, cu = gens[k], cols[u]
            cols[v] = tuple([gen[cu[c]] for c in t.columns[2 * k + 1]])
    # then[i](col) is (col[c . x_i])_c, c moved by x_i and then by col; on
    # one coset itemgetter returns an item, not a 1-tuple, and the two
    # sides still compare
    then = [itemgetter(*ci) for ci in cols]
    for i, then_i in enumerate(then):
        for j, cj in enumerate(cols):
            ij = q.table[i][j]
            if then_i(cj) != then[j](cols[ij]):
                raise TheoremViolation(
                    f"relation x_{i} x_{j} = x_{j} x_{ij} fails on the "
                    f"enumerated table")
    return cols


def conjugation_criterion(q):
    """Walk q's orbits once and, when q is connected, enumerate the cosets
    of <x_s> in its finite enveloping group once for the order, the first
    generator collision and the verdict (see the module docstring);
    MAX_COSETS bounds those cosets."""
    if not is_connected(q):
        return ConjugationCriterion(connected=False, order=None,
                                    collision=None)
    p, tree = generator_presentation(q)
    # x_s is generator 1, s the root of the tree's first branch
    t = todd_coxeter(p, subgroup=((1,),))
    order = _permutation_order(q.column(tree[0][0])) * t.size
    seen = {}
    for i, col in enumerate(_element_columns(q, t, tree)):
        if col in seen:
            return ConjugationCriterion(True, order, (seen[col], i))
        seen[col] = i
    return ConjugationCriterion(True, order, None)
