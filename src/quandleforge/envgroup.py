"""Enveloping groups of quandles and the conjugation-quandle criterion.

The enveloping group of a quandle has one generator per element and the
conjugation relations  x_j^-1 x_i x_j = x_{i*j}.  Adjoining x_i^{n_i}, where
n_i is the order of the right translation by i, gives the finite enveloping
group; coset enumeration over the trivial subgroup realizes it as a
permutation group on itself (the regular action), and a connected quandle is
a conjugation quandle exactly when the generator images stay pairwise
distinct there.  conjugation_criterion walks the orbits once and reads the
verdict, the group order and the first collision off one enumeration.

Words are tuples of signed 1-based generator indices.  Enumeration is the
single pure-Python HLT with deductions in _kernels (scans from both ends,
queued coincidences, deterministic numbering); completed tables get a full
verification pass (every column a permutation, every relator tracing
trivially from every coset).
"""

from collections import namedtuple

from ._kernels import coset_enumeration
from .core import is_connected, right_translation
from .errors import Capped

DEFAULT_MAX_COSETS = 10 ** 6


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


class CosetTable(namedtuple("CosetTable", "presentation size action")):
    """A completed coset table of a Presentation: the regular action of the
    presented group.

    action[c][2*i] is c moved by generator i, action[c][2*i + 1] by its
    inverse.  size is the live coset count, i.e. the group order.
    """

    __slots__ = ()

    def generator_column(self, i):
        """The permutation induced by generator i on the cosets."""
        return tuple(row[2 * i] for row in self.action)

    def trace(self, coset, word):
        for g in word:
            col = 2 * (g - 1) if g > 0 else 2 * (-g - 1) + 1
            coset = self.action[coset][col]
        return coset


def _to_columns(word):
    return tuple(2 * (g - 1) if g > 0 else 2 * (-g - 1) + 1 for g in word)


def enveloping_presentation(q, finite=True):
    """The conjugation presentation of q's enveloping group; with finite=True
    the power relators that make it the finite enveloping group are added."""
    rels = []
    for i in range(q.n):
        for j in range(q.n):
            rels.append((-(j + 1), i + 1, j + 1, -(q.table[i][j] + 1)))
    if finite:
        for i in range(q.n):
            rels.append((i + 1,) * right_translation(q, i).order())
    return Presentation(ngens=q.n, relators=tuple(rels))


def todd_coxeter(p, max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate the cosets of the trivial subgroup; the live count is the
    group order.  Raises Capped when the allocation budget is exceeded, and
    verifies the completed table before returning it."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    stats = {}
    complete, result = coset_enumeration(
        p.ngens, [_to_columns(r) for r in p.relators], max_cosets, stats)
    if not complete:
        raise Capped(max_cosets, result, stats["live"])
    table = CosetTable(presentation=p, size=len(result),
                       action=tuple(tuple(row) for row in result))
    verify_coset_table(table)
    return table


def verify_coset_table(t):
    """Full verification pass: permutation columns, inverse consistency, and
    every relator tracing to its start from every coset."""
    size = t.size
    ng = t.presentation.ngens
    for i in range(ng):
        fwd = [row[2 * i] for row in t.action]
        bwd = [row[2 * i + 1] for row in t.action]
        if sorted(fwd) != list(range(size)) or sorted(bwd) != list(range(size)):
            raise AssertionError(f"generator {i} does not act by a permutation")
        if any(bwd[fwd[c]] != c for c in range(size)):
            raise AssertionError(f"generator {i} columns are not inverse")
    for rel in t.presentation.relators:
        for c in range(size):
            if t.trace(c, rel) != c:
                raise AssertionError(
                    f"relator {rel} does not close at coset {c}")


class ConjugationCriterion(namedtuple("ConjugationCriterion",
                                      "connected order collision")):
    """Vendramin's criterion read off one enumeration of q's finite
    enveloping group.

    order is the group order; collision is the first pair (i, j), i < j,
    of distinct elements with equal images, or None when the natural map
    is injective.  The criterion is stated for connected quandles only, so
    a disconnected one is not enumerated and both are None.
    """

    __slots__ = ()

    @property
    def verdict(self):
        if not self.connected:
            return "not_applicable"
        return "yes" if self.collision is None else "no"


def _enumerate(q, max_cosets):
    """Enumerate q's finite enveloping group once: its order and the first
    generator collision."""
    t = todd_coxeter(enveloping_presentation(q, finite=True), max_cosets)
    seen = {}
    for i in range(q.n):
        col = t.generator_column(i)
        if col in seen:
            return t.size, (seen[col], i)
        seen[col] = i
    return t.size, None


def conjugation_criterion(q, max_cosets=DEFAULT_MAX_COSETS):
    """Walk q's orbits once and, when q is connected, enumerate its finite
    enveloping group once for the order, the first generator collision and
    the verdict."""
    if not is_connected(q):
        return ConjugationCriterion(connected=False, order=None,
                                    collision=None)
    return ConjugationCriterion(True, *_enumerate(q, max_cosets))


def rho_injective(q, max_cosets=DEFAULT_MAX_COSETS):
    """Whether the natural map into the finite enveloping group is injective:
    the generator images in the regular action must be pairwise distinct."""
    return _enumerate(q, max_cosets)[1] is None


def is_conjugation_quandle(q, max_cosets=DEFAULT_MAX_COSETS):
    """'yes' / 'no' for connected quandles by the injectivity criterion;
    'not_applicable' for disconnected ones, which are not enumerated."""
    return conjugation_criterion(q, max_cosets).verdict
