"""Knots and 1-tangles as braid closures; colorings and the cocycle state sum.

Diagram model: a braid on s strands, all oriented downward, closed by the
trace (bottom of position p returns to top of position p).  The word is a
sequence of nonzero signed integers; letter g acts at positions |g|-1, |g|.

Colors propagate by these rules, fixed once in _kernels:

* positive letter, incoming (a, b):  outgoing (b, a*b), source pair (a, b),
  weight +phi(a, b);
* negative letter, incoming (c, d):  outgoing (Rc^-1(d), c), source pair
  (Rc^-1(d), c), weight -phi(Rc^-1(d), c).

The kernel does not push every top tuple through these moves.  It turns the
diagram into a propagation plan: each crossing is one relation X * O = Y
between arc classes (the closure merges each bottom arc with its top), a few
seed classes are guessed, the others follow from the relations, and the
crossings not used to propagate are checked.  The plan holds one level per
seed: the seed, the steps it enables and the checks it completes.  The
seeds, k <= s of them, are assigned depth first, the first one over orbit
representatives only, and each coloring found is carried to the rest of that
orbit by right translations; the cap bounds n^k.  The tests hold the plan to
the scan of all n^s top tuples in tests/oracles.py, whose move loop the
braid-relation tests certify; the Markov tests compare the plan's state sums
across presentations of one knot.

A 1-tangle is the knot cut open at the closure arc of position 0, so the
tangle functions take the BraidKnot itself; its endpoints are the top of
position 0 (y0) and the bottom of position 0 (y1).  Callers read the end
colors off each Coloring (`forge invariant --tangle` reports whether they
agree), and lift_coloring states the paper's lifting property of tangle
colorings along a covering.

BUNDLED_WORDS is the knot table that the knot-taking commands read when no
--knots file is given; bundled_knots() checks that each closure is a single
component.  The tests pin coloring-count fingerprints of every entry over
dihedral quandles; the alternate presentations that the Markov tests compare
live with those tests.
"""

from collections import namedtuple

from ._kernels import braid_closure_colorings
from .core import is_covering, orbit_forest
from .errors import (BadGenerator, FiberMismatch, NotACovering, NotAKnot,
                     ShapeMismatch, TheoremViolation)

DEFAULT_ASSIGNMENT_CAP = 10 ** 8


class BraidKnot(namedtuple("BraidKnot", "name strands word")):
    """A braid word, a tuple of signed letters on strands strands, whose
    closure is a knot (a single component); parse_braid checks both."""

    __slots__ = ()

    def __repr__(self):
        return f"BraidKnot({self.name!r}, s={self.strands}, word={list(self.word)})"


class Coloring(namedtuple("Coloring", "top bottom source_pairs")):
    """A quandle coloring of a braid diagram.

    top/bottom are the color tuples at the top and bottom of the braid;
    source_pairs holds one (x, y, sign) per crossing in word order.  For
    tangles, y0/y1 are the endpoint colors of the cut arc.
    """

    __slots__ = ()

    @property
    def y0(self):
        return self.top[0]

    @property
    def y1(self):
        return self.bottom[0]


class GroupRingElt(namedtuple("GroupRingElt", "m coeffs")):
    """Sum of non-negative multiples of powers of u, the generator of Z_m."""

    __slots__ = ()

    def __new__(cls, m, coeffs):
        if len(coeffs) != m:
            raise ValueError("coefficient vector must have length m")
        return super().__new__(cls, m, coeffs)


def parse_braid(name, strands, word):
    """Validate a braid word and check its closure is a knot.

    BadGenerator for out-of-range letters, NotAKnot when the closure has
    more than one component.  Each letter is one transposition of the
    strands, so a closure of s strands and L letters has at least s - L
    components: a count past L + 1 is refused before any per-strand list is
    built, however large it is.
    """
    if strands < 1:
        raise BadGenerator("strand count must be positive")
    for g in word:
        if g == 0 or abs(g) > strands - 1:
            raise BadGenerator(f"letter {g} invalid on {strands} strands")
    if strands > len(word) + 1:
        raise NotAKnot(f"closure of {name} has more than one component")
    cur = list(range(strands))
    for g in word:
        p = abs(g) - 1
        cur[p], cur[p + 1] = cur[p + 1], cur[p]
    # follow the closure starting at top 0; it must visit every strand
    seen = 1
    pos = cur.index(0)
    while pos != 0:
        pos = cur.index(pos)
        seen += 1
    if seen != strands:
        raise NotAKnot(f"closure of {name} has more than one component")
    return BraidKnot(name=name, strands=strands, word=tuple(word))


# name, strands, word
BUNDLED_WORDS = [
    ("unknot", 1, []),
    ("3_1", 2, [1, 1, 1]),
    ("4_1", 3, [1, -2, 1, -2]),
    ("5_1", 2, [1, 1, 1, 1, 1]),
    ("5_2", 3, [1, 1, 1, 2, -1, 2]),
    ("6_1", 4, [1, 1, 2, -1, -3, 2, -3]),
    ("6_2", 3, [1, 1, 1, -2, 1, -2]),
    ("6_3", 3, [1, 1, -2, 1, -2, -2]),
    ("7_1", 2, [1, 1, 1, 1, 1, 1, 1]),
    ("8_19", 3, [1, 2, 1, 2, 1, 2, 1, 2]),
    ("8_20", 3, [1, 1, 1, -2, -1, -1, -1, -2]),
]


def bundled_knots():
    """The bundled table, parsed and closure-checked."""
    return [parse_braid(name, s, w) for name, s, w in BUNDLED_WORDS]


def _colorings(q, knot, relax_first, cap):
    return [Coloring(top, bottom, pairs) for top, bottom, pairs
            in braid_closure_colorings(q.table, q.n, knot.strands,
                                       list(knot.word), orbit_forest(q),
                                       relax_first, cap=cap)]


def enumerate_colorings(q, k, cap=DEFAULT_ASSIGNMENT_CAP):
    """All colorings of the closed braid diagram by q."""
    return _colorings(q, k, False, cap)


def tangle_colorings(q, k):
    """Colorings of the 1-tangle of k: the closure constraint is dropped at
    the cut arc, so y0 and y1 may differ."""
    return _colorings(q, k, True, DEFAULT_ASSIGNMENT_CAP)


def coloring_weight(phi, coloring):
    """Sum of signed cocycle values over the crossings, in Z_m."""
    w = 0
    for (x, y, sign) in coloring.source_pairs:
        w += sign * phi.values[x][y]
    return w % phi.m


def state_sum(q, phi, k):
    """The cocycle invariant: one u^weight per coloring of the closure."""
    if phi.n != q.n:
        raise ShapeMismatch(f"cocycle on {phi.n} elements, quandle of "
                            f"order {q.n}")
    coeffs = [0] * phi.m
    for c in enumerate_colorings(q, k):
        coeffs[coloring_weight(phi, c)] += 1
    return GroupRingElt(m=phi.m, coeffs=tuple(coeffs))


def is_constant(e):
    """True iff every coefficient away from u^0 vanishes."""
    return all(c == 0 for c in e.coeffs[1:])


def lift_coloring(f, k, coloring, y):
    """The unique lift of a coloring of k's 1-tangle along a covering f, with
    top cut color y over coloring.y0.

    Uniqueness and existence are certified by exhausting all source
    colorings; a count other than one contradicts the covering lifting
    property and raises TheoremViolation.
    """
    if not is_covering(f):
        raise NotACovering("lifting requires a covering map")
    if f.images[y] != coloring.y0:
        raise FiberMismatch(f"f({y}) != base color {coloring.y0}")
    lifts = [c for c in tangle_colorings(f.source, k)
             if c.top[0] == y
             and tuple(f.images[v] for v in c.top) == coloring.top]
    if len(lifts) != 1:
        raise TheoremViolation(
            f"expected exactly one lift, found {len(lifts)}")
    return lifts[0]
