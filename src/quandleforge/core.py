"""Finite quandles and their structural invariants.

The value types Permutation, Quandle and QuandleMap; the axiom check; Inn(q)
as its element tuple, the inner representation inn_image, orbits, and the
relations among epimorphisms that the paper's statements use (is_covering,
epimorphism_index).  The isomorphism search and product quandles that the
tests use as corpus builders and oracle live in tests/helpers.py.

Conventions, used everywhere in this package:

* elements are 0-based indices; ``table[a][b]`` is the product ``a * b``
  (row = left argument),
* the right translation by ``a`` sends ``x`` to ``x * a``, i.e. it is
  column ``a`` of the table,
* permutations compose left to right: ``(p * q)(x) = q(p(x))``.  Under this
  convention the translations satisfy ``R[a * b] == R[b].inverse() * R[a] * R[b]``,
* value types are ``collections.namedtuple`` subclasses with
  ``__slots__ = ()``, checked in ``__new__``: immutable, equal and hashed by
  their fields, so a value also equals the plain tuple of its fields and
  iterates over them.  ``_make`` and ``_replace`` build a value without
  ``__new__`` and its checks, so nothing may call them.
"""

from collections import namedtuple
from math import lcm
from operator import itemgetter

from .errors import (AxiomViolation, GroupTooLarge, NonIntegralIndex,
                     NotAHomomorphism, NotEpimorphism)

DEFAULT_GROUP_CAP = 10 ** 7


class Permutation(namedtuple("Permutation", "images")):
    """A bijection of 0..n-1, stored as the tuple of images."""

    __slots__ = ()

    def __new__(cls, images):
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection: {images}")
        return super().__new__(cls, images)

    def __call__(self, x):
        return self.images[x]

    def __mul__(self, other):
        """Left-to-right composition: apply self first, then other."""
        return Permutation(tuple(other.images[i] for i in self.images))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def order(self):
        return lcm(*self.cycle_type())

    def cycle_type(self):
        n = len(self.images)
        seen = [False] * n
        lens = []
        for i in range(n):
            if seen[i]:
                continue
            l, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                l += 1
            lens.append(l)
        return tuple(sorted(lens))

    @staticmethod
    def identity(n):
        return Permutation(tuple(range(n)))


class Quandle(namedtuple("Quandle", "n table")):
    """An order-n quandle given by its Cayley table.

    Construct through validate_quandle (or the constructors in
    quandleforge.constructions) so the axioms are guaranteed.
    """

    __slots__ = ()

    def op(self, a, b):
        return self.table[a][b]

    def column(self, a):
        """The right translation by a, as a raw image tuple."""
        return tuple(row[a] for row in self.table)

    def __repr__(self):
        return f"Quandle(n={self.n})"


class QuandleMap(namedtuple("QuandleMap", "source target images")):
    """A quandle homomorphism from the Quandle source to the Quandle
    target; verified on construction."""

    __slots__ = ()

    def __new__(cls, source, target, images):
        if len(images) != source.n:
            raise NotAHomomorphism("image list has wrong length")
        if any(not (0 <= v < target.n) for v in images):
            raise NotAHomomorphism("image out of range")
        bad = _law_failure(source.table, target.table, images)
        if bad is not None:
            a, b = bad
            raise NotAHomomorphism(f"f({a}*{b}) != f({a})*f({b})")
        return super().__new__(cls, source, target, images)

    def __call__(self, x):
        return self.images[x]

    def is_epimorphism(self):
        return len(set(self.images)) == self.target.n

    def fibers(self):
        out = {}
        for x, v in enumerate(self.images):
            out.setdefault(v, []).append(x)
        return out


def _law_failure(source, target, images):
    """The least (a, b), in row-major order, with images[a*b] !=
    images[a]*images[b], the products read off the source and target
    tables, or None when images is a homomorphism."""
    for a, row in enumerate(source):
        image_row = target[images[a]]
        for b, ab in enumerate(row):
            if images[ab] != image_row[images[b]]:
                return a, b
    return None


def _first_failure(n, sides):
    """The least triple (a, b, c), in lexicographic order, at which a law
    over 0..n-1 fails, or None.  sides(b, c) gives the law's two sides at
    every a, as two n-tuples; one (b, c) pair is held at a time, so the
    memory used is O(n)."""
    if n == 1:
        # itemgetter of one index returns an item, not a 1-tuple; the one
        # table of order 1 in range, [[0]], satisfies every law
        return None
    best = None
    for b in range(n):
        for c in range(n):
            left, right = sides(b, c)
            if left != right:
                a = next(a for a in range(n) if left[a] != right[a])
                best = min(best or (a, b, c), (a, b, c))
    return best


def validate_quandle(n, table):
    """Check the three quandle axioms and return the validated Quandle.

    Raises AxiomViolation(kind, witness) on the first failure found, in this
    order: kind 'idempotency' (witness the least a with a*a != a),
    'invertibility' (witness the least column that is not a bijection), or
    'distributivity' (witness the lexicographically least triple a, b, c
    with (a*b)*c != (a*c)*(b*c)).  Distributivity is compared one (b, c)
    pair at a time over all a, through one operator.itemgetter per column:
    O(n^2) calls into C and O(n) memory beyond the table.
    """
    if n <= 0:
        raise ValueError("order must be positive")
    if len(table) != n or any(len(r) != n for r in table):
        raise ValueError("table must be n x n")
    rows = tuple(tuple(map(int, r)) for r in table)
    if min(map(min, rows)) < 0 or max(map(max, rows)) >= n:
        raise ValueError("entries must lie in 0..n-1")

    bad = next((a for a in range(n) if rows[a][a] != a), None)
    if bad is not None:
        raise AxiomViolation("idempotency", bad)

    cols = list(zip(*rows))             # cols[c][x] = x*c
    bad = next((b for b, col in enumerate(cols) if len(set(col)) != n), None)
    if bad is not None:
        raise AxiomViolation("invertibility", bad)

    # get[b](s) is (s[a*b])_a, so get[b](cols[c]) is ((a*b)*c)_a and
    # get[c](cols[b*c]) is ((a*c)*(b*c))_a
    get = [itemgetter(*col) for col in cols]
    bad = _first_failure(n, lambda b, c: (get[b](cols[c]),
                                          get[c](cols[rows[b][c]])))
    if bad is not None:
        raise AxiomViolation("distributivity", bad)

    return Quandle(n=n, table=rows)


def right_translation(q, a):
    """The automorphism x -> x*a."""
    if not 0 <= a < q.n:
        raise ValueError("element out of range")
    return Permutation(q.column(a))


def _closure(degree, gen_tuples, cap):
    ident = tuple(range(degree))
    seen = {ident: None}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gen_tuples:
                c = tuple(g[i] for i in p)
                if c not in seen:
                    if len(seen) >= cap:
                        raise GroupTooLarge(cap, len(seen) + 1, degree)
                    seen[c] = None
                    nxt.append(c)
        frontier = nxt
    return list(seen)


def inner_group(q, cap=DEFAULT_GROUP_CAP):
    """Inn(q), the group generated by all right translations: the tuple of
    its elements as Permutations, in discovery order (identity first).
    GroupTooLarge once the closure would pass cap elements."""
    gens = [q.column(a) for a in range(q.n)]
    return tuple(Permutation(e) for e in _closure(q.n, gens, cap))


def orbit_forest(q):
    """(orbits(q), edges), edges a spanning forest of the orbits.  Each orbit
    is searched from its least element, its root; edges lists in search order
    the pair (y, a), y != a, whose product y*a first reached each non-root
    element, so y was reached before y*a."""
    seen = [False] * q.n
    out = []
    edges = []
    for x in range(q.n):
        if seen[x]:
            continue
        seen[x] = True
        orbit = [x]
        for y in orbit:             # grows while this runs
            for a, z in enumerate(q.table[y]):
                if not seen[z]:
                    seen[z] = True
                    orbit.append(z)
                    edges.append((y, a))
        out.append(tuple(sorted(orbit)))
    return tuple(out), edges


def orbits(q):
    """The orbits of the translations (equivalently of Inn(q)) on q, each a
    sorted tuple, in order of their least elements.  Row x of the table is
    the set of images x*a, so a search along rows closes each orbit."""
    return orbit_forest(q)[0]


def is_connected(q):
    """True iff the translations act transitively (single orbit)."""
    return len(orbits(q)) == 1


def is_faithful(q):
    """True iff distinct elements have distinct right translations."""
    return len({q.column(a) for a in range(q.n)}) == q.n


def inn_image(q):
    """The quandle of distinct right translations, plus the projection onto it.

    Elements of the image are numbered by first occurrence.  The operation is
    induced by representatives, which is well defined because translations of
    products depend only on the translations of the factors.
    """
    index = {}
    reps = []
    img = []
    for a in range(q.n):
        col = q.column(a)
        if col not in index:
            index[col] = len(reps)
            reps.append(a)
        img.append(index[col])
    m = len(reps)
    table = [[img[q.op(reps[i], reps[j])] for j in range(m)] for i in range(m)]
    image_q = validate_quandle(m, table)
    return image_q, QuandleMap(q, image_q, tuple(img))


def is_covering(f):
    """True iff f(x) == f(y) forces a*x == a*y for all a.

    f must be an epimorphism (NotEpimorphism otherwise).
    """
    if not f.is_epimorphism():
        raise NotEpimorphism("covering test requires an epimorphism")
    q = f.source
    for fiber in f.fibers().values():
        col0 = q.column(fiber[0])
        for y in fiber[1:]:
            if q.column(y) != col0:
                return False
    return True


class IndexReport(namedtuple("IndexReport", "index fibers_equal")):
    """|source| / |target| of an epimorphism, and whether its fibers all
    have that size."""

    __slots__ = ()


def epimorphism_index(f):
    """|source| / |target| for an epimorphism, plus whether all fibers have
    the same cardinality.  NonIntegralIndex if the quotient is not integral."""
    if not f.is_epimorphism():
        raise NotEpimorphism("index defined for epimorphisms only")
    ns, nt = f.source.n, f.target.n
    if ns % nt:
        raise NonIntegralIndex(f"{ns} not a multiple of {nt}")
    sizes = {len(v) for v in f.fibers().values()}
    return IndexReport(index=ns // nt, fibers_equal=len(sizes) == 1)
