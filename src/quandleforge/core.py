"""Finite quandles and their structural invariants.

The value types Quandle and QuandleMap; the axiom check; Inn(q) as its
element tuple, the inner representation inn_image, orbits, and the relations
among epimorphisms that the paper's statements use (is_covering,
epimorphism_index).  The isomorphism search, product quandles and the
Permutation type that the tests use as corpus builders and oracles live in
tests/helpers.py.

Conventions, used everywhere in this package:

* elements are 0-based indices; ``table[a][b]`` is the product ``a * b``
  (row = left argument),
* a permutation of 0..n-1 is the tuple of its images, and the right
  translation R_a by ``a``, which sends ``x`` to ``x * a``, is column ``a``
  of the table (``Quandle.column``),
* permutations compose left to right: p then r is
  ``tuple(r[i] for i in p)``.  Under this convention the translations
  satisfy ``R_{a*b} = R_b^-1 R_a R_b``,
* value types are ``collections.namedtuple`` subclasses with
  ``__slots__ = ()``, equal to the plain tuple of their fields and
  iterating over them, and hashable when those are tuples (the package
  docstring says which types check what).  ``_make`` and ``_replace`` skip
  ``__new__`` and its checks, so nothing may call them.
"""

from collections import namedtuple
from operator import itemgetter

from .errors import (AxiomViolation, GroupTooLarge, NonIntegralIndex,
                     NotAHomomorphism, NotEpimorphism, TableTooLarge,
                     computed)

# cells of Inn(q) (elements x degree).  The closure holds each element as a
# tuple of its images, at 9 to 11 bytes a cell (measured at degrees 98 and
# 39), so 2 x 10^7 cells keep it near 200 MB
MAX_GROUP_CELLS = 2 * 10 ** 7
# cells of a table built from a few numbers: an extension's at a peak of 8
# bytes a cell, an Alexander quandle's or a cyclic group's at 49 (measured at
# orders 1,000 to 2,001), so 10^7 cells keep each under 0.5 GB
MAX_TABLE_CELLS = 10 ** 7


def _table_budget(order):
    if order * order > MAX_TABLE_CELLS:
        raise TableTooLarge(order, MAX_TABLE_CELLS)


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


def _generating_tree(q):
    """(gens, tree): a generating set S of q under the right translations,
    chosen greedily, and the breadth-first tree that reaches every element
    from it.

    The least element not yet reached joins S, and the set is closed under
    R_s, s in S, breadth first.  tree lists (v, u, k) for every element v in
    the order reached: u is None when v is gens[k], and otherwise
    v = u * gens[k] by the edge that reached v, u listed before v.  Since
    R_{u*s} = R_s^-1 R_u R_s, the translations R_s, s in S, generate Inn(q).
    The tree reached before s joins is closed under the earlier generators,
    so its elements are tried with s alone: O(n |S|) steps in all.
    """
    table = q.table
    gens = []
    tree = []
    reached = [False] * q.n
    for s in range(q.n):
        if reached[s]:
            continue
        closed = len(tree)
        gens.append(s)
        reached[s] = True
        tree.append((s, None, len(gens) - 1))
        head = 0
        while head < len(tree):         # tree grows while this runs
            u = tree[head][0]
            first = len(gens) - 1 if head < closed else 0
            head += 1
            for k in range(first, len(gens)):
                v = table[u][gens[k]]
                if not reached[v]:
                    reached[v] = True
                    tree.append((v, u, k))
    return gens, tuple(tree)


def inner_group(q):
    """Inn(q), the group generated by the right translations: the tuple of
    its elements as image tuples, in discovery order (identity first).  The
    closure runs over R_s for s in the generating set of _generating_tree
    only.  GroupTooLarge once the closure would pass the elements of degree
    n that fit MAX_GROUP_CELLS."""
    gens, _ = _generating_tree(q)
    return tuple(_closure(q.n, [q.column(s) for s in gens],
                          MAX_GROUP_CELLS // q.n))


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

    The one check, under errors.computed, is of the projection f as a
    homomorphism and as onto; it proves the image's axioms.  For i = f(a),
    j = f(b), k = f(c): i*i = f(a*a) = i, (i*j)*k = f((a*b)*c) =
    f((a*c)*(b*c)) = (i*k)*(j*k), and j = f(b')*k for b = b'*c, so R_k is
    onto the finite image.
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
    image_q = Quandle(n=len(reps), table=tuple(
        tuple(img[q.op(r, s)] for s in reps) for r in reps))
    with computed("inner representation"):
        f = QuandleMap(q, image_q, tuple(img))
        if not f.is_epimorphism():
            raise NotEpimorphism("projection is not onto")
    return image_q, f


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
