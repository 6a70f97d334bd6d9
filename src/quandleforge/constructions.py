"""The quandle families: dihedral / Alexander quandles, generalized Alexander
quandles over a group automorphism, conjugacy-class quandles, and abelian
extensions by a Z_m-valued 2-cocycle.

Coefficient groups are always cyclic Z_m written additively (identity 0);
that covers every computation this package targets.  Groups are raw
multiplication tables with helper constructors for cyclic and symmetric
groups; group multiplication composes left to right like permutations.
"""

from collections import namedtuple
from itertools import permutations
from math import gcd
from operator import itemgetter

from . import cohomology
from .core import (Quandle, QuandleMap, _first_failure, _law_failure,
                   validate_quandle)
from .errors import NotAUnit


class FiniteGroup(namedtuple("FiniteGroup", "order mult identity inverse")):
    """A finite group as a multiplication table; validated on construction
    by finite_group."""

    __slots__ = ()

    def conj(self, a, b):
        """b^-1 * a * b."""
        m = self.mult
        return m[m[self.inverse[b]][a]][b]


def finite_group(mult_table):
    """Validate associativity / identity / inverses and wrap the table.

    Associativity (ab)c == a(bc) is compared one (b, c) pair at a time over
    all a, through one operator.itemgetter per column: O(k^2) calls into C
    and O(k) memory beyond the table.  The identity is the first element
    whose row and column are the identity, and the inverse of a the first b
    with ab == ba == identity.
    """
    k = len(mult_table)
    rows = tuple(tuple(map(int, r)) for r in mult_table)
    if (not k or any(len(r) != k for r in rows)
            or min(map(min, rows)) < 0 or max(map(max, rows)) >= k):
        raise ValueError("multiplication table must be k x k over 0..k-1")
    cols = list(zip(*rows))             # cols[c][a] = ac
    # get[b](cols[c]) is ((ab)c)_a, and cols[bc] is (a(bc))_a
    get = [itemgetter(*col) for col in cols]
    if _first_failure(k, lambda b, c: (get[b](cols[c]), cols[rows[b][c]])):
        raise ValueError("multiplication is not associative")
    ids = tuple(range(k))
    ident = next((e for e in range(k) if rows[e] == ids and cols[e] == ids),
                 None)
    if ident is None:
        raise ValueError("no identity element")
    inv = [next((b for b, ab in enumerate(rows[a])
                 if ab == ident and cols[a][b] == ident), -1)
           for a in range(k)]
    if -1 in inv:
        raise ValueError(f"element {inv.index(-1)} has no inverse")
    return FiniteGroup(order=k, mult=rows, identity=ident,
                       inverse=tuple(inv))


def cyclic_group(k):
    if k < 1:
        raise ValueError("order must be positive")
    return finite_group([[(a + b) % k for b in range(k)] for a in range(k)])


def symmetric_group(degree):
    """Sym(degree) on 0..degree-1; elements are permutation tuples in
    lexicographic order, product applies the left factor first."""
    if not 1 <= degree <= 5:
        raise ValueError("symmetric_group supports degrees 1..5")
    elems = sorted(permutations(range(degree)))
    index = {p: i for i, p in enumerate(elems)}
    mult = [[index[tuple(q[i] for i in p)] for q in elems] for p in elems]
    g = finite_group(mult)
    return g, tuple(elems)


class GroupAutomorphism(namedtuple("GroupAutomorphism", "group images")):
    """An automorphism of the FiniteGroup group, as the tuple of images;
    verified on construction."""

    __slots__ = ()

    def __new__(cls, group, images):
        if sorted(images) != list(range(group.order)):
            raise ValueError("automorphism images must be a bijection")
        bad = _law_failure(group.mult, group.mult, images)
        if bad is not None:
            raise ValueError(f"not multiplicative at {bad}")
        return super().__new__(cls, group, images)


def _check_element(g, x):
    if not 0 <= x < g.order:
        raise ValueError(
            f"group element {x} (0-based) is not in 0..{g.order - 1}")


def conjugation_automorphism(g, x):
    """The inner automorphism a -> x^-1 a x."""
    _check_element(g, x)
    return GroupAutomorphism(g, tuple(g.conj(a, x) for a in range(g.order)))


def alexander_quandle(n, t):
    """a*b = t*a + (1-t)*b mod n for a unit t."""
    if n < 1:
        raise ValueError("order must be positive")
    if gcd(t % n, n) != 1:
        raise NotAUnit(f"{t} is not a unit mod {n}")
    return validate_quandle(
        n, [[(t * a + (1 - t) * b) % n for b in range(n)] for a in range(n)])


def dihedral_quandle(n):
    """a*b = 2b - a mod n: the Alexander quandle with t = -1."""
    return alexander_quandle(n, -1)


def trivial_quandle(n):
    """a*b = a: the Alexander quandle with t = 1."""
    return alexander_quandle(n, 1)


def generalized_alexander_quandle(g, f):
    """The quandle on the group g with x*y = f(x y^-1) y."""
    if f.group is not g and f.group != g:
        raise ValueError("automorphism is for a different group")
    k = g.order
    table = [[g.mult[f.images[g.mult[x][g.inverse[y]]]][y]
              for y in range(k)] for x in range(k)]
    return validate_quandle(k, table)


def conjugation_quandle(g, x):
    """The conjugacy class of x under a*b = b^-1 a b, with labels mapping
    quandle indices back to group elements (ascending)."""
    _check_element(g, x)
    cls = sorted({g.conj(x, h) for h in range(g.order)})
    pos = {v: i for i, v in enumerate(cls)}
    k = len(cls)
    table = [[pos[g.conj(cls[a], cls[b])] for b in range(k)] for a in range(k)]
    return validate_quandle(k, table), tuple(cls)


def extension_table(x, m, values):
    """The raw table on X x Z_m for (x,a)*(y,b) = (x*y, a + values[x][y]).

    No cocycle check: the table is a quandle exactly when values is a
    diagonal-zero 2-cocycle, which tests exercise both ways.  Pairs are
    encoded as x*m + a.
    """
    n = x.n
    size = n * m
    table = [[0] * size for _ in range(size)]
    for a in range(n):
        for lev in range(m):
            row = table[a * m + lev]
            for b in range(n):
                base = x.table[a][b] * m + (lev + values[a][b]) % m
                for lev2 in range(m):
                    row[b * m + lev2] = base
    return table


def abelian_extension(x, m, phi):
    """The extension quandle E(X, Z_m, phi) plus the projection onto X.

    phi may be a Cocycle2 or a raw n x n value table; it is validated by
    cohomology.cocycle (ShapeMismatch, or NotACocycle with a witness).
    That check is the only one: the table satisfies the quandle axioms
    exactly when phi is a diagonal-zero cocycle, so it is not validated
    again.
    """
    e = _extension(x, m, cohomology.cocycle(x, m, phi))
    return e, QuandleMap(e, x, tuple(i // m for i in range(e.n)))


def _extension(x, m, phi):
    """E(X, Z_m, phi) alone, for a Cocycle2 phi already checked against x:
    nothing is checked again, and no projection is built for callers that
    read only E."""
    return Quandle(n=x.n * m, table=tuple(
        tuple(row) for row in extension_table(x, m, phi.values)))
