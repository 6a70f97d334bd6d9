"""The quandle families: dihedral / Alexander quandles, generalized Alexander
quandles over a group automorphism, conjugacy-class quandles, and abelian
extensions by a Z_m-valued 2-cocycle.

Coefficient groups are always cyclic Z_m written additively (identity 0);
that covers every computation this package targets.  Groups are raw
multiplication tables with helper constructors for cyclic and symmetric
groups; group multiplication composes left to right like permutations.

A constructor checks its input, refuses a table past core.MAX_TABLE_CELLS,
and checks what it built once, by its type's checker under errors.computed;
an extension's table is not checked, as its cocycle is.
"""

from collections import namedtuple
from itertools import permutations
from math import gcd
from operator import itemgetter

from . import cohomology
from .core import (Quandle, _first_failure, _law_failure, _table_budget,
                   validate_quandle)
from .errors import NotAUnit, computed


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
    """Z_k; TableTooLarge past core.MAX_TABLE_CELLS."""
    if k < 1:
        raise ValueError("order must be positive")
    _table_budget(k)
    with computed("cyclic group"):
        return finite_group(
            [[(a + b) % k for b in range(k)] for a in range(k)])


def symmetric_group(degree):
    """Sym(degree) on 0..degree-1; elements are permutation tuples in
    lexicographic order, product applies the left factor first."""
    if not 1 <= degree <= 5:
        raise ValueError("symmetric_group supports degrees 1..5")
    elems = sorted(permutations(range(degree)))
    index = {p: i for i, p in enumerate(elems)}
    mult = [[index[tuple(q[i] for i in p)] for q in elems] for p in elems]
    with computed("symmetric group"):
        return finite_group(mult), tuple(elems)


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
    with computed("conjugation automorphism"):
        return GroupAutomorphism(
            g, tuple(g.conj(a, x) for a in range(g.order)))


def alexander_quandle(n, t):
    """a*b = t*a + (1-t)*b mod n for a unit t; TableTooLarge past
    core.MAX_TABLE_CELLS."""
    if n < 1:
        raise ValueError("order must be positive")
    if gcd(t % n, n) != 1:
        raise NotAUnit(f"{t} is not a unit mod {n}")
    _table_budget(n)
    table = [[(t * a + (1 - t) * b) % n for b in range(n)] for a in range(n)]
    with computed("alexander quandle"):
        return validate_quandle(n, table)


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
    with computed("generalized alexander quandle"):
        return validate_quandle(k, table)


def conjugation_quandle(g, x):
    """The conjugacy class of x under a*b = b^-1 a b, with labels mapping
    quandle indices back to group elements (ascending)."""
    _check_element(g, x)
    cls = sorted({g.conj(x, h) for h in range(g.order)})
    pos = {v: i for i, v in enumerate(cls)}
    k = len(cls)
    table = [[pos[g.conj(cls[a], cls[b])] for b in range(k)] for a in range(k)]
    with computed("conjugation quandle"):
        return validate_quandle(k, table), tuple(cls)


def abelian_extension(x, phi):
    """E(X, Z_m, phi) for the Cocycle2 phi, element x*m + a the pair
    (x, a), projecting onto X by i -> i // m.  phi is checked against x by
    cohomology.cocycle, the only check: the table satisfies the axioms
    exactly when phi is a cocycle."""
    return _extension(x, cohomology.cocycle(x, phi))


def _extension(x, phi):
    """E(X, Z_m, phi) for a Cocycle2 phi already checked against x: nothing
    is checked again.  (x, a)*(y, b) = (x*y, a + phi(x, y)) for every b.
    TableTooLarge, before any row is built, past core.MAX_TABLE_CELLS."""
    m = phi.m
    _table_budget(x.n * m)
    return Quandle(n=x.n * m, table=tuple(
        tuple(c for xy, v in zip(row, vals)
              for c in (xy * m + (a + v) % m,) * m)
        for row, vals in zip(x.table, phi.values) for a in range(m)))
