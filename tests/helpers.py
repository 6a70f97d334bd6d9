"""Constructions, test data and oracles shared by several test modules.

Nothing in the package calls these: corpus builders (product_quandle,
tetrahedral_quandle, corpus_quandles, and extension_with_projection, an
extension with the map onto its base), the isomorphism search the census
tests use as oracle (are_isomorphic), the alternate braid presentations of
the Markov tests (presentations), a tangle check whose failure would be an
implementation bug (endpoints_same_translation), and the permutation algebra
the tests check translations and group elements with (Permutation; the
package keeps permutations as plain image tuples).
"""

from collections import namedtuple

from quandleforge.cohomology import Cocycle2, second_cohomology
from quandleforge.constructions import (abelian_extension, alexander_quandle,
                                        conjugation_quandle, dihedral_quandle,
                                        finite_group,
                                        generalized_alexander_quandle,
                                        GroupAutomorphism, symmetric_group,
                                        trivial_quandle)
from quandleforge.core import QuandleMap, validate_quandle
from quandleforge.errors import NotAHomomorphism
from quandleforge.knots import BUNDLED_WORDS, parse_braid, tangle_colorings


class Permutation(namedtuple("Permutation", "images")):
    """A bijection of 0..n-1, stored as the tuple of images."""

    __slots__ = ()

    def __new__(cls, images):
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection: {images}")
        return super().__new__(cls, images)

    def __mul__(self, other):
        """Left-to-right composition: apply self first, then other."""
        return Permutation(tuple(other.images[i] for i in self.images))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

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

# alternate presentations of the same knot, for the Markov/diagram tests
EXTRA_PRESENTATIONS = {
    "3_1": [(3, [1, 1, 1, 2]), (3, [1, 1, 1, -2])],
    "4_1": [(4, [1, -2, 1, -2, 3])],
}


def presentations(name):
    """All presentations of the named knot, the bundled one first."""
    out = []
    for n, s, w in BUNDLED_WORDS:
        if n == name:
            out.append(parse_braid(name, s, w))
    for s, w in EXTRA_PRESENTATIONS.get(name, []):
        out.append(parse_braid(name, s, w))
    return out


def endpoints_same_translation(q, k):
    """True iff R_{y0} == R_{y1} for every coloring of k's 1-tangle.

    This must hold for every quandle, because the tangles are classical by
    construction; a failure here is an implementation bug.
    """
    return all(q.column(c.y0) == q.column(c.y1)
               for c in tangle_colorings(q, k))


def tetrahedral_quandle():
    """The connected faithful order-4 quandle on the Klein group with a cyclic
    automorphism; the smallest base with nontrivial Z_2 cohomology."""
    klein = finite_group([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    f = GroupAutomorphism(klein, (0, 2, 3, 1))
    return generalized_alexander_quandle(klein, f)


def product_quandle(q1, q2):
    """Componentwise operation on pairs, encoded as a*len(q2) + b."""
    n1, n2 = q1.n, q2.n
    n = n1 * n2
    table = [[0] * n for _ in range(n)]
    for a1 in range(n1):
        for a2 in range(n2):
            i = a1 * n2 + a2
            row = table[i]
            for b1 in range(n1):
                rb1 = q1.table[a1][b1]
                for b2 in range(n2):
                    row[b1 * n2 + b2] = rb1 * n2 + q2.table[a2][b2]
    return validate_quandle(n, table)


def _iso_profiles(q):
    cols = [q.column(a) for a in range(q.n)]
    mult = {}
    for c in cols:
        mult[c] = mult.get(c, 0) + 1
    return [(Permutation(cols[a]).cycle_type(), mult[cols[a]])
            for a in range(q.n)]


def are_isomorphic(q1, q2):
    """Search for an isomorphism q1 -> q2; returns a QuandleMap or None.

    Backtracking over elements, pruned by per-element profiles (cycle type of
    the translation and its multiplicity among the columns).
    """
    if q1.n != q2.n:
        return None
    p1, p2 = _iso_profiles(q1), _iso_profiles(q2)
    if sorted(p1) != sorted(p2):
        return None
    n = q1.n
    candidates = [[b for b in range(n) if p2[b] == p1[a]] for a in range(n)]
    # rarest profiles first to fail fast
    order = sorted(range(n), key=lambda a: len(candidates[a]))
    img = [-1] * n
    used = [False] * n
    t1, t2 = q1.table, q2.table

    def extend(k):
        """The isomorphism extending img on order[:k], or None."""
        if k == n:
            # pruning checks only factor pairs; QuandleMap checks every pair
            try:
                return QuandleMap(q1, q2, tuple(img))
            except NotAHomomorphism:
                return None
        a = order[k]
        for b in candidates[a]:
            if used[b]:
                continue
            ok = True
            for c in order[:k]:
                d = img[c]
                ac, ca = img[t1[a][c]], img[t1[c][a]]
                if (ac != -1 and ac != t2[b][d]) or (ca != -1 and ca != t2[d][b]):
                    ok = False
                    break
            if not ok:
                continue
            img[a] = b
            used[b] = True
            found = extend(k + 1)
            if found is not None:
                return found
            img[a] = -1
            used[b] = False
        return None

    return extend(0)


def sparse_rows(rows):
    """Dense integer rows in the sparse form snf.row_reduce takes."""
    return [tuple((j, v) for j, v in enumerate(row) if v) for row in rows]


def dense_rows(rows, ncols):
    """Sparse (column, value) rows as dense lists of length ncols."""
    out = []
    for row in rows:
        dense = [0] * ncols
        for j, v in row:
            dense[j] = v
        out.append(dense)
    return out


def dense_smith_form(form, a):
    """The Smith form of the matrix a with its sparse transforms as dense
    lists of rows, the layout of oracles.reference_smith_normal_form: Uinv
    and V come by columns, Vinv by rows."""
    nrows, ncols = len(a), len(a[0]) if a else 0

    def by_rows(vectors, k):
        return dense_rows([v.items() for v in vectors], k)

    def by_columns(vectors, k):
        return [list(r) for r in zip(*by_rows(vectors, k))]

    return form._replace(
        Uinv=form.Uinv and by_columns(form.Uinv, nrows),
        V=form.V and by_columns(form.V, ncols),
        Vinv=form.Vinv and by_rows(form.Vinv, ncols))


def sym_class_quandle(degree, cycle_type):
    """The conjugacy-class quandle of Sym(degree) elements of the given cycle
    type, fixed points included ((1,1,2) is the transpositions of Sym(4),
    (1,1,1,2) those of Sym(5))."""
    g, elems = symmetric_group(degree)
    for i, p in enumerate(elems):
        if Permutation(p).cycle_type() == tuple(sorted(cycle_type)):
            return conjugation_quandle(g, i)[0]
    raise ValueError(f"no element of cycle type {cycle_type}")


def sym4_class_quandle(cycle_type):
    return sym_class_quandle(4, cycle_type)


def extension_with_projection(x, phi):
    """E(X, Z_m, phi) and its projection onto X, (x, a) -> x."""
    e = abelian_extension(x, phi)
    return e, QuandleMap(e, x, tuple(i // phi.m for i in range(e.n)))


def corpus_quandles(max_order=24):
    """The structural corpus every suite runs over: everything this package
    can construct at desk scale, identified by name (never by any external
    database labeling)."""
    out = [
        ("trivial_1", trivial_quandle(1)),
        ("trivial_2", trivial_quandle(2)),
        ("trivial_3", trivial_quandle(3)),
        ("dihedral_3", dihedral_quandle(3)),
        ("dihedral_4", dihedral_quandle(4)),
        ("dihedral_5", dihedral_quandle(5)),
        ("dihedral_6", dihedral_quandle(6)),
        ("dihedral_7", dihedral_quandle(7)),
        ("dihedral_8", dihedral_quandle(8)),
        ("dihedral_9", dihedral_quandle(9)),
        ("alexander_5_2", alexander_quandle(5, 2)),
        ("alexander_7_3", alexander_quandle(7, 3)),
        ("alexander_8_3", alexander_quandle(8, 3)),
        ("alexander_9_2", alexander_quandle(9, 2)),
        ("tetrahedral", tetrahedral_quandle()),
        ("sym4_transpositions", sym4_class_quandle((1, 1, 2))),
        ("sym4_fourcycles", sym4_class_quandle((4,))),
        ("sym4_double_transpositions", sym4_class_quandle((2, 2))),
    ]
    g3, e3 = symmetric_group(3)
    t3 = next(i for i, p in enumerate(e3)
              if Permutation(p).cycle_type() == (1, 2))
    out.append(("sym3_transpositions", conjugation_quandle(g3, t3)[0]))
    out.append(("galex_sym3_conj",
                generalized_alexander_quandle(
                    g3, GroupAutomorphism(
                        g3, tuple(g3.conj(a, t3) for a in range(6))))))
    d3 = dihedral_quandle(3)
    out.append(("dihedral3_squared", product_quandle(d3, d3)))
    return [(name, q) for name, q in out if q.n <= max_order]


def corpus_extensions(max_base_order=6, moduli=(2, 3)):
    """Extensions E(X, Z_m, phi) over the corpus: the zero cocycle plus every
    cohomology representative, for each small connected-or-not base."""
    out = []
    for name, x in corpus_quandles(max_order=max_base_order):
        for m in moduli:
            reps = [("zero", Cocycle2.zero(x.n, m))]
            h = second_cohomology(x, m)
            for i, rep in enumerate(h.representatives):
                reps.append((f"h2gen{i}", rep))
            for tag, phi in reps:
                e, proj = extension_with_projection(x, phi)
                out.append((f"E({name},Z{m},{tag})", x, m, phi, e, proj))
    return out
