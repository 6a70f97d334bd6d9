"""Constructions shared by several test modules."""

from quandleforge.cohomology import Cocycle2, second_cohomology
from quandleforge.constructions import (abelian_extension, alexander_quandle,
                                        conjugation_quandle, dihedral_quandle,
                                        generalized_alexander_quandle,
                                        GroupAutomorphism, symmetric_group,
                                        trivial_quandle)
from quandleforge.core import Permutation, product_quandle
from quandleforge.pipeline import tetrahedral_quandle


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


def dense_smith_form(form):
    """form with its sparse transforms as dense lists of rows, the layout of
    oracles.reference_smith_normal_form: Uinv and V come by columns, Vinv
    by rows."""
    def by_rows(vectors, k):
        return dense_rows([v.items() for v in vectors], k)

    def by_columns(vectors, k):
        return [list(r) for r in zip(*by_rows(vectors, k))]

    return form._replace(
        Uinv=form.Uinv and by_columns(form.Uinv, form.nrows),
        V=form.V and by_columns(form.V, form.ncols),
        Vinv=form.Vinv and by_rows(form.Vinv, form.ncols))


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
                e, proj = abelian_extension(x, m, phi)
                out.append((f"E({name},Z{m},{tag})", x, m, phi, e, proj))
    return out
