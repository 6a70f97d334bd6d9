"""Direct property tests for the exact integer linear algebra."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import corpus_quandles, dense_rows, dense_smith_form, sparse_rows
from oracles import (identity, mat_mul, reference_constraint_rows,
                     reference_row_reduce, reference_smith_normal_form)
from quandleforge import snf
from quandleforge.cohomology import _constraint_rows, _pair_index
from quandleforge.constructions import alexander_quandle, dihedral_quandle

matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-20, 20), min_size=c, max_size=c),
            min_size=r, max_size=r)))

# mostly zero, like the matrices of second_cohomology, so that rows and
# columns empty out and the pivot search skips zero rows
sparse_matrices = st.integers(1, 7).flatmap(
    lambda r: st.integers(1, 7).flatmap(
        lambda c: st.lists(
            st.lists(st.one_of(st.just(0), st.just(0), st.integers(-6, 6)),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))

TRANSFORMS = ("Uinv", "V", "Vinv")


def det(m):
    n = len(m)
    m = [[Fraction(v) for v in row] for row in m]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_smith_form_properties(a):
    form = dense_smith_form(snf.smith_normal_form(a, want=TRANSFORMS))
    nr, nc = len(a), len(a[0])
    s = [[form.diag[i] if i == j and i < form.rank else 0
          for j in range(nc)] for i in range(nr)]
    assert all(d > 0 for d in form.diag)
    for i in range(form.rank - 1):
        assert form.diag[i + 1] % form.diag[i] == 0
    assert mat_mul(mat_mul(form.Uinv, s), form.Vinv) == a
    assert mat_mul(form.Vinv, form.V) == identity(nc)
    assert abs(det(form.Uinv)) == 1
    assert abs(det(form.V)) == 1


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices, sparse_matrices),
       st.sets(st.sampled_from(TRANSFORMS)))
def test_smith_form_matches_reference(a, want):
    # the sparse form runs the reference's operations in the same order, so
    # it must give the same diagonal and the same transforms, entry for entry
    form = snf.smith_normal_form(a, want=want)
    ref = reference_smith_normal_form(a, want=want)
    assert (form.diag, form.rank, form.nrows, form.ncols) \
        == (ref.diag, ref.rank, ref.nrows, ref.ncols)
    for vectors in filter(None, (form.Uinv, form.V, form.Vinv)):
        assert all(v for vector in vectors for v in vector.values())
    dense = dense_smith_form(form)
    for name in TRANSFORMS:
        assert getattr(dense, name) == getattr(ref, name), name


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_row_reduce_spans_same_lattice(a):
    nc = len(a[0])
    reduced = snf.row_reduce(sparse_rows(a), nc)
    # reduced rows are combinations of the input by construction; check the
    # converse by echelon back-substitution membership
    pivots = []
    for row in reduced:
        col = next(j for j in range(nc) if row[j])
        pivots.append((col, row))
    for original in a:
        rem = list(original)
        for col, row in pivots:
            if rem[col]:
                assert rem[col] % row[col] == 0
                q = rem[col] // row[col]
                for j in range(nc):
                    rem[j] -= q * row[j]
        assert not any(rem)


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_row_reduce_preserves_rank(a):
    nc = len(a[0])
    reduced = snf.row_reduce(sparse_rows(a), nc)
    assert (snf.smith_normal_form(reduced).rank if reduced else 0) \
        == snf.smith_normal_form(a).rank


@st.composite
def tall_matrices(draw):
    """Integer matrices, usually with more rows than columns, with zero rows
    and copies of earlier rows mixed in at random positions."""
    c = draw(st.integers(1, 6))
    base = draw(st.lists(
        st.lists(st.integers(-20, 20), min_size=c, max_size=c),
        min_size=1, max_size=12))
    extra = draw(st.lists(st.one_of(st.just([0] * c), st.sampled_from(base)),
                          max_size=6))
    rows = base + extra
    order = draw(st.permutations(range(len(rows))))
    return [list(rows[i]) for i in order], c


@settings(max_examples=300, deadline=None)
@given(tall_matrices())
def test_row_reduce_matches_reference(case):
    a, nc = case
    rows = [list(r) for r in sparse_rows(a)]
    before = [list(r) for r in rows]
    assert snf.row_reduce(rows, nc) == reference_row_reduce(a, nc)
    assert rows == before


def test_row_reduce_matches_reference_on_constraint_systems():
    cases = corpus_quandles(max_order=9) + [("dihedral_12",
                                             dihedral_quandle(12))]
    for name, q in cases:
        pairs, pidx = _pair_index(q.n)
        rows = _constraint_rows(q, pidx)
        assert snf.row_reduce(rows, len(pairs)) \
            == reference_row_reduce(dense_rows(rows, len(pairs)),
                                    len(pairs)), name


def test_sparse_constraint_rows_match_dense_reference():
    # the same rows, in the same order, as the first dense builder; each has
    # its columns increasing, its values nonzero and the first one positive
    cases = corpus_quandles(max_order=12) + [
        ("dihedral_12", dihedral_quandle(12)),
        ("alexander_16_3", alexander_quandle(16, 3))]
    for name, q in cases:
        pairs, pidx = _pair_index(q.n)
        rows = _constraint_rows(q, pidx)
        assert dense_rows(rows, len(pairs)) \
            == reference_constraint_rows(q.table), name
        for row in rows:
            cols = [j for j, _ in row]
            assert cols == sorted(set(cols)) and 0 < len(row) <= 4, name
            assert all(v for _, v in row) and row[0][1] > 0, name
