"""Direct property tests for the exact integer linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import corpus_quandles, dense_rows, dense_smith_form, sparse_rows
from oracles import (identity, mat_mul, reference_constraint_rows,
                     reference_row_reduce, reference_smith_normal_form)
from quandleforge import snf
from quandleforge.cohomology import _constraint_rows, _pair_index
from quandleforge.constructions import alexander_quandle, dihedral_quandle
from quandleforge.core import is_connected, product_quandle

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


@st.composite
def lattice_matrices(draw):
    """Systems most of whose rows lie in the lattice of rows before them,
    like the cocycle constraints: a few base rows with entries in -2..2,
    then integer combinations of them, in random order."""
    c = draw(st.integers(1, 7))
    base = draw(st.lists(st.lists(st.integers(-2, 2), min_size=c,
                                  max_size=c), min_size=1, max_size=4))
    coefficients = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=len(base),
                 max_size=len(base)), max_size=14))
    rows = base + [[sum(k * b[j] for k, b in zip(ks, base))
                    for j in range(c)] for ks in coefficients]
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], c


def check_row_reduce(a, nc):
    """row_reduce on the sparse rows of a equals the bucket loop and the
    reference, list for list, leaves its input alone and reports stats
    that add up; returns the stats."""
    rows = [list(r) for r in sparse_rows(a)]
    before = [list(r) for r in rows]
    stats = {}
    out = snf.row_reduce(rows, nc, stats)
    assert rows == before
    assert out == snf._bucket_reduce(rows, nc) \
        == reference_row_reduce(a, nc)
    assert stats["pivots"] == len(out)
    if not stats["full_loop"]:
        assert stats["pivots"] + stats["dropped"] == len(rows)
    return stats


@settings(max_examples=300, deadline=None)
@given(tall_matrices())
def test_row_reduce_matches_reference(case):
    check_row_reduce(*case)


@settings(max_examples=300, deadline=None)
@given(lattice_matrices())
def test_row_reduce_matches_reference_on_lattice_rows(case):
    check_row_reduce(*case)


@pytest.mark.parametrize("rows, out, stats", [
    # the second row is twice the first: it lies in the lattice
    ([[1, 1], [2, 2]], [[1, 1]], dict(dropped=1, full_loop=False)),
    # 2 does not divide 1, and the loop takes the later row as pivot there,
    # so the loop runs on all rows
    ([[2, 1], [1, 0], [0, 3]], [[1, 0], [0, 1]],
     dict(dropped=0, full_loop=True)),
    # 4 and 6 take a second pass at column 0, so the loop runs on all rows
    ([[4, 1], [6, 0], [0, 1]], [[2, -1], [0, 1]],
     dict(dropped=0, full_loop=True)),
])
def test_row_reduce_paths(rows, out, stats):
    got = {}
    assert snf.row_reduce(sparse_rows(rows), 2, got) == out
    assert got.items() >= stats.items()


def constraint_system(q):
    pairs, pidx = _pair_index(q.n)
    return _constraint_rows(q, pidx), len(pairs)


@pytest.mark.parametrize("q, full_loop", [
    (alexander_quandle(16, 3), False),
    (alexander_quandle(25, 2), False),
    (alexander_quandle(16, 5), True),
    (dihedral_quandle(12), True),
    (product_quandle(dihedral_quandle(3), dihedral_quandle(3)), True),
], ids=["alexander_16_3", "alexander_25_2", "alexander_16_5", "dihedral_12",
        "dihedral3_squared"])
def test_row_reduce_matches_bucket_loop_on_constraint_systems(q, full_loop):
    rows, ncols = constraint_system(q)
    stats = {}
    assert snf.row_reduce(rows, ncols, stats) \
        == snf._bucket_reduce(rows, ncols)
    assert stats["full_loop"] == full_loop


def test_connected_constraint_systems_do_not_restart():
    # each constraint row of a connected corpus quandle is dropped or
    # becomes a pivot, so a regression into the bucket loop shows here.
    # The one exception is dihedral3_squared: a row with entry 1 meets a
    # pivot with entry -3, so the loop runs on all rows.
    full_loop = {"dihedral3_squared"}
    for name, q in corpus_quandles(24):
        if not is_connected(q):
            continue
        rows, ncols = constraint_system(q)
        stats = {}
        snf.row_reduce(rows, ncols, stats)
        assert stats["full_loop"] == (name in full_loop), name
        if not stats["full_loop"]:
            assert stats["pivots"] + stats["dropped"] == len(rows), name


def test_row_reduce_matches_reference_on_constraint_systems():
    cases = corpus_quandles(max_order=9) + [("dihedral_12",
                                             dihedral_quandle(12))]
    for name, q in cases:
        rows, ncols = constraint_system(q)
        assert snf.row_reduce(rows, ncols) \
            == reference_row_reduce(dense_rows(rows, ncols), ncols), name


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
