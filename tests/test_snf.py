"""Direct property tests for the exact integer linear algebra."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (corpus_quandles, dense_rows, dense_smith_form,
                     product_quandle, sparse_rows, sym4_class_quandle)
from oracles import (bucket_reduce, identity, mat_mul,
                     reference_constraint_rows, reference_row_reduce,
                     reference_smith_normal_form)
from quandleforge import snf
from quandleforge.cohomology import (_constraint_rows, _pair_index,
                                     second_cohomology)
from quandleforge.constructions import (abelian_extension, alexander_quandle,
                                        dihedral_quandle)
from quandleforge.core import is_connected

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
    form = dense_smith_form(snf.smith_normal_form(a, want=TRANSFORMS), a)
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
    assert (form.diag, form.rank) == (ref.diag, ref.rank)
    for vectors in filter(None, (form.Uinv, form.V, form.Vinv)):
        assert all(v for vector in vectors for v in vector.values())
    dense = dense_smith_form(form, a)
    for name in TRANSFORMS:
        assert getattr(dense, name) == getattr(ref, name), name


def leading(row):
    return next(j for j, v in enumerate(row) if v)


def in_lattice(v, basis):
    """Whether v lies in the Z-span of basis, an echelon list of dense rows,
    by back-substitution in the order of the leading columns."""
    rem = list(v)
    for row in basis:
        col = leading(row)
        if rem[col] % row[col]:
            return False
        q = rem[col] // row[col]
        rem = [x - q * y for x, y in zip(rem, row)]
    return not any(rem)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_row_reduce_spans_same_lattice(a):
    # reduced rows are combinations of the input by construction; check the
    # converse by echelon back-substitution membership
    reduced = snf.row_reduce(sparse_rows(a), len(a[0]))
    assert all(in_lattice(original, reduced) for original in a)


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
    """row_reduce on the sparse rows of a is an echelon basis of the lattice
    of the reference, with positive leading entries, and the bucket loop's
    list when no row swaps; it leaves its input alone, drops exactly the
    rows that lie in the lattice of the rows before them, zero rows
    included, and reports stats that add up.  Returns the stats."""
    rows = [list(r) for r in sparse_rows(a)]
    before = [list(r) for r in rows]
    stats = {}
    out = snf.row_reduce(rows, nc, stats)
    assert rows == before
    ref = reference_row_reduce(a, nc)
    assert bucket_reduce(rows, nc) == ref
    cols = [leading(row) for row in out]
    assert cols == sorted(set(cols))
    assert all(row[col] > 0 for row, col in zip(out, cols))
    assert all(in_lattice(row, ref) for row in out)
    assert all(in_lattice(row, out) for row in ref)
    assert stats["pivots"] == len(out)
    assert stats["dropped"] == sum(
        in_lattice(row, reference_row_reduce(a[:i], nc))
        for i, row in enumerate(a))
    if stats["swaps"]:
        assert stats["pivots"] + stats["dropped"] <= len(rows)
    else:
        assert out == ref
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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda c: st.lists(
    st.tuples(st.integers(-30, 30).filter(bool),
              st.lists(st.integers(-9, 9), min_size=c, max_size=c)),
    min_size=2, max_size=2)))
def test_gcd_step_is_unimodular(case):
    # two rows that lead at column 0
    (x, ptail), (y, rtail) = case
    p, r = [x] + ptail, [y] + rtail
    piv, rem = snf._gcd_step(dict(sparse_rows([p])[0]),
                             dict(sparse_rows([r])[0]), 0)
    assert piv[0] == gcd(x, y) and 0 not in rem
    # the same lattice both ways, so the 2x2 step has determinant +-1
    step = dense_rows([piv.items(), rem.items()], len(p))
    basis = [row for row in step if any(row)]
    ref = reference_row_reduce([p, r], len(p))
    assert all(in_lattice(row, ref) for row in step)
    assert in_lattice(p, basis) and in_lattice(r, basis)


@pytest.mark.parametrize("rows, out, stats", [
    # the second row is twice the first: it lies in the lattice
    ([[1, 1], [2, 2]], [[1, 1]], dict(dropped=1, swaps=0)),
    # 2 does not divide 1: the pivot becomes [1, 0] and the chase goes on
    # with 2 [1, 0] - [2, 1] = [0, -1], which [0, 3] then lies on
    ([[2, 1], [1, 0], [0, 3]], [[1, 0], [0, 1]],
     dict(dropped=1, swaps=1)),
    # gcd(4, 6) = 2 = -4 + 6: the pivot becomes [2, -1] and the chase goes
    # on with [0, -3]; then [0, 1] swaps with that and reaches zero
    ([[4, 1], [6, 0], [0, 1]], [[2, -1], [0, 1]],
     dict(dropped=0, swaps=2)),
])
def test_row_reduce_paths(rows, out, stats):
    got = {}
    assert snf.row_reduce(sparse_rows(rows), 2, got) == out
    assert got.items() >= stats.items()


def constraint_system(q):
    pairs, pidx = _pair_index(q.n)
    return _constraint_rows(q, pidx), len(pairs)


def e12():
    """E(x6, Z_2, rep0), the order-12 extension the benchmark builds with
    `make conj --group s4.group --elem 2`, `h2 --emit-reps` and `extend`."""
    x6 = sym4_class_quandle((1, 1, 2))
    return abelian_extension(
        x6, 2, second_cohomology(x6, 2).representatives[0])[0]


# the H^2 representatives follow the reduced list, so every input whose
# list the benchmark emits representatives from is pinned here, swaps or not
@pytest.mark.parametrize("q, swaps", [
    (alexander_quandle(16, 3), 0),
    (alexander_quandle(25, 2), 0),
    (dihedral_quandle(12), 3),
    (product_quandle(dihedral_quandle(3), dihedral_quandle(3)), 1),
    (e12(), 1),
], ids=["alexander_16_3", "alexander_25_2", "dihedral_12",
        "dihedral3_squared", "e12"])
def test_row_reduce_matches_bucket_loop_on_constraint_systems(q, swaps):
    rows, ncols = constraint_system(q)
    stats = {}
    assert snf.row_reduce(rows, ncols, stats) \
        == bucket_reduce(rows, ncols)
    assert stats["swaps"] == swaps


def test_connected_constraint_systems_do_not_restart():
    # each constraint row of a connected corpus quandle is dropped or
    # becomes a pivot, so a regression into many swaps shows here.  The
    # one exception is dihedral3_squared: a row with entry 1 meets a pivot
    # with entry -3 and swaps with it once.
    swaps = {"dihedral3_squared": 1}
    for name, q in corpus_quandles(24):
        if not is_connected(q):
            continue
        rows, ncols = constraint_system(q)
        stats = {}
        snf.row_reduce(rows, ncols, stats)
        assert stats["swaps"] == swaps.get(name, 0), name
        if not stats["swaps"]:
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
