"""Exact integer linear algebra: row reduction and Smith normal form.

Everything is Python ints, so everything is exact.  `row_reduce` cuts the
tall, sparse cocycle constraint systems (10^4 rows at order 24, at most 4
nonzeros each) to at most one row per column.  It takes sparse rows of
(column, value) pairs, keeps each working row as a dict in the bucket of its
leading column, and returns dense rows, so its memory follows the fill and
not rows x columns.  `smith_normal_form` is dense, on lists of lists, and
meant for what is left: a few hundred rows and columns.
"""

from collections import namedtuple
from operator import itemgetter


def identity(k):
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        m[i][i] = 1
    return m


def row_reduce(rows, ncols):
    """Row-echelon reduction over Z by gcd-style row operations.

    rows are sparse: each is a sequence of (column, value) pairs, in
    increasing column order with nonzero values, and is not modified.
    Returns at most ncols independent dense rows (lists of length ncols),
    leading entries positive, that span the row lattice of the input.

    Each row waits in the bucket of its leading column.  At a column, the
    rows of its bucket are taken in input order and reduced by the one with
    the smallest entry there until only that pivot is left; each row that
    drops out moves to the bucket of its new leading column, or is dropped
    when it reaches zero.  The working rows are dicts and a step touches
    only the pivot's support, so memory follows the fill.  The output order
    is part of the contract; the H^2 representatives follow it.
    """
    buckets = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        if row:
            buckets[row[0][0]].append((i, dict(row)))
    out = []
    for col in range(ncols):
        live, buckets[col] = buckets[col], None
        if not live:
            continue
        live.sort(key=itemgetter(0))
        while len(live) > 1:
            live.sort(key=lambda e: abs(e[1][col]))
            piv = live[0][1]
            p = piv[col]
            support = [(j, v) for j, v in piv.items() if j != col]
            rest = [live[0]]
            for e in live[1:]:
                r = e[1]
                c = r[col]
                q = c // p      # nonzero: |p| is least among live entries
                for j, v in support:
                    w = r.get(j, 0) - q * v
                    if w:
                        r[j] = w
                    else:
                        del r[j]
                c -= q * p
                if c:
                    r[col] = c
                    rest.append(e)
                else:
                    del r[col]
                    if r:
                        buckets[min(r)].append(e)
            live = rest
        piv = live[0][1]
        sign = -1 if piv[col] < 0 else 1
        dense = [0] * ncols
        for j, v in piv.items():
            dense[j] = sign * v
        out.append(dense)
    return out


class SmithForm(namedtuple("SmithForm", "diag rank nrows ncols Uinv V Vinv")):
    """S = U @ A @ V with U, V unimodular; diag = invariant factors d1 | d2 | ...

    diag is a list, and each transform a list of rows.  U itself is never
    formed.  Only the transforms requested from smith_normal_form are
    populated; the rest are None.
    """

    __slots__ = ()


def smith_normal_form(a, want=()):
    """Smith normal form of an integer matrix with optional transforms.

    want is a subset of {"Uinv", "V", "Vinv"}: with S = U A V, U acting on
    rows, these are V and the exact integer inverses of U and V, so
    A = Uinv S Vinv.
    """
    nr = len(a)
    nc = len(a[0]) if nr else 0
    s = [list(row) for row in a]

    need_ui = "Uinv" in want
    need_v = "V" in want
    need_vi = "Vinv" in want
    Ui = identity(nr) if need_ui else None
    V = identity(nc) if need_v else None
    Vi = identity(nc) if need_vi else None

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        if need_ui:  # columns of Uinv
            for r in Ui:
                r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        if need_v:
            for r in V:
                r[i], r[j] = r[j], r[i]
        if need_vi:
            Vi[i], Vi[j] = Vi[j], Vi[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        rs, rd = s[src], s[dst]
        for j in range(nc):
            rd[j] += q * rs[j]
        if need_ui:  # Uinv: col src -= q * col dst
            for r in Ui:
                r[src] -= q * r[dst]

    def add_col(src, dst, q):
        # col dst += q * col src
        for r in s:
            r[dst] += q * r[src]
        if need_v:
            for r in V:
                r[dst] += q * r[src]
        if need_vi:  # Vinv: row src -= q * row dst
            rs, rd = Vi[src], Vi[dst]
            for j in range(nc):
                rs[j] -= q * rd[j]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        if need_ui:
            for r in Ui:
                r[i] = -r[i]

    def select_pivot(t):
        piv = None
        best = None
        for i in range(t, nr):
            row = s[i]
            for j in range(t, nc):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
                    if best == 1:
                        return piv
        return piv

    t = 0
    while t < min(nr, nc):
        # always restart from the smallest entry of the block: remainders
        # are strictly smaller than the pivot, so this terminates, and it
        # keeps the coefficients from exploding
        piv = select_pivot(t)
        if piv is None:
            break
        while True:
            i, j = piv
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            if s[t][t] < 0:
                negate_row(t)
            p = s[t][t]
            for i in range(t + 1, nr):
                q = s[i][t] // p
                if q:
                    add_row(t, i, -q)
            for j in range(t + 1, nc):
                q = s[t][j] // p
                if q:
                    add_col(t, j, -q)
            if any(s[i][t] for i in range(t + 1, nr)) \
                    or any(s[t][j] for j in range(t + 1, nc)):
                piv = select_pivot(t)
                continue
            break
        t += 1

    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for k in range(t - 1):
            a_, b_ = s[k][k], s[k + 1][k + 1]
            if b_ % a_ == 0:
                continue
            changed = True
            # fold entry b into position k via one column add, then re-clear
            add_col(k + 1, k, 1)
            while s[k + 1][k] != 0:
                # euclid on the 2x2 block (k,k),(k+1,k)
                q = s[k][k] // s[k + 1][k]
                if q:
                    add_row(k + 1, k, -q)
                swap_rows(k, k + 1)
            if s[k][k] < 0:
                negate_row(k)
            # row op may have refilled (k, k+1); clear it
            if s[k][k + 1]:
                q = s[k][k + 1] // s[k][k]
                add_col(k, k + 1, -q)
            if s[k + 1][k + 1] < 0:
                negate_row(k + 1)

    diag = [s[i][i] for i in range(min(nr, nc))]
    rank = sum(1 for d in diag if d != 0)
    diag = diag[:rank]
    return SmithForm(diag=diag, rank=rank, nrows=nr, ncols=nc,
                     Uinv=Ui, V=V, Vinv=Vi)
