"""Exact integer linear algebra: row reduction and Smith normal form.

Everything is Python ints, so everything is exact.  `row_reduce` cuts the
tall, sparse cocycle constraint systems (10^4 rows at order 24, at most 4
nonzeros each) to an echelon basis of their row lattice, at most one row
per column.  It takes the rows in input order against the pivots found so
far.  It drops each row that lies in their Z-span, which it tests against
a second, cleared copy of them kept up to date in place, and chases the
rest through them.  A row that meets a pivot which does not divide its
entry swaps with it by a unimodular 2x2 extended-gcd step, so the lattice
never changes.  Where no row swaps, the basis is the list of the bucket
loop that first defined this reduction (`tests/oracles.py`), list for
list.  Its rows are sparse, and its memory follows the fill, not rows x
columns.  `smith_normal_form` takes what is left as dense rows, thousands
of rows and columns at order 47 but under 1 % nonzero, and works on sparse
rows (dicts column -> value) with a column index (column -> set of rows),
so each row or column operation touches only the nonzeros of that row or
column.  Its transforms are sparse too.
"""

from collections import namedtuple
from itertools import compress


def row_reduce(rows, ncols, stats=None):
    """Row-echelon reduction over Z by unimodular row operations.

    rows are sparse: a sequence whose items are sequences of (column, value)
    pairs, in increasing column order with nonzero values; they are not
    modified.  Returns an echelon basis of the row lattice of the input:
    dense rows (lists of length ncols) with strictly increasing leading
    columns and positive leading entries.  The H^2 representatives follow
    this list, so its rows are part of the contract.

    The rows are taken in input order against two views of the pivots found
    so far: pivots[c], the pivot with leading column c, which is what is
    returned, and cleared[c], a basis of the same lattice in which each
    row is cleared at the other pivot columns wherever their pivot divides
    it.  A row that a chase through the cleared rows takes to zero lies in
    the lattice and is dropped.  Any other row is chased through pivots; at
    a column without one it becomes the pivot.

    At a column c whose pivot p does not divide the row's entry r_c, the
    row swaps with the pivot: with g = gcd(p_c, r_c) = a p_c + b r_c, the
    pivot becomes a p + b r, with entry g, and the chase goes on with
    (p_c/g) r - (r_c/g) p, which is zero at c.  The 2x2 matrix of this
    step has determinant 1, so the lattice is unchanged, and the pivot's
    entry at c falls to a proper divisor, so the swaps end.  At each column
    whose pivot the row changed, the new pivot replaces the cleared row;
    the other cleared rows lie in the grown lattice and keep its leading
    entries, so the view stays an echelon basis of it.

    Where no row swaps, the list is the bucket loop's (tests/oracles.py),
    list for list.  Each pivot is then the first row that reaches its
    column, as in the loop, and a dropped row meets at each column the loop
    takes it to a multiple of that column's pivot, so the loop takes it to
    zero without it becoming or changing a pivot.

    If stats is a dict, it receives 'pivots' (rows returned), 'dropped'
    (rows found in the lattice of earlier pivots) and 'swaps' (2x2 steps).
    """
    pivots, cleared = {}, {}
    index = [set() for _ in range(ncols)]
    dropped = swaps = 0
    for row in rows:
        if _chase(dict(row), cleared) is None:
            dropped += 1
            continue
        # outside the lattice, so r becomes a pivot or swaps with one
        r = dict(row)
        while True:
            col = _chase(r, pivots)
            if col not in pivots:
                break
            pivots[col], r = _gcd_step(pivots[col], r, col)
            _add_pivot(cleared, index, col, pivots[col])
            swaps += 1
        if col is not None:
            pivots[col] = r
            _add_pivot(cleared, index, col, r)
    out = [_dense(pivots[col], col, ncols) for col in sorted(pivots)]
    if stats is not None:
        stats.update(pivots=len(out), dropped=dropped, swaps=swaps)
    return out


def _chase(r, rows):
    """Reduce the sparse row r in place by the row of rows (a dict by
    leading column) at its leading column, while there is one and it
    divides r's entry.  Returns the column where r then leads, or None
    when r reaches zero.  Each row of rows is the only one leading at its
    column, so r reaches zero exactly when it lies in their Z-span."""
    while r:
        col = min(r)
        piv = rows.get(col)
        if piv is None or r[col] % piv[col]:
            return col
        _add(r, piv, -(r[col] // piv[col]))
    return None


def _gcd_step(p, r, col):
    """The unimodular 2x2 step on the sparse rows p and r at column col,
    where both lead: (a p + b r, (p_c/g) r - (r_c/g) p) for
    g = gcd(p_c, r_c) = a p_c + b r_c > 0."""
    x, y = p[col], r[col]
    g, a, b = x, 1, 0           # g = a x + b y throughout
    h, c, d = y, 0, 1
    while h:
        q = g // h
        g, a, b, h, c, d = h, c, d, g - q * h, a - q * c, b - q * d
    if g < 0:
        g, a, b = -g, -a, -b
    return _combine(a, p, b, r), _combine(x // g, r, -(y // g), p)


def _combine(a, p, b, r):
    """a p + b r on sparse rows, a new dict without zeros."""
    out = {}
    for j in p.keys() | r.keys():
        w = a * p.get(j, 0) + b * r.get(j, 0)
        if w:
            out[j] = w
    return out


def _dense(row, col, ncols):
    """The sparse row with leading column col as a dense list, its leading
    entry made positive."""
    sign = -1 if row[col] < 0 else 1
    dense = [0] * ncols
    for j, v in row.items():
        dense[j] = sign * v
    return dense


def _add_pivot(cleared, index, col, row):
    """Put the pivot row with leading column col into the cleared view in
    place of its row at col: clear it at the columns of the cleared rows,
    then clear column col from them, where the pivot divides the entry."""
    for j in cleared.pop(col, ()):
        index[j].discard(col)
    h = dict(row)
    for j in sorted(j for j in h if j in cleared):
        v = h.get(j)
        if v:
            q, rem = divmod(v, cleared[j][j])
            if not rem:
                _add(h, cleared[j], -q)
    p = h[col]
    for k in list(index[col]):
        hk = cleared[k]
        q, rem = divmod(hk[col], p)
        if not rem:
            _add_indexed(hk, k, h, -q, index)
    cleared[col] = h
    for j in h:
        index[j].add(col)


class SmithForm(namedtuple("SmithForm", "diag rank Uinv V Vinv")):
    """S = U @ A @ V with U, V unimodular; diag = invariant factors d1 | d2 | ...

    diag is a list of the rank nonzero factors; S has the shape of A, which
    the caller holds.  Each transform is sparse, a list of dicts that hold
    only nonzero entries, in the orientation its operations and its reader
    use: Uinv and V by columns (V[j] is column j as {row: value}), Vinv by
    rows (Vinv[i] is row i as {column: value}).  U itself is never formed.
    Only the transforms requested from smith_normal_form are populated; the
    rest are None.
    """

    __slots__ = ()


def _add(dst, src, q):
    """dst += q * src on sparse vectors, dropping the entries that cancel."""
    for k, v in src.items():
        w = dst.get(k, 0) + q * v
        if w:
            dst[k] = w
        else:
            del dst[k]


def _add_indexed(dst, i, src, q, index):
    """dst += q * src on sparse rows, where dst is row i of a matrix whose
    column index (column -> set of rows) is kept up to date."""
    for j, v in src.items():
        w = dst.get(j, 0) + q * v
        if w:
            dst[j] = w
            index[j].add(i)
        else:
            del dst[j]
            index[j].discard(i)


def smith_normal_form(a, want=()):
    """Smith normal form of an integer matrix with optional transforms.

    a is a dense list of rows.  want is a subset of {"Uinv", "V", "Vinv"}:
    with S = U A V, U acting on rows, these are V and the exact integer
    inverses of U and V, so A = Uinv S Vinv; see SmithForm for their sparse
    layout.

    The pivot at (t, t) is the least |entry| of the block of rows and
    columns >= t, the first in row-major order; the pivot row and column
    are cleared by floor-quotient operations, and the block is searched
    again until both are clear.  A last pass enforces d1 | d2 | ... on the
    diagonal.  The rows are dicts and index[j] is the set of rows nonzero
    in column j, so each operation costs the nonzeros it touches.
    """
    nr = len(a)
    nc = len(a[0]) if nr else 0
    s = [dict(compress(enumerate(row), row)) for row in a]
    index = [set() for _ in range(nc)]
    for i, row in enumerate(s):
        for j in row:
            index[j].add(i)

    Ui = [{j: 1} for j in range(nr)] if "Uinv" in want else None
    V = [{j: 1} for j in range(nc)] if "V" in want else None
    Vi = [{j: 1} for j in range(nc)] if "Vinv" in want else None

    def entry(i, j):
        return s[i].get(j, 0)

    def swap_rows(i, j):
        ri, rj = s[i], s[j]
        for k in ri:
            index[k].discard(i)
        for k in rj:
            index[k].discard(j)
        for k in ri:
            index[k].add(j)
        for k in rj:
            index[k].add(i)
        s[i], s[j] = rj, ri
        if Ui is not None:  # columns of Uinv
            Ui[i], Ui[j] = Ui[j], Ui[i]

    def swap_cols(i, j):
        for r in index[i] | index[j]:
            row = s[r]
            vi, vj = row.pop(i, 0), row.pop(j, 0)
            if vj:
                row[i] = vj
            if vi:
                row[j] = vi
        index[i], index[j] = index[j], index[i]
        if V is not None:
            V[i], V[j] = V[j], V[i]
        if Vi is not None:
            Vi[i], Vi[j] = Vi[j], Vi[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        _add_indexed(s[dst], dst, s[src], q, index)
        if Ui is not None:  # Uinv: col src -= q * col dst
            _add(Ui[src], Ui[dst], -q)

    def add_col(src, dst, q):
        # col dst += q * col src
        rows = index[dst]
        for i in index[src]:
            row = s[i]
            w = row.get(dst, 0) + q * row[src]
            if w:
                row[dst] = w
                rows.add(i)
            else:
                del row[dst]
                rows.discard(i)
        if V is not None:
            _add(V[dst], V[src], q)
        if Vi is not None:  # Vinv: row src -= q * row dst
            _add(Vi[src], Vi[dst], -q)

    def negate_row(i):
        s[i] = {j: -v for j, v in s[i].items()}
        if Ui is not None:
            Ui[i] = {j: -v for j, v in Ui[i].items()}

    def select_pivot(t):
        # rows >= t are zero left of column t, so their entries are the block
        best = piv = None
        for i in range(t, nr):
            row = s[i]
            if not row:
                continue
            least = min(map(abs, row.values()))
            if best is None or least < best:
                best = least
                piv = (i, min(j for j, v in row.items() if abs(v) == least))
                if best == 1:
                    break
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
            for i in sorted(index[t]):
                if i > t:
                    q = s[i][t] // p
                    if q:
                        add_row(t, i, -q)
            row = s[t]
            for j in sorted(row):
                if j > t:
                    q = row[j] // p
                    if q:
                        add_col(t, j, -q)
            if len(index[t]) > 1 or len(row) > 1:
                piv = select_pivot(t)
                continue
            break
        t += 1

    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for k in range(t - 1):
            a_, b_ = entry(k, k), entry(k + 1, k + 1)
            if b_ % a_ == 0:
                continue
            changed = True
            # fold entry b into position k via one column add, then re-clear
            add_col(k + 1, k, 1)
            while entry(k + 1, k) != 0:
                # euclid on the 2x2 block (k,k),(k+1,k)
                q = entry(k, k) // entry(k + 1, k)
                if q:
                    add_row(k + 1, k, -q)
                swap_rows(k, k + 1)
            if entry(k, k) < 0:
                negate_row(k)
            # row op may have refilled (k, k+1); clear it
            if entry(k, k + 1):
                q = entry(k, k + 1) // entry(k, k)
                add_col(k, k + 1, -q)
            if entry(k + 1, k + 1) < 0:
                negate_row(k + 1)

    diag = [entry(i, i) for i in range(min(nr, nc))]
    rank = sum(1 for d in diag if d != 0)
    diag = diag[:rank]
    return SmithForm(diag=diag, rank=rank, Uinv=Ui, V=V, Vinv=Vi)
