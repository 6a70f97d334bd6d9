"""Independent oracles.

Everything here is deliberately written from scratch against the definitions,
sharing no code with the package's engines: coloring counts come from a
row-by-row grid walk (negative crossings resolved by scanning for the unique
preimage, not by precomputed inverses), coloring lists from a numpy scan of
every top tuple through the braid moves, dihedral counts from mod-p linear
algebra, cocycle constraint rows from the package's first dense builder,
integer row reduction from the package's first elimination loop and from
its bucket loop, Smith normal forms from the package's dense lists-of-lists
version,
quandle and group axiom verdicts from the package's first numpy checks,
dihedral and trivial tables from their own formulas, permutation orders
from repeated composition, cocycle/coboundary counts and coboundary sets
from exhaustive enumeration, matrix products from the textbook triple sum,
group closures from repeated multiply-everything passes, the finite
enveloping group's relators from its definition, one generator per element,
and presented-group orders from word rewriting or from a define-only coset
enumerator.

numpy is imported only inside the oracles that use it, so a caller that
loads this file for a pure-Python oracle, such as grid_coloring_count,
does not load numpy.
"""

from collections import namedtuple
from itertools import product
from operator import itemgetter


def grid_coloring_count(table, strands, word, tangle=False):
    """Count colorings by walking the braid grid row by row.

    table is a quandle table (a sequence of rows).  At a positive letter
    the pair (a, b) becomes (b, a*b); at a negative letter (c, d) becomes
    (q, c) for the unique q with q*c == d, found by scanning all candidates.
    Closure requires bottom == top everywhere (or away from position 0 for
    tangles).
    """
    n = len(table)
    count = 0
    for top in product(range(n), repeat=strands):
        row = list(top)
        ok = True
        for g in word:
            p = abs(g) - 1
            a, b = row[p], row[p + 1]
            if g > 0:
                row[p], row[p + 1] = b, table[a][b]
            else:
                matches = [q for q in range(n) if table[q][a] == b]
                if len(matches) != 1:
                    ok = False
                    break
                row[p], row[p + 1] = matches[0], a
        if not ok:
            continue
        start = 1 if tangle else 0
        if all(row[j] == top[j] for j in range(start, strands)):
            count += 1
    return count


def move_tables(table, n):
    """A flat row-major n*n table as an array, and its inverse translations:
    inv[c*n+d] is the unique x with x*c = d."""
    import numpy as np

    tab = np.asarray(table, dtype=np.int64)
    inv = np.empty(n * n, dtype=np.int64)
    inv[np.tile(np.arange(n), n) * n + tab] = np.repeat(np.arange(n), n)
    return tab, inv


def propagate_moves(tab, inv, n, state, word, pairs=None):
    """Push each row of state (colors at the top) through the braid word, in
    place, and return it.  At a positive letter incoming (a, b) becomes
    (b, a*b); at a negative letter incoming (c, d) becomes (Rc^-1(d), c).
    If pairs is an array of shape (rows, len(word), 2), it receives the
    source pair of each crossing: the incoming pair at a positive letter,
    the outgoing pair at a negative one."""
    for i, g in enumerate(word):
        p = abs(g) - 1
        if pairs is not None and g > 0:
            pairs[:, i] = state[:, p:p + 2]
        ab = state[:, p] * n + state[:, p + 1]
        if g > 0:
            state[:, p] = state[:, p + 1]
            state[:, p + 1] = tab[ab]
        else:
            state[:, p + 1] = state[:, p]
            state[:, p] = inv[ab]
        if pairs is not None and g < 0:
            pairs[:, i] = state[:, p:p + 2]
    return state


def scan_colorings(table, n, strands, word, relax_first=False,
                   block=1 << 18):
    """The colorings of the braid closure by scanning all n^strands top
    tuples, in lexicographic order, through the moves, block rows at a time.

    table is flat row-major (a*b at index a*n+b).  Each coloring is (top,
    bottom, source_pairs), one (x, y, sign) per crossing in word order.
    bottom == top must hold at every position, or at positions 1.. when
    relax_first is set (the 1-tangle).
    """
    import numpy as np

    tab, inv = move_tables(table, n)
    signs = [1 if g > 0 else -1 for g in word]
    total = n ** strands
    start = 1 if relax_first else 0
    out = []
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        tops = np.empty((hi - lo, strands), dtype=np.int64)
        for j in range(strands):
            tops[:, j] = (idx // n ** (strands - 1 - j)) % n
        bottoms = propagate_moves(tab, inv, n, tops.copy(), word)
        tops = tops[np.all(bottoms[:, start:] == tops[:, start:], axis=1)]
        pairs = np.empty((len(tops), len(word), 2), dtype=np.int64)
        bottoms = propagate_moves(tab, inv, n, tops.copy(), word, pairs)
        for top, bottom, src in zip(tops.tolist(), bottoms.tolist(),
                                    pairs.tolist()):
            out.append((tuple(top), tuple(bottom),
                        tuple((x, y, s) for (x, y), s in zip(src, signs))))
    return out


def dihedral_linear_count(p, strands, word):
    """Colorings of the closure over the dihedral quandle of odd prime order
    p, via the linear propagation matrices: count = p^dim ker(M - I)."""
    import numpy as np

    m = np.eye(strands, dtype=np.int64)
    for g in word:
        i = abs(g) - 1
        s = np.eye(strands, dtype=np.int64)
        if g > 0:
            s[i, :] = 0
            s[i, i + 1] = 1
            s[i + 1, :] = 0
            s[i + 1, i] = -1
            s[i + 1, i + 1] = 2
        else:
            s[i, :] = 0
            s[i, i] = 2
            s[i, i + 1] = -1
            s[i + 1, :] = 0
            s[i + 1, i] = 1
        m = (s @ m) % p
    a = (m - np.eye(strands, dtype=np.int64)) % p
    return p ** (strands - _rank_mod_p(a, p))


def _rank_mod_p(a, p):
    a = a.copy() % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        piv = next((rr for rr in range(r, rows) if a[rr, c] % p), None)
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        for rr in range(rows):
            if rr != r and a[rr, c] % p:
                a[rr] = (a[rr] - a[rr, c] * a[r]) % p
        r += 1
    return r


def brute_cocycle_count(table, m):
    """Exhaustively count diagonal-zero 2-cocycles mod m by evaluating the
    identity on every function; vectorized over the m^(n^2-n) functions via
    mixed-radix digit arrays."""
    import numpy as np

    n = len(table)
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    npairs = len(pairs)
    pidx = {pr: i for i, pr in enumerate(pairs)}
    total = m ** npairs
    idx = np.arange(total, dtype=np.int64)
    digits = [(idx // m ** k) % m for k in range(npairs)]

    def val(x, y):
        if x == y:
            return 0
        return digits[pidx[(x, y)]]

    good = np.ones(total, dtype=bool)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                expr = (val(x, y) - val(x, z) + val(table[x][y], z)
                        - val(table[x][z], table[y][z]))
                if isinstance(expr, int):
                    if expr % m:
                        return 0
                    continue
                good &= (expr % m) == 0
    return int(good.sum())


def brute_coboundaries(table, m):
    """The set of coboundary tables (tuples of row tuples), enumerated over
    all 1-cochains."""
    n = len(table)
    seen = set()
    for gamma in product(range(m), repeat=n):
        seen.add(tuple(tuple((gamma[x] - gamma[table[x][y]]) % m
                             for y in range(n)) for x in range(n)))
    return seen


def brute_coboundary_count(table, m):
    """Number of distinct coboundary tables."""
    return len(brute_coboundaries(table, m))


def mat_mul(a, b):
    """The integer matrix product a . b of lists of rows."""
    cb = len(b[0]) if b else 0
    return [[sum(ai[k] * b[k][j] for k in range(len(b))) for j in range(cb)]
            for ai in a]


def reference_constraint_rows(table):
    """The package's first, dense builder of the cocycle constraint rows,
    kept as the reference for the sparse one.  Columns are the pairs (a, b)
    with a != b in lexicographic order.  Each (x, y, z) with x != y and
    y != z gives the row of phi(x,y) - phi(x,z) + phi(x*y,z) -
    phi(x*z,y*z), with diagonal terms dropped; zero rows are skipped, and
    rows are kept up to sign, first occurrence first, with first nonzero
    entry positive."""
    n = len(table)
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    pidx = {p: i for i, p in enumerate(pairs)}
    seen = set()
    rows = []
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            xy = table[x][y]
            for z in range(n):
                if y == z:
                    continue
                row = [0] * len(pairs)
                row[pidx[(x, y)]] += 1
                if x != z:
                    row[pidx[(x, z)]] -= 1
                if xy != z:
                    row[pidx[(xy, z)]] += 1
                xz, yz = table[x][z], table[y][z]
                if xz != yz:
                    row[pidx[(xz, yz)]] -= 1
                if not any(row):
                    continue
                for v in row:
                    if v:
                        key = tuple(row) if v > 0 else tuple(-u for u in row)
                        break
                if key not in seen:
                    seen.add(key)
                    rows.append(list(key))
    return rows


def reference_row_reduce(rows, ncols):
    """The package's first row_reduce, kept as the reference its loop must
    match list for list: the same gcd-style row operations, but zero rows
    are filtered out after every column and the inner loop tracks a done
    flag.  Returns the reduced rows, leading entries positive."""
    rows = [list(r) for r in rows if any(r)]
    out = []
    col = 0
    while col < ncols and rows:
        live = [r for r in rows if r[col] != 0]
        if not live:
            rows = [r for r in rows if any(r[col + 1:])]
            col += 1
            continue
        # repeatedly reduce by the row with the smallest pivot until one remains
        while True:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            done = True
            for r in live[1:]:
                q = r[col] // piv[col]
                if q:
                    for j in range(col, ncols):
                        r[j] -= q * piv[j]
                if r[col]:
                    done = False
            live = [piv] + [r for r in live[1:] if r[col] != 0]
            if done or len(live) == 1:
                break
        piv = live[0]
        if piv[col] < 0:
            for j in range(col, ncols):
                piv[j] = -piv[j]
        out.append(piv)
        rest = [r for r in rows if r is not piv and r[col] == 0] + live[1:]
        rows = [r for r in rest if any(r[col:])]
        col += 1
    return out


def bucket_reduce(rows, ncols):
    """The package's bucket loop, which defined row_reduce's output before
    the extended-gcd steps, kept as the reference that row_reduce must
    match list for list wherever no row swaps.  rows are sparse (column,
    value) pairs; returns the reduced dense rows, leading entries positive.

    Each row waits in the bucket of its leading column.  At a column, the
    rows of its bucket are taken in input order and reduced by the one with
    the smallest entry there until only that pivot is left; each row that
    drops out moves to the bucket of its new leading column, or is dropped
    when it reaches zero.
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


def identity(k):
    """The k x k integer identity matrix as a list of rows."""
    return [[int(i == j) for j in range(k)] for i in range(k)]


ReferenceSmithForm = namedtuple("ReferenceSmithForm",
                                "diag rank nrows ncols Uinv V Vinv")


def reference_smith_normal_form(a, want=()):
    """The package's dense Smith normal form, kept as the reference that the
    sparse one must match operation for operation: the same pivots, row and
    column operations and divisibility fix-up on lists of lists.  Returns
    diag, rank and the transforms of want (a subset of {"Uinv", "V",
    "Vinv"}, A = Uinv S Vinv with S = U A V) as dense lists of rows; the
    others are None."""
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
            add_col(k + 1, k, 1)
            while s[k + 1][k] != 0:
                q = s[k][k] // s[k + 1][k]
                if q:
                    add_row(k + 1, k, -q)
                swap_rows(k, k + 1)
            if s[k][k] < 0:
                negate_row(k)
            if s[k][k + 1]:
                q = s[k][k + 1] // s[k][k]
                add_col(k, k + 1, -q)
            if s[k + 1][k + 1] < 0:
                negate_row(k + 1)

    diag = [s[i][i] for i in range(min(nr, nc))]
    rank = sum(1 for d in diag if d != 0)
    return ReferenceSmithForm(diag=diag[:rank], rank=rank, nrows=nr, ncols=nc,
                              Uinv=Ui, V=V, Vinv=Vi)


def quandle_axiom_failure(table):
    """The package's first, numpy check of the quandle axioms on an n x n
    table with entries in 0..n-1: (kind, witness) for the first axiom that
    fails, in the order idempotency (the least a), invertibility (the least
    column), distributivity (the first triple (a, b, c) of np.argwhere, so
    the lexicographically least), or None for a quandle.  It holds two
    n^3 arrays at once."""
    import numpy as np

    t = np.asarray(table, dtype=np.int64)
    n = len(t)
    bad = np.nonzero(np.diagonal(t) != np.arange(n))[0]
    if bad.size:
        return "idempotency", int(bad[0])
    for b in range(n):
        if len(set(t[:, b].tolist())) != n:
            return "invertibility", b
    left = t[t, :]                      # left[a,b,c] = t[t[a,b], c]
    right = t[t[:, None, :], t[None, :, :]]
    if not np.array_equal(left, right):
        return "distributivity", tuple(
            int(v) for v in np.argwhere(left != right)[0])
    return None


def group_axiom_failure(table):
    """The package's first, numpy check of a k x k multiplication table with
    entries in 0..k-1: ('associativity', the first (a, b, c) with
    (ab)c != a(bc)), ('identity', None), ('inverse', the least element
    without one), checked in that order, or None for a group."""
    import numpy as np

    m = np.asarray(table, dtype=np.int64)
    k = len(m)
    left = m[m, :]                      # left[a,b,c] = m[m[a,b], c]
    right = m[:, m]                     # right[a,b,c] = m[a, m[b,c]]
    if not np.array_equal(left, right):
        return "associativity", tuple(
            int(v) for v in np.argwhere(left != right)[0])
    ident = next((e for e in range(k)
                  if all(m[e][a] == a and m[a][e] == a for a in range(k))),
                 None)
    if ident is None:
        return "identity", None
    for a in range(k):
        if not any(m[a][b] == ident and m[b][a] == ident for b in range(k)):
            return "inverse", a
    return None


def dihedral_table(n):
    """The package's first dihedral constructor: a*b = 2b - a mod n."""
    return tuple(tuple((2 * b - a) % n for b in range(n)) for a in range(n))


def trivial_table(n):
    """The package's first trivial constructor: a*b = a."""
    return tuple((a,) * n for a in range(n))


def composition_order(images):
    """The package's first permutation order: compose the permutation with
    itself until the identity comes back, counting the factors."""
    k, cur, ident = 1, tuple(images), tuple(range(len(images)))
    while cur != ident:
        cur = tuple(images[i] for i in cur)
        k += 1
    return k


def enveloping_relators(table):
    """The relators of the finite enveloping group of the quandle with this
    table, one generator per element: the conjugation relators
    x_j^-1 x_i x_j x_{i*j}^-1 for every (i, j), i-major, then the powers
    x_i^{n_i}, n_i the composition order of the right translation by i.
    Words are tuples of signed 1-based generator indices."""
    n = len(table)
    rels = [(-(j + 1), i + 1, j + 1, -(table[i][j] + 1))
            for i in range(n) for j in range(n)]
    for i in range(n):
        rels.append((i + 1,) * composition_order([row[i] for row in table]))
    return tuple(rels)


def naive_closure(generators):
    """Group closure by repeated multiply-everything-by-everything passes.
    Generators and elements are image tuples; composition applies the left
    factor first."""
    elems = set(generators)
    n = len(next(iter(generators)))
    elems.add(tuple(range(n)))
    while True:
        new = set()
        for a in elems:
            for b in elems:
                c = tuple(b[i] for i in a)
                if c not in elems:
                    new.add(c)
        if not new:
            return elems
        elems |= new


def coxeter_s3_order(max_len=12):
    """Order of <a, b | a^2, b^2, (ab)^3> by rewriting all words up to the
    given length to normal form with the terminating system
    aa -> , bb -> , bab -> aba."""
    def normalize(w):
        while True:
            for pat, rep in (("aa", ""), ("bb", ""), ("bab", "aba")):
                i = w.find(pat)
                if i >= 0:
                    w = w[:i] + rep + w[i + len(pat):]
                    break
            else:
                return w

    forms = set()
    frontier = [""]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for c in "ab":
                nf = normalize(w + c)
                if nf not in forms:
                    forms.add(nf)
                    nxt.append(nf)
        frontier = nxt
    forms.add("")
    return len(forms)


def define_only_coset_enumeration(ngens, relators, max_cosets):
    """Define-only HLT coset enumeration over the trivial subgroup.

    Every relator is traced forward from every live coset, defining a new
    coset at each undefined entry; there is no backward scan, no deduction
    and no inverse entry, so it allocates far more cosets than the package
    kernel, but it is simple enough to trust.

    relators are words over column indices 0..2*ngens-1 (2i = generator i,
    2i+1 = its inverse); inverse-cancellation relators are added here.  New
    cosets are numbered in discovery order and coincidences are merged with
    union-find, so the output is deterministic.

    Returns (True, table) on completion, where table[c] lists the 2*ngens
    neighbors of live coset c after renumbering, or (False, allocated) once
    more than max_cosets cosets have been allocated (checked only after each
    whole relator trace).
    """
    width = 2 * ngens
    rels = []
    for i in range(ngens):
        rels.append((2 * i, 2 * i + 1))
        rels.append((2 * i + 1, 2 * i))
    rels.extend(tuple(r) for r in relators)

    parent = [0]
    nbr = [[-1] * width]

    def find(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def follow(c, d):
        c = find(c)
        row = nbr[c]
        if row[d] < 0:
            new = len(parent)
            parent.append(new)
            nbr.append([-1] * width)
            row[d] = new
            return new
        return find(row[d])

    def unify(a, b):
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            ra, rb = nbr[a], nbr[b]
            for d in range(width):
                if ra[d] < 0:
                    ra[d] = rb[d]
                elif rb[d] >= 0:
                    stack.append((ra[d], rb[d]))

    visit = 0
    while visit < len(parent):
        if find(visit) == visit:
            for rel in rels:
                cur = visit
                for d in rel:
                    cur = follow(cur, d)
                unify(cur, visit)
                if len(parent) > max_cosets:
                    return False, len(parent)
                if find(visit) != visit:
                    break
        visit += 1

    live = [c for c in range(len(parent)) if find(c) == c]
    renum = {c: i for i, c in enumerate(live)}
    table = [[renum[find(nbr[c][d])] for d in range(width)] for c in live]
    return True, table


def all_quandle_tables(n):
    """Every labeled quandle table of order n, by filtering all column
    choices (each column is a permutation fixing its own index) through the
    distributivity axiom.  Practical for n <= 4."""
    from itertools import permutations as perms

    cols = []
    for b in range(n):
        opts = [p for p in perms(range(n)) if p[b] == b]
        cols.append(opts)
    out = []
    for choice in product(*cols):
        table = [[choice[b][a] for b in range(n)] for a in range(n)]
        if _distributive(table, n):
            out.append(table)
    return out


def _distributive(t, n):
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[t[a][c]][t[b][c]]:
                    return False
    return True


def quandles_up_to_iso(n):
    """Representatives of the labeled tables under relabeling."""
    from itertools import permutations as perms

    reps = {}
    for table in all_quandle_tables(n):
        best = None
        for sigma in perms(range(n)):
            inv = [0] * n
            for i, v in enumerate(sigma):
                inv[v] = i
            key = tuple(sigma[table[inv[a]][inv[b]]]
                        for a in range(n) for b in range(n))
            if best is None or key < best:
                best = key
        if best not in reps:
            reps[best] = table
    return list(reps.values())
