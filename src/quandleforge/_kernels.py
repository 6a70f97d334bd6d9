"""Hot kernels: braid coloring enumeration and coset enumeration.

Each kernel has one implementation.  Coloring enumeration is vectorized
with numpy over blocks of top assignments; colorings come back in
lexicographic top-tuple order, each with its bottom colors and source pairs
from the one move loop, _propagate.  Coset enumeration is textbook HLT with
deductions, in plain Python (inherently sequential).
"""

import numpy as np

_BLOCK = 1 << 18


def _tables(table, n):
    """The flat table as an array, and its inverse translations: inv[c*n+d]
    is the unique x with x*c = d."""
    tab = np.asarray(table, dtype=np.int64)
    inv = np.empty(n * n, dtype=np.int64)
    inv[np.tile(np.arange(n), n) * n + tab] = np.repeat(np.arange(n), n)
    return tab, inv


def _propagate(tab, inv, n, state, word, pairs=None):
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


def braid_closure_colorings(table, n, strands, word, relax_first=False):
    """The colorings of the braid closure, in lexicographic top-tuple order.

    table: flat row-major n*n quandle table (a*b at index a*n+b).
    word: signed 1-based braid generators.
    Each coloring is (top, bottom, source_pairs), with one (x, y, sign) per
    crossing in word order; see _propagate for the rules.  The closure
    constraint bottom == top is checked at every position, or at positions
    1.. when relax_first is set (the 1-tangle case).  Each block of top
    tuples is filtered by one pass of the moves; a second pass over the
    closing rows alone records their source pairs.
    """
    tab, inv = _tables(table, n)
    signs = [1 if g > 0 else -1 for g in word]
    total = n ** strands
    out = []
    start_col = 1 if relax_first else 0

    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        tops = np.empty((hi - lo, strands), dtype=np.int64)
        for j in range(strands):
            tops[:, j] = (idx // n ** (strands - 1 - j)) % n
        # one name for both passes, so the first pass's array is freed
        # before the next block allocates its own
        bottoms = _propagate(tab, inv, n, tops.copy(), word)
        tops = tops[np.all(bottoms[:, start_col:] == tops[:, start_col:],
                           axis=1)]
        pairs = np.empty((len(tops), len(word), 2), dtype=np.int64)
        bottoms = _propagate(tab, inv, n, tops.copy(), word, pairs)
        for top, bottom, src in zip(tops.tolist(), bottoms.tolist(),
                                    pairs.tolist()):
            out.append((tuple(top), tuple(bottom),
                        tuple((x, y, s) for (x, y), s in zip(src, signs))))
    return out


class _CapReached(Exception):
    pass


def coset_enumeration(ngens, relators, max_cosets, stats=None):
    """HLT coset enumeration of a presentation over the trivial subgroup.

    relators are words over column indices 0..2*ngens-1 (2i = generator i,
    2i+1 = its inverse).  This is HLT as in Holt-Eick-O'Brien, Handbook of
    Computational Group Theory, 5.1-5.2: every live coset, in order, has
    each relator scanned from both ends (SCANANDFILL); a scan with a single
    gap deduces that entry instead of defining a coset, and every definition
    or deduction fills the inverse entry too.  Coincidences are processed
    through a queue with the smaller coset kept as representative
    (COINCIDENCE), so the numbering is deterministic.

    Returns (True, table) on completion, where table[c] lists the 2*ngens
    neighbors of live coset c after renumbering, or (False, allocated) at
    the definition that would allocate coset max_cosets + 1, so allocated
    is then max_cosets + 1.  If stats is a dict, it receives 'allocated'
    (cosets ever allocated) and 'live' (live cosets at the end or abort).
    """
    width = 2 * ngens
    rels = [tuple(r) for r in relators]
    table = [[-1] * width]
    parent = [0]
    live = 1

    def find(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(c, x):
        nonlocal live
        new = len(table)
        if new >= max_cosets:
            raise _CapReached
        row = [-1] * width
        row[x ^ 1] = c
        table.append(row)
        parent.append(new)
        table[c][x] = new
        live += 1

    def coincidence(a, b):
        nonlocal live
        queue = []

        def merge(k, m):
            k, m = find(k), find(m)
            if k != m:
                if m < k:
                    k, m = m, k
                parent[m] = k
                queue.append(m)

        merge(a, b)
        for dead in queue:          # merge appends while this runs
            row = table[dead]
            for x in range(width):
                d = row[x]
                if d < 0:
                    continue
                xi = x ^ 1
                table[d][xi] = -1
                mu, nu = find(dead), find(d)
                if table[mu][x] >= 0:
                    merge(nu, table[mu][x])
                elif table[nu][xi] >= 0:
                    merge(mu, table[nu][xi])
                else:
                    table[mu][x] = nu
                    table[nu][xi] = mu
        live -= len(queue)

    def scan_and_fill(alpha, w):
        f, i = alpha, 0
        b, j = alpha, len(w) - 1
        while True:
            row = table[f]
            while i <= j and row[w[i]] >= 0:
                f = row[w[i]]
                row = table[f]
                i += 1
            if i > j:
                if f != alpha:
                    coincidence(f, alpha)
                return
            row = table[b]
            while j >= i and row[w[j] ^ 1] >= 0:
                b = row[w[j] ^ 1]
                row = table[b]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                x = w[i]
                table[f][x] = b
                table[b][x ^ 1] = f
                return
            define(f, w[i])

    alpha = 0
    try:
        while alpha < len(table):
            for w in rels:
                if parent[alpha] != alpha:
                    break
                scan_and_fill(alpha, w)
            if parent[alpha] == alpha:
                row = table[alpha]
                for x in range(width):
                    if row[x] < 0:
                        define(alpha, x)
            alpha += 1
    except _CapReached:
        allocated = max_cosets + 1
    else:
        allocated = len(table)
    if stats is not None:
        stats["allocated"] = allocated
        stats["live"] = live
    if allocated > max_cosets:
        return False, allocated

    alive = [c for c in range(len(table)) if parent[c] == c]
    renum = {c: i for i, c in enumerate(alive)}
    return True, [[renum[d] for d in table[c]] for c in alive]
