"""Hot kernels: braid coloring enumeration and coset enumeration.

Each kernel has one implementation, in plain Python.

Colorings are solved from a propagation plan, not by scanning every top
tuple.  Every top arc and every crossing output is a variable, each crossing
is one relation X * O = Y, and the closure merges each bottom variable with
its top (union-find), leaving classes of arcs.  A coloring is fixed by a few
seed classes: X, O give Y through the table, O, Y give X through the inverse
translation.  The seeds are chosen greedily, each time the class whose
closure fixes the most others, once from the top-arc classes alone (at most
s seeds, so never more candidates than the n^s top tuples) and once from all
classes; the run with fewer seeds k wins.  The plan is built by level, one
per seed: the seed, the steps its closure takes, and the checks, crossings
not used to propagate whose three classes are first all known there.

The seeds are assigned depth first, in level order.  Once seed j has a
value, its steps run, then its checks, so a failed check prunes the whole
subtree below it.

The first seed runs over orbit representatives only.  A right translation
R_a is a quandle automorphism, so applied to every arc it maps a coloring to
a coloring, of a closure or of a tangle alike.  Along the spanning forest of
core.orbit_forest, each orbit member v = y*a is reached from y, and
g_v = R_a g_y, with g_r the identity at the root r: then g_v is a bijection
from the colorings whose first seed is r onto those whose first seed is v.
So the search visits at most r * n^(k-1) seed tuples for r orbits instead
of n^k, and carries each coloring it finds to the whole orbit of its first
seed.  The list is exact and comes back in lexicographic top-tuple order.

Coset enumeration is textbook HLT with deductions (inherently sequential).
"""

from collections import namedtuple

from .errors import EnumerationTooLarge


# classes: number of arc classes; levels: one (seed, steps, checks) per
# seed, in digit order, where steps are the (x, o, y, forward) relations that
# fix y (forward) or x once the seed is known, and checks the (x, o, y)
# relations left to test whose classes are first all known there; top,
# bottom: class per position; pairs: (x, o) classes per crossing, its source
# pair.
_Plan = namedtuple("_Plan", "classes levels top bottom pairs")


def _closure(known, rels):
    """Grow the set of known classes by the relations x * o = y until no
    relation fixes another; return it and the (index, forward) steps."""
    known = set(known)
    steps = []
    grown = True
    while grown:
        grown = False
        for i, (x, o, y) in enumerate(rels):
            if o not in known or (x in known) == (y in known):
                continue
            forward = x in known
            known.add(y if forward else x)
            steps.append((i, forward))
            grown = True
    return known, steps


def _greedy(rels, classes, pool):
    """The levels of seeds from pool, each the one whose closure fixes the
    most classes (the first in pool on ties), until every class is fixed."""
    known, levels, done = set(), [], set()
    while len(known) < classes:
        best = max((c for c in pool if c not in known),
                   key=lambda c: len(_closure(known | {c}, rels)[0]))
        known, steps = _closure(known | {best}, rels)
        done.update(i for i, _ in steps)
        checks = [i for i, r in enumerate(rels)
                  if i not in done and known.issuperset(r)]
        done.update(checks)
        levels.append((best, [rels[i] + (forward,) for i, forward in steps],
                       [rels[i] for i in checks]))
    return levels


def _plan(strands, word, relax_first):
    """The propagation plan of the braid closure; see the module docstring.
    A positive letter on (a, b) outputs (b, a*b), the relation a * b = new;
    a negative letter on (c, d) outputs (Rc^-1(d), c), the relation
    new * c = d.  The source pair of a crossing is its (X, O)."""
    parent = list(range(strands + len(word)))

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    state = list(range(strands))
    rels = []
    for i, g in enumerate(word):
        p = abs(g) - 1
        a, b = state[p], state[p + 1]
        new = strands + i
        if g > 0:
            rels.append((a, b, new))
            state[p], state[p + 1] = b, new
        else:
            rels.append((new, a, b))
            state[p], state[p + 1] = new, a
    for j in range(1 if relax_first else 0, strands):
        parent[find(state[j])] = find(j)

    ids = {}
    cls = [ids.setdefault(find(v), len(ids)) for v in range(len(parent))]
    rels = [tuple(cls[v] for v in r) for r in rels]
    top = cls[:strands]
    runs = [_greedy(rels, len(ids), pool)
            for pool in (sorted(set(top)), range(len(ids)))]
    return _Plan(classes=len(ids), levels=min(runs, key=len), top=top,
                 bottom=[cls[v] for v in state],
                 pairs=[(x, o) for x, o, _ in rels])


def braid_closure_colorings(table, n, strands, word, forest,
                            relax_first=False, cap=None, stats=None):
    """The colorings of the braid closure, in lexicographic top-tuple order.

    table: the n rows of the quandle table (a*b is table[a][b]).
    word: signed 1-based braid generators.
    forest: core.orbit_forest of the quandle, (orbits, edges).
    Each coloring is (top, bottom, source_pairs), with one (x, y, sign) per
    crossing in word order; see _plan for the rules.  The closure
    constraint bottom == top holds at every position, or at positions 1..
    when relax_first is set (the 1-tangle case).  When cap is given and the
    plan's n^k seed tuples exceed it, EnumerationTooLarge is raised before
    any is evaluated.  If stats is a dict, it receives 'seeds' (k), 'orbits'
    (r) and 'candidates' (complete seed tuples evaluated, at most
    r * n^(k-1)).
    """
    plan = _plan(strands, word, relax_first)
    k = len(plan.levels)
    total = n ** k
    if cap is not None and total > cap:
        raise EnumerationTooLarge(n, strands, k, total, cap)
    orbits, edges = forest
    inv = [[0] * n for _ in range(n)]
    for x, row in enumerate(table):
        for o, y in enumerate(row):
            inv[o][y] = x
    cols = list(zip(*table))                # cols[a][x] = x*a
    root = {v: orbit[0] for orbit in orbits for v in orbit}
    paths = {orbit[0]: [] for orbit in orbits}
    for y, a in edges:
        paths[root[y]].append((y, a, table[y][a]))
    # a step (target, lookup, a, b) is vals[target] = lookup[vals[a]][vals[b]]
    levels = [(seed, [(y, table, x, o) if forward else (x, inv, o, y)
                      for x, o, y, forward in steps], checks)
              for seed, steps, checks in plan.levels]
    roots = list(paths)
    first = plan.levels[0][0]
    vals = [0] * plan.classes
    found = []
    candidates = 0

    def search(j):
        nonlocal candidates
        seed, steps, checks = levels[j]
        domain = roots if j == 0 else range(n)
        last = j + 1 == k
        if last:
            candidates += len(domain)
        for v in domain:
            vals[seed] = v
            for t, lookup, a, b in steps:
                vals[t] = lookup[vals[a]][vals[b]]
            for x, o, y in checks:
                if table[vals[x]][vals[o]] != vals[y]:
                    break
            else:
                if not last:
                    search(j + 1)
                    continue
                # g_z = R_a g_y carries this coloring to the one whose
                # first seed is z, for each z = y*a of the first seed's orbit
                image = {vals[first]: vals[:]}
                for y, a, z in paths[vals[first]]:
                    image[z] = list(map(cols[a].__getitem__, image[y]))
                found.extend(image.values())

    search(0)
    if stats is not None:
        stats.update(seeds=k, orbits=len(orbits), candidates=candidates)
    signs = [1 if g > 0 else -1 for g in word]
    xs = [x for x, _ in plan.pairs]
    ops = [o for _, o in plan.pairs]
    out = []
    for c in found:
        get = c.__getitem__
        out.append((tuple(map(get, plan.top)), tuple(map(get, plan.bottom)),
                    tuple(zip(map(get, xs), map(get, ops), signs))))
    out.sort(key=lambda col: col[0])
    return out


class _CapReached(Exception):
    pass


def coset_enumeration(ngens, relators, max_cosets, stats=None,
                      subgroup=()):
    """HLT coset enumeration of a presentation over the subgroup that the
    words of subgroup generate (the trivial subgroup when there are none).

    relators and subgroup words are over column indices 0..2*ngens-1
    (2i = generator i, 2i+1 = its inverse).  This is HLT as in
    Holt-Eick-O'Brien, Handbook of Computational Group Theory, 5.1-5.2: each
    subgroup word is scanned at coset 0, the subgroup's own coset, first;
    then every live coset, in order, has each relator scanned from both ends
    (SCANANDFILL); a scan with a single gap deduces that entry instead of
    defining a coset, and every definition or deduction fills the inverse
    entry too.  Coincidences are processed through a queue with the smaller
    coset kept as representative (COINCIDENCE), so the numbering is
    deterministic and coset 0 stays coset 0.

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
        for w in subgroup:
            scan_and_fill(0, tuple(w))
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
