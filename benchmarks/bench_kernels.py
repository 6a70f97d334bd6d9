#!/usr/bin/env python3
"""Benchmark the package's hot loops.

* coloring enumeration: all top assignments of a braid word over a
  medium-sized quandle, closure-filtered; its time is printed beside the
  colorings it found.
* coset enumeration: Coxeter groups of a few thousand elements and the
  finite enveloping group of a dihedral quandle; its time is printed beside
  the cosets it allocated.

Run from the repository root:  python benchmarks/bench_kernels.py
"""

import time

from quandleforge._kernels import braid_closure_colorings, coset_enumeration
from quandleforge.constructions import alexander_quandle, dihedral_quandle
from quandleforge.envgroup import enveloping_presentation


def flat(q):
    return [v for row in q.table for v in row]


def to_columns(word):
    return tuple(2 * (g - 1) if g > 0 else 2 * (-g - 1) + 1 for g in word)


def coxeter(*ms):
    """Relators of the linear Coxeter group with Coxeter matrix entries ms
    between consecutive generators."""
    n = len(ms) + 1
    rels = [(2 * i, 2 * i) for i in range(n)]
    for i, m in enumerate(ms):
        rels.append((2 * i, 2 * (i + 1)) * m)
    for i in range(n):
        for j in range(i + 2, n):
            rels.append((2 * i, 2 * j) * 2)
    return n, rels


def main():
    d13 = dihedral_quandle(13)
    a16 = alexander_quandle(16, 3)
    stevedore5 = [1, 1, 2, -1, -3, 2, -3, 4]   # 6_1 stabilized to 5 strands
    coloring_jobs = [
        ("colorings: dihedral(13), 4 strands", d13, 4,
         [1, 1, 2, -1, -3, 2, -3]),
        ("colorings: dihedral(13), 5 strands", d13, 5, stevedore5),
        ("colorings: alexander(16,3), 5 strands", a16, 5, stevedore5),
    ]
    for label, q, s, w in coloring_jobs:
        t0 = time.perf_counter()
        found = braid_closure_colorings(flat(q), q.n, s, w)
        elapsed = time.perf_counter() - t0
        print(f"{label:<44} {elapsed:8.3f}s  colorings: {len(found)}")

    p = enveloping_presentation(dihedral_quandle(27), finite=True)
    coset_jobs = [("cosets: B4 Coxeter group (384)", coxeter(3, 3, 4)),
                  ("cosets: B5 Coxeter group (3840)", coxeter(3, 3, 3, 4)),
                  ("cosets: A6 Coxeter group (5040)", coxeter(3, 3, 3, 3, 3)),
                  ("cosets: enveloping group of dihedral(27)",
                   (p.ngens, [to_columns(r) for r in p.relators]))]
    for label, (ng, rels) in coset_jobs:
        stats = {}
        t0 = time.perf_counter()
        coset_enumeration(ng, rels, 10 ** 6, stats)
        elapsed = time.perf_counter() - t0
        print(f"{label:<44} {elapsed:8.3f}s  allocated: {stats['allocated']}"
              f"  live: {stats['live']}")


if __name__ == "__main__":
    main()
