# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled backend for the coloring scan.

Twin of _purepy.braid_closure_colorings: same contract, same result
ordering.  It walks an odometer over top assignments with the whole
propagation in C.  Coset enumeration has no compiled twin.
"""

from libc.stdlib cimport free, malloc
from libc.string cimport memcpy


def braid_closure_colorings(table, int n, int strands, word, bint relax_first=False):
    """See _purepy.braid_closure_colorings; identical contract."""
    cdef long long total = 1
    cdef int i, j, p
    for i in range(strands):
        total *= n

    cdef int nn = n * n
    cdef int *tab = <int *> malloc(nn * sizeof(int))
    cdef int *inv = <int *> malloc(nn * sizeof(int))
    cdef int *tops = <int *> malloc(strands * sizeof(int))
    cdef int *state = <int *> malloc(strands * sizeof(int))
    cdef int nmoves = len(word)
    cdef int *mpos = <int *> malloc((nmoves if nmoves else 1) * sizeof(int))
    cdef int *msign = <int *> malloc((nmoves if nmoves else 1) * sizeof(int))
    if not (tab and inv and tops and state and mpos and msign):
        free(tab); free(inv); free(tops); free(state); free(mpos); free(msign)
        raise MemoryError()

    out = []
    cdef int g, a, b, start_col, ok
    cdef long long it
    try:
        for i in range(nn):
            tab[i] = table[i]
        for i in range(n):
            for j in range(n):
                inv[i * n + tab[j * n + i]] = j
        for i in range(nmoves):
            g = word[i]
            mpos[i] = (g if g > 0 else -g) - 1
            msign[i] = 1 if g > 0 else -1
        start_col = 1 if relax_first else 0

        for i in range(strands):
            tops[i] = 0
        it = 0
        while it < total:
            memcpy(state, tops, strands * sizeof(int))
            for i in range(nmoves):
                p = mpos[i]
                a = state[p]
                b = state[p + 1]
                if msign[i] > 0:
                    state[p] = b
                    state[p + 1] = tab[a * n + b]
                else:
                    state[p] = inv[a * n + b]
                    state[p + 1] = a
            ok = 1
            for j in range(start_col, strands):
                if state[j] != tops[j]:
                    ok = 0
                    break
            if ok:
                out.append(tuple([tops[j] for j in range(strands)]))
            # odometer: last strand fastest, giving lexicographic order
            it += 1
            j = strands - 1
            while j >= 0:
                tops[j] += 1
                if tops[j] < n:
                    break
                tops[j] = 0
                j -= 1
    finally:
        free(tab); free(inv); free(tops); free(state); free(mpos); free(msign)
    return out
