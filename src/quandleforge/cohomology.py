"""Second quandle cohomology with cyclic coefficients.

Cochains are stored additively: the multiplicative identity of the
coefficient group becomes 0 in Z_m.  A 2-cochain is an n x n table over Z_m
that vanishes on the diagonal; it is a cocycle when

    values[x][y] - values[x][z] + values[x*y][z] - values[x*z][y*z] == 0 (mod m)

for all x, y, z.  Coboundaries follow the convention

    (d gamma)(x, y) = gamma(x) - gamma(x*y),

which matches relabeling extension fibers by (x, a) -> (x, a - gamma(x));
the mirror convention differs by a sign and produces the same cohomology.

H^2 is computed over the integers: the off-diagonal pairs index the cochain
coordinates and the cocycle constraints are row-reduced.  Two matrices are
put in Smith normal form: the reduced constraints give the kernel lattice
(with V, so representatives are V times a vector), and the quotient of that
lattice by coboundaries plus m times everything gives the invariant factors.
A spanning forest of the orbits gives coordinates on cochains modulo
coboundaries, which check the result independently of the solve: each factor
annihilates its representative, and for each prime p | m the elements of
order p are independent over F_p (a map out of a finite abelian group is
injective iff it is injective on elements of prime order).  Everything is
exact.
"""

from collections import namedtuple
from math import gcd

from . import snf
from .core import orbit_forest, orbits
from .errors import DNotDividesModulus, NotACocycle, ShapeMismatch


class Cocycle2(namedtuple("Cocycle2", "n m values")):
    """A Z_m-valued 2-cochain with zero diagonal.

    Shape and the diagonal are enforced here; use cocycle() to also verify
    the cocycle identity against a quandle.
    """

    __slots__ = ()

    def __new__(cls, n, m, values):
        if m < 1:
            raise ValueError("modulus must be >= 1")
        if len(values) != n or any(len(r) != n for r in values):
            raise ValueError("values must be n x n")
        for x in range(n):
            if values[x][x] % m != 0:
                raise NotACocycle(x, "nonzero diagonal entry")
            if any(not (0 <= v < m) for v in values[x]):
                raise ValueError("values must be reduced mod m")
        return super().__new__(cls, n, m, values)

    def add(self, other):
        if (self.n, self.m) != (other.n, other.m):
            raise ShapeMismatch("cochain shapes differ")
        return Cocycle2(self.n, self.m, tuple(
            tuple((a + b) % self.m for a, b in zip(r1, r2))
            for r1, r2 in zip(self.values, other.values)))

    def scale(self, k):
        return Cocycle2(self.n, self.m, tuple(
            tuple((k * v) % self.m for v in row) for row in self.values))

    @staticmethod
    def zero(n, m):
        return Cocycle2(n, m, tuple(tuple(0 for _ in range(n)) for _ in range(n)))


def _as_values(phi):
    return getattr(phi, "values", phi)


def cocycle_witness(q, m, values):
    """None if values is a diagonal-zero 2-cocycle mod m on q; otherwise a
    witness: ('diagonal', x) or ('identity', x, y, z).  ShapeMismatch if
    values is not q.n x q.n."""
    values = _as_values(values)
    n = q.n
    if len(values) != n or any(len(row) != n for row in values):
        raise ShapeMismatch(f"cochain is not {n} x {n}")
    t = q.table
    for x in range(n):
        if values[x][x] % m != 0:
            return ("diagonal", x)
    for x in range(n):
        vx = values[x]
        for y in range(n):
            xy = t[x][y]
            vxy = values[xy]
            for z in range(n):
                if (vx[y] - vx[z] + vxy[z] - values[t[x][z]][t[y][z]]) % m:
                    return ("identity", x, y, z)
    return None


def cocycle(q, m, values):
    """Validate values as a 2-cocycle mod m on q and wrap it: ShapeMismatch
    for a table that is not q.n x q.n or a cochain of another modulus,
    NotACocycle when the identity fails."""
    if getattr(values, "m", m) != m:
        raise ShapeMismatch(f"cochain is mod {values.m}, not mod {m}")
    values = _as_values(values)
    w = cocycle_witness(q, m, values)
    if w is not None:
        raise NotACocycle(w)
    return Cocycle2(q.n, m, tuple(tuple(v % m for v in row) for row in values))


def coboundary(q, m, gamma):
    """The coboundary of a 1-cochain gamma: X -> Z_m (callable or indexable)."""
    gamma = [gamma(x) if callable(gamma) else gamma[x] for x in range(q.n)]
    vals = [[(gamma[x] - gamma[q.table[x][y]]) % m for y in range(q.n)]
            for x in range(q.n)]
    return Cocycle2(q.n, m, tuple(tuple(r) for r in vals))


def _pair_index(n):
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    return pairs, {p: i for i, p in enumerate(pairs)}


def _constraint_rows(q, pidx):
    """Integer rows of the cocycle identity, one per useful (x,y,z), in the
    sparse form snf.row_reduce takes: a tuple of (column, value) pairs in
    increasing column order, at most 4 of them.  Rows are deduplicated up
    to sign, keeping the first occurrence, and their first value is
    positive."""
    n = q.n
    t = q.table
    col = [[pidx.get((x, y)) for y in range(n)] for x in range(n)]
    seen = set()
    rows = []
    for x in range(n):
        cx = col[x]
        for y in range(n):
            if x == y:
                continue
            xy = t[x][y]
            cxy = col[xy]
            for z in range(n):
                if y == z:
                    continue
                row = {cx[y]: 1}
                if x != z:
                    j = cx[z]
                    row[j] = row.get(j, 0) - 1
                if xy != z:
                    j = cxy[z]
                    row[j] = row.get(j, 0) + 1
                xz, yz = t[x][z], t[y][z]
                if xz != yz:
                    j = col[xz][yz]
                    row[j] = row.get(j, 0) - 1
                key = tuple(sorted((j, v) for j, v in row.items() if v))
                if not key:
                    continue
                if key[0][1] < 0:
                    key = tuple((j, -v) for j, v in key)
                if key not in seen:
                    seen.add(key)
                    rows.append(key)
    return rows


class CohomologyGroup(namedtuple("CohomologyGroup",
                                 "m invariant_factors representatives")):
    """H^2 as a product of cyclic groups: invariant factors (each dividing m,
    ascending, 1s dropped) with one representative cocycle per factor."""

    __slots__ = ()

    @property
    def order(self):
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out


def cocycle_space_order(diag, rank, ncols, m):
    """Number of diagonal-zero 2-cocycles mod m, from the Smith diagonal
    and rank of the ncols-column constraint matrix: the solutions of
    Av = 0 over Z_m number prod gcd(d_i, m) * m^(ncols - rank)."""
    out = 1
    for d in diag:
        out *= gcd(d, m)
    return out * m ** (ncols - rank)


def coboundary_space_order(q, m):
    """Number of distinct coboundaries mod m: m^(n - r) for r orbits, since
    d gamma = 0 exactly when gamma is constant on orbits."""
    return m ** (q.n - len(orbits(q)))


def second_cohomology(q, m):
    """H^2_Q(q, Z_m): invariant factors plus representative cocycles.

    Two Smith normal forms, one per matrix: the reduced cocycle constraints
    (kernel lattice, with V and Vinv) and the quotient presentation
    (invariant factors, with Uinv).  Representatives are V times the
    generators of the quotient; each is verified to be a cocycle.  The
    transforms are sparse, so each relation row is built from the nonzeros
    of a row of Vinv, and each representative from the nonzeros of a
    column of Uinv and the columns of V they select.  The
    order is verified exactly: |H^2| * coboundary_space_order must equal
    cocycle_space_order read off the diagonal and rank of the first Smith
    form, the one of the reduced constraints.  The classes are verified
    independent one prime p | m at a time, by a rank over F_p of their
    coordinates modulo coboundaries, which come from the orbits' spanning
    forest and not from the solve.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    n = q.n
    pairs, pidx = _pair_index(n)
    npairs = len(pairs)
    if npairs == 0:
        return CohomologyGroup(m=m, invariant_factors=(), representatives=())

    rows = _constraint_rows(q, pidx)
    reduced = snf.row_reduce(rows, npairs)
    if reduced:
        form = snf.smith_normal_form(reduced, want=("V", "Vinv"))
        vcols, vinv = form.V, form.Vinv
        diag, rank = form.diag, form.rank
    else:
        vcols = vinv = [{j: 1} for j in range(npairs)]
        diag, rank = (), 0
    tdiag = [m // gcd(d, m) for d in diag]
    tdiag += [1] * (npairs - len(tdiag))

    # kernel lattice K = V . diag(tdiag); relations = coboundaries + m Z^N,
    # in the K basis X = diag(tdiag)^-1 . [Vinv . D | m Vinv], where row
    # (a, b) of the coboundary matrix D is +1 at a and -1 at a*b
    x = []
    for vrow, t in zip(vinv, tdiag):
        row = {}
        for c, v in vrow.items():
            a, b = pairs[c]
            row[a] = row.get(a, 0) + v
            ab = q.table[a][b]
            row[ab] = row.get(ab, 0) - v
            row[n + c] = m * v
        if any(v % t for v in row.values()):
            raise AssertionError("relation lattice not inside kernel")
        dense = [0] * (n + npairs)
        for j, v in row.items():
            dense[j] = v // t
        x.append(dense)

    qform = snf.smith_normal_form(x, want=("Uinv",))
    if qform.rank != npairs:
        raise AssertionError("relation lattice should have full rank")

    factors = []
    reps = []
    for d, ucol in zip(qform.diag, qform.Uinv):
        if d == 1:
            continue
        factors.append(d)
        # generator = K-basis times this column of Uinv, i.e.
        # V . diag(tdiag) . Uinv[:, i], summed over the column's nonzeros
        w = [0] * npairs
        for r, u in ucol.items():
            tu = tdiag[r] * u
            for c, v in vcols[r].items():
                w[c] += v * tu
        vals = [[0] * n for _ in range(n)]
        for (a, b), v in zip(pairs, w):
            vals[a][b] = v % m
        reps.append(cocycle(q, m, vals))

    # SNF already orders the factors by the divisibility chain
    group = CohomologyGroup(m=m, invariant_factors=tuple(factors),
                            representatives=tuple(reps))

    zorder = cocycle_space_order(diag, rank, npairs, m)
    if group.order * coboundary_space_order(q, m) != zorder:
        raise AssertionError("invariant factors disagree with space orders")
    _verify_independent(q, group)
    return group


def _coboundary_classes(q, m):
    """coords(phi): coordinates of phi in C/B, cochains mod coboundaries.

    d is the incidence matrix of the graph x -> x*y, whose components are
    the orbits.  phi agrees with d gamma on the orbits' spanning forest for
    exactly one gamma that is 0 at each root, and the residues phi - d gamma
    on the other pairs identify C/B with Z_m^(N - n + r) for N pairs and r
    orbits: phi is a coboundary iff all are 0.  Each call is O(N)."""
    _, edges = orbit_forest(q)
    tree = set(edges)
    n = q.n
    rest = [(x, y) for x in range(n) for y in range(n)
            if x != y and (x, y) not in tree]
    table = q.table

    def coords(phi):
        v = phi.values
        gamma = [0] * n
        for y, a in edges:          # y is reached before y*a
            gamma[table[y][a]] = (gamma[y] - v[y][a]) % m
        return [(v[x][y] - gamma[x] + gamma[table[x][y]]) % m
                for x, y in rest]

    return coords


def _prime_divisors(m):
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def _verify_independent(q, group):
    """The representatives must span a copy of (+) Z_{d_i} in C/B.

    The map (+) Z_{d_i} -> C/B is well defined iff each d_i . rep_i is a
    coboundary, and then injective iff it is injective on the elements of
    prime order: for each prime p | m, the classes of (d_i/p) . rep_i with
    p | d_i must be independent over F_p.  C/B is Z_m^k in the coordinates
    of _coboundary_classes, so such a class divided by m/p is a vector over
    F_p, and their rank must be the number of factors divisible by p.
    """
    coords = _coboundary_classes(q, group.m)
    slots = list(zip(group.invariant_factors, group.representatives))
    for d, rep in slots:
        if any(coords(rep.scale(d))):
            raise AssertionError("representative order exceeds its factor")
    for p in _prime_divisors(group.m):
        rows = [[c // (group.m // p) for c in coords(rep.scale(d // p))]
                for d, rep in slots if d % p == 0]
        rank_p = sum(1 for s in snf.smith_normal_form(rows).diag if s % p)
        if rank_p != len(rows):
            raise AssertionError(
                f"representatives are dependent modulo {p}: rank {rank_p} "
                f"for {len(rows)} classes of order {p}")


def cohomologous(q, phi1, phi2):
    """True iff phi1 - phi2 is a coboundary on q."""
    if (phi1.n, phi1.m) != (phi2.n, phi2.m) or phi1.n != q.n:
        raise ShapeMismatch("cocycles live on different spaces")
    coords = _coboundary_classes(q, phi1.m)
    return not any(coords(phi1.add(phi2.scale(-1))))


def cocycle_power(psi, d):
    """Reindex d*psi into Z_{n/d} along the isomorphism d Z_n = Z_{n/d}.

    Concretely the result is psi reduced mod m = n/d, which is again a
    cocycle; requires d | n.
    """
    n = psi.m
    if d < 1 or n % d:
        raise DNotDividesModulus(f"{d} does not divide the modulus {n}")
    m = n // d
    return Cocycle2(psi.n, m, tuple(
        tuple(v % m for v in row) for row in psi.values))
