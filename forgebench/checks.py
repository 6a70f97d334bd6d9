"""Independent checks of forge outputs.

Nothing here calls quandleforge's engines.  Coloring counts over Alexander
quandles come from the kernel of the linear closure system, solved by
elimination over each local ring Z/p^k; counts over other quandles come from
the grid walk in tests/oracles.py, loaded read-only.  Cocycles emitted by
`forge h2` are checked against the 2-cocycle condition directly.
"""

import importlib.util
import json
from pathlib import Path


def load_test_oracles(root):
    """tests/oracles.py as a module, without putting tests/ on sys.path."""
    path = Path(root) / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("forgebench_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def read_table(path):
    """A quandle file as a 0-based table (rows of a*b)."""
    lines = [ln.split() for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    n = int(lines[0][0])
    return [[int(v) - 1 for v in row] for row in lines[1:n + 1]]


def read_knot_table(path):
    """(name, strands, word) triples of a knot-table file."""
    out = []
    for ln in Path(path).read_text().splitlines():
        if not ln.strip() or ln.lstrip().startswith("#"):
            continue
        name, strands, word = ln.split(";")
        out.append((name, int(strands),
                    [int(g) for g in word.split(",") if g.strip()]))
    return out


def _prime_powers(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _valuation(v, p, cap):
    if v == 0:
        return cap
    k = 0
    while v % p == 0 and k < cap:
        v //= p
        k += 1
    return k


def solution_count(rows, ncols, n):
    """Number of x in (Z/n)^ncols with rows . x = 0 (mod n).

    For each prime power p^k || n, pivot on the entry of least p-valuation;
    every other entry of its row and column is then a multiple of the pivot,
    so row and column operations reduce the system to a diagonal one.  A
    diagonal entry p^v allows p^min(v, k) values, a free column p^k.
    """
    total = 1
    for p, k in _prime_powers(n):
        q = p ** k
        a = [[v % q for v in row] for row in rows]
        cols = list(range(ncols))
        count = 1
        while a and cols:
            best = None
            for i, row in enumerate(a):
                for j in cols:
                    v = _valuation(row[j], p, k)
                    if best is None or v < best[0]:
                        best = (v, i, j)
            v, i, j = best
            if v >= k:
                break
            count *= p ** v
            piv = a.pop(i)
            unit = piv[j] // p ** v
            inv = pow(unit, -1, q)
            piv = [x * inv % q for x in piv]
            for row in a:
                f = row[j] // p ** v
                if f:
                    for c in cols:
                        row[c] = (row[c] - f * piv[c]) % q
            cols.remove(j)
            # column operations clear the rest of the pivot row; they only
            # touch the pivot row itself, which has been removed
        count *= q ** len(cols)
        total *= count
    return total


def alexander_closure_rows(n, t, strands, word, tangle=False):
    """Rows of (M - I) for the linear propagation M of a braid word over the
    Alexander quandle a*b = t a + (1 - t) b mod n; for a tangle the row of
    position 0 is dropped."""
    tinv = pow(t, -1, n)
    # state[p] is the color at position p as a linear form in the top colors
    state = [[1 if i == j else 0 for j in range(strands)]
             for i in range(strands)]
    for g in word:
        p = abs(g) - 1
        a, b = state[p], state[p + 1]
        if g > 0:
            out = [(t * x + (1 - t) * y) % n for x, y in zip(a, b)]
            state[p], state[p + 1] = b, out
        else:
            # x * a = b  =>  x = t^-1 (b - (1 - t) a)
            x = [tinv * (y - (1 - t) * z) % n for z, y in zip(a, b)]
            state[p], state[p + 1] = x, a
    rows = [[(v - (1 if i == j else 0)) % n for j, v in enumerate(row)]
            for i, row in enumerate(state)]
    return rows[1:] if tangle else rows


def alexander_coloring_count(n, t, strands, word, tangle=False):
    return solution_count(
        alexander_closure_rows(n, t, strands, word, tangle), strands, n)


def is_quandle_cocycle(table, m, values):
    """phi(a, a) = 0 and phi(a, b) + phi(a*b, c) = phi(a, c) + phi(a*c, b*c)."""
    n = len(table)
    if len(values) != n or any(len(r) != n for r in values):
        return False
    if any(values[a][a] % m for a in range(n)):
        return False
    for a in range(n):
        ta, va = table[a], values[a]
        for b in range(n):
            tab, vab, tb = ta[b], va[b], table[b]
            vrow = values[tab]
            for c in range(n):
                if (vab + vrow[c] - va[c] - values[ta[c]][tb[c]]) % m:
                    return False
    return True


def read_cocycle(path):
    lines = [ln.split() for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    n, m = int(lines[0][0]), int(lines[0][1])
    return n, m, [[int(v) for v in row] for row in lines[1:n + 1]]


def records(stdout):
    """The JSON records a forge command printed, in order."""
    return [json.loads(ln) for ln in stdout.splitlines()
            if ln.lstrip().startswith("{")]


def _arg(request, flag):
    return request.args[request.args.index(flag) + 1]


class Checker:
    """Decides, for each response, whether it succeeded and whether it is
    right.  A failure that the frozen record expects (the `Capped` exit of
    alexander(25,2) at the seed commit) counts as failed but not wrong."""

    def __init__(self, inputs, expected, root):
        self.inputs = Path(inputs)
        self.expected = expected
        self.root = root
        self.oracle_counts = {}
        self.test_oracles = None

    def check(self, request, out):
        """(succeeded, problem): problem is None unless the output is wrong."""
        key = " ".join(request.args)
        frozen = self.expected.get(key, {})
        if out.code != 0:
            known = frozen.get("known_failure")
            if known and known in out.stderr:
                return False, None
            tail = out.stderr.strip().splitlines()[-1:] or [""]
            return False, f"{key}: exit {out.code}: {tail[0]}"
        try:
            got = records(out.stdout)
        except ValueError as exc:
            return False, f"{key}: unreadable output: {exc}"
        if request.oracle is not None:
            problem = self._against_oracle(request, got)
        elif "records" not in frozen:
            problem = "no frozen record"
        elif got != frozen["records"]:
            problem = f"records {got} differ from {frozen['records']}"
        else:
            problem = self._emitted_cocycles(request, got)
        return problem is None, problem and f"{key}: {problem}"

    def _emitted_cocycles(self, request, got):
        if request.args[0] != "h2":
            return None
        table = read_table(self.inputs / _arg(request, "--quandle"))
        for rec in got:
            if rec["record"] != "h2_rep":
                continue
            path = self.inputs / rec["path"]
            if not path.is_file():
                return f"missing {rec['path']}"
            n, m, values = read_cocycle(path)
            if n != len(table) or not is_quandle_cocycle(table, m, values):
                return f"{rec['path']} is not a 2-cocycle"
        return None

    def _counts(self, request):
        """(knot, closed colorings, tangle colorings) for the request's knot
        table, computed once per run."""
        qfile, kfile = _arg(request, "--quandle"), _arg(request, "--knots")
        key = (qfile, kfile)
        if key not in self.oracle_counts:
            knots = read_knot_table(self.inputs / kfile)
            if request.oracle == "grid":
                if self.test_oracles is None:
                    self.test_oracles = load_test_oracles(self.root)
                table = read_table(self.inputs / qfile)
                count = self.test_oracles.grid_coloring_count
                counts = [(name, count(table, s, w), count(table, s, w, True))
                          for name, s, w in knots]
            else:
                n, t = request.oracle
                counts = [(name, alexander_coloring_count(n, t, s, w),
                           alexander_coloring_count(n, t, s, w, True))
                          for name, s, w in knots]
            self.oracle_counts[key] = counts
        return self.oracle_counts[key]

    def _against_oracle(self, request, got):
        counts = self._counts(request)
        _, m, _ = read_cocycle(self.inputs / _arg(request, "--cocycle"))
        if len(got) != len(counts):
            return f"{len(got)} records for {len(counts)} knots"
        for rec, (name, closed, tangle) in zip(got, counts):
            if "--tangle" in request.args:
                # a tangle coloring closes up exactly when its ends agree
                want = {"record": "tangle", "knot": name, "colorings": tangle,
                        "end_monochromatic": tangle == closed}
                if rec != want:
                    return f"{rec} != {want}"
                continue
            coeffs = rec.get("coefficients", [])
            if (rec.get("record"), rec.get("knot"), rec.get("mod"),
                    len(coeffs)) != ("invariant", name, m, m):
                return f"unexpected record {rec}"
            if sum(coeffs) != closed:
                return f"{name}: {sum(coeffs)} colorings, oracle {closed}"
            if rec["constant"] != (not any(coeffs[1:])):
                return f"{name}: constant flag disagrees with {coeffs}"
        return None
