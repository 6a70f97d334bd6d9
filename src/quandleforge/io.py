"""File formats.

Cayley table:   line 1 is n, then n rows of n whitespace-separated 1-based
                entries; row a, column b holds a*b.  '#' starts a comment.
Group table:    same layout preceded by a '#group' header line.
Cocycle:        line 1 is "n m", then n rows of n integers mod m.
Knot table:     one "name;strands;comma-separated word" per line.

Quandle and group entries are 1-based on disk (matching common Cayley-table
exports) and 0-based in memory.
"""

from .cohomology import Cocycle2
from .constructions import finite_group
from .core import validate_quandle
from .knots import parse_braid

GROUP_HEADER = "#group"


def _content_lines(text):
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append(stripped)
    return out


def _is_group_text(text):
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if stripped.split()[0] == GROUP_HEADER:
                return True
            continue
        return False
    return False


def _parse_table(text, kind):
    lines = _content_lines(text)
    if not lines:
        raise ValueError(f"empty {kind} file")
    n = int(lines[0])
    if len(lines) < n + 1:
        raise ValueError(f"{kind} file promises {n} rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:n + 1]:
        row = [int(tok) - 1 for tok in line.split()]
        if len(row) != n:
            raise ValueError(f"{kind} row has {len(row)} entries, expected {n}")
        rows.append(row)
    return n, rows


def parse_quandle_text(text):
    n, rows = _parse_table(text, "quandle")
    return validate_quandle(n, rows)


def parse_group_text(text):
    _, rows = _parse_table(text, "group")
    return finite_group(rows)


def quandle_to_text(q, comment=None):
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(str(q.n))
    for row in q.table:
        lines.append(" ".join(str(v + 1) for v in row))
    return "\n".join(lines) + "\n"


def group_to_text(g, comment=None):
    lines = [GROUP_HEADER]
    if comment:
        lines.append(f"# {comment}")
    lines.append(str(g.order))
    for row in g.mult:
        lines.append(" ".join(str(v + 1) for v in row))
    return "\n".join(lines) + "\n"


def parse_cocycle_text(text):
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty cocycle file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("cocycle header must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if m < 1:
        raise ValueError(f"cocycle modulus must be >= 1, got {m}")
    if len(lines) < n + 1:
        raise ValueError(f"cocycle file promises {n} rows")
    rows = []
    for line in lines[1:n + 1]:
        row = [int(tok) % m for tok in line.split()]
        if len(row) != n:
            raise ValueError(f"cocycle row has {len(row)} entries, expected {n}")
        rows.append(tuple(row))
    return Cocycle2(n=n, m=m, values=tuple(rows))


def cocycle_to_text(phi, comment=None):
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"{phi.n} {phi.m}")
    for row in phi.values:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_knots_text(text):
    knots = []
    for line in _content_lines(text):
        parts = line.split(";")
        if len(parts) != 3:
            raise ValueError(f"knot line needs name;strands;word: {line!r}")
        name, strands = parts[0].strip(), int(parts[1])
        word = [int(t) for t in parts[2].split(",") if t.strip()] \
            if parts[2].strip() else []
        knots.append(parse_braid(name, strands, word))
    return knots


def read_quandle(path):
    with open(path) as fh:
        text = fh.read()
    if _is_group_text(text):
        raise ValueError(f"{path} is a group file, expected a quandle")
    return parse_quandle_text(text)


def read_group(path):
    with open(path) as fh:
        text = fh.read()
    if not _is_group_text(text):
        raise ValueError(f"{path} lacks the {GROUP_HEADER} header")
    return parse_group_text(text)


def read_cocycle(path):
    with open(path) as fh:
        return parse_cocycle_text(fh.read())


def read_knots(path):
    with open(path) as fh:
        return parse_knots_text(fh.read())


def write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)
