"""File formats.

Quandle, group and cocycle files share one grammar: blank lines and lines
that start with '#' are skipped; the first line left is a header whose first
integer is n, and exactly n more lines follow, each of n whitespace-separated
integers.

Cayley table:   the header is n; row a, column b holds a*b, 1-based.
Group table:    a Cayley table with a '#group' comment before its header.
Cocycle:        the header is "n m", m >= 1; entries are read mod m.
Knot table:     one "name;strands;comma-separated word" per line.

Quandle and group entries are 1-based on disk (matching common Cayley-table
exports) and 0-based in memory.  A malformed file is a ValueError that names
the file kind, the line (the header, a row by its 1-based number, or the
knot line) and the token at fault; a quandle or group entry outside 1..n is
named as it stands on disk.
"""

from . import cohomology, constructions, core, knots

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


def _ints(tokens, where):
    """The tokens as integers; ValueError naming where and the first token
    that is not one."""
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"{where}: {tok!r} is not an integer") from None
    return out


def _parse_table(text, kind, header="n", base=0):
    """The header (the integers that header names) and the n rows of a
    table file, each entry base less than on disk; ValueError for any
    departure from the grammar.  A second header integer is a cocycle
    modulus, checked before the rows.  The entries of a table with base 1
    are elements, each in 1..n on disk."""
    lines = _content_lines(text)
    if not lines:
        raise ValueError(f"empty {kind} file")
    head = _ints(lines[0].split(), f"{kind} header")
    if len(head) != len(header.split()):
        raise ValueError(f"{kind} header must be '{header}'")
    n = head[0]
    if len(head) > 1 and head[1] < 1:
        raise ValueError(f"{kind} modulus must be >= 1, got {head[1]}")
    if len(lines) != n + 1:
        raise ValueError(
            f"{kind} file promises {n} rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:], 1):
        row = _ints(line.split(), f"{kind} row {i}")
        if len(row) != n:
            raise ValueError(
                f"{kind} row has {len(row)} entries, expected {n}")
        if base:
            bad = next((v for v in row if not 1 <= v <= n), None)
            if bad is not None:
                raise ValueError(
                    f"{kind} row {i}: entry {bad} is not in 1..{n}")
            row = [v - 1 for v in row]
        rows.append(row)
    return head, rows


def _table_to_text(head, rows, comment, base=0, marker=None):
    """The text _parse_table reads: the marker line, the comment, the
    header and one line per row, each entry written base more."""
    lines = [marker] if marker else []
    if comment:
        lines.append(f"# {comment}")
    lines.append(" ".join(map(str, head)))
    lines += [" ".join(str(v + base) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def parse_quandle_text(text):
    (n,), rows = _parse_table(text, "quandle", base=1)
    return core.validate_quandle(n, rows)


def parse_group_text(text):
    _, rows = _parse_table(text, "group", base=1)
    return constructions.finite_group(rows)


def parse_cocycle_text(text):
    (n, m), rows = _parse_table(text, "cocycle", header="n m")
    return cohomology.Cocycle2(
        n=n, m=m, values=tuple(tuple(v % m for v in row) for row in rows))


def quandle_to_text(q, comment=None):
    return _table_to_text((q.n,), q.table, comment, base=1)


def group_to_text(g, comment=None):
    return _table_to_text((g.order,), g.mult, comment, base=1,
                          marker=GROUP_HEADER)


def cocycle_to_text(phi, comment=None):
    return _table_to_text((phi.n, phi.m), phi.values, comment)


def parse_knots_text(text):
    out = []
    for line in _content_lines(text):
        parts = line.split(";")
        if len(parts) != 3:
            raise ValueError(f"knot line needs name;strands;word: {line!r}")
        where = f"knot line {line!r}"
        (strands,) = _ints([parts[1]], where)
        word = _ints([t for t in parts[2].split(",") if t.strip()], where)
        out.append(knots.parse_braid(parts[0].strip(), strands, word))
    return out


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
