"""Seeded tables of single-component braid words, in the repo's knot format.

A table is drawn from a fixed schedule of (strands, crossings) pairs, so the
scan cost of a table (n^strands assignments per crossing) is the same for
every seed; only the words change.  The closure permutation of a knot is an
s-cycle, whose parity is s - 1, and each letter is a transposition, so a
crossing count of the other parity can never close to a knot: rejection
sampling at such a length would never terminate, and the schedule is
refused up front instead.
"""

import random

from quandleforge.errors import NotAKnot
from quandleforge.knots import parse_braid


def random_knot_word(rng, strands, crossings, max_tries=100000):
    """A word of the given length whose closure parse_braid accepts."""
    if crossings % 2 != (strands - 1) % 2:
        raise ValueError(f"{crossings} crossings can never close "
                         f"{strands} strands to a knot")
    letters = [g for i in range(1, strands) for g in (i, -i)]
    for _ in range(max_tries):
        word = [rng.choice(letters) for _ in range(crossings)]
        try:
            parse_braid("candidate", strands, word)
        except NotAKnot:
            continue
        return word
    raise RuntimeError(f"no knot on {strands} strands with {crossings} "
                       f"crossings after {max_tries} draws")


def knot_table_text(seed, schedule, prefix):
    """The knot-table file for one seed: one `name;strands;word` line per
    schedule entry.  The same seed, schedule and prefix give byte-identical
    text."""
    rng = random.Random(f"{prefix}:{seed}")
    lines = []
    for i, (strands, crossings) in enumerate(schedule):
        word = random_knot_word(rng, strands, crossings)
        lines.append(f"{prefix}{i};{strands};{','.join(map(str, word))}")
    return "\n".join(lines) + "\n"
