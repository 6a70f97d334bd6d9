"""Bundled braid words for small knots.

Each word's closure is verified to be a single component at load time, and
the test suite pins coloring-count fingerprints over dihedral quandles of
orders 3, 5, 7 (and 11, 13) for every entry.  This table is what the CLI's
knot-taking commands read when no --knots file is given; the alternate
presentations that the Markov-move tests compare live with those tests.
"""

from .knots import parse_braid

# name, strands, word
BUNDLED_WORDS = [
    ("unknot", 1, []),
    ("3_1", 2, [1, 1, 1]),
    ("4_1", 3, [1, -2, 1, -2]),
    ("5_1", 2, [1, 1, 1, 1, 1]),
    ("5_2", 3, [1, 1, 1, 2, -1, 2]),
    ("6_1", 4, [1, 1, 2, -1, -3, 2, -3]),
    ("6_2", 3, [1, 1, 1, -2, 1, -2]),
    ("6_3", 3, [1, 1, -2, 1, -2, -2]),
    ("7_1", 2, [1, 1, 1, 1, 1, 1, 1]),
    ("8_19", 3, [1, 2, 1, 2, 1, 2, 1, 2]),
    ("8_20", 3, [1, 1, 1, -2, -1, -1, -1, -2]),
]


def bundled_knots():
    """The bundled table, parsed and closure-checked."""
    return [parse_braid(name, s, w) for name, s, w in BUNDLED_WORDS]
