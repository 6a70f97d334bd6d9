"""Exception types shared across the package, and computed."""

from contextlib import contextmanager


class QuandleError(Exception):
    """Base class for all quandleforge errors."""


class AxiomViolation(QuandleError):
    """A table fails one of the three quandle axioms.

    kind is one of 'idempotency', 'invertibility', 'distributivity';
    witness is the offending element / pair / triple.
    """

    def __init__(self, kind, witness):
        self.kind = kind
        self.witness = witness
        super().__init__(f"{kind} fails at {witness}")


class NotAHomomorphism(QuandleError):
    pass


class NotEpimorphism(QuandleError):
    pass


class NonIntegralIndex(QuandleError):
    """|source| is not a multiple of |target|, so the map has no integer index."""


class GroupTooLarge(QuandleError):
    """Permutation-group closure exceeded its element cap.  Each element is
    a tuple of degree images, so inner_group's cap is core.MAX_GROUP_CELLS,
    a budget of cells (elements x degree), divided by the degree.

    reached counts the elements found, including the one that broke the
    cap, so it is cap + 1; degree is the number of points permuted."""

    def __init__(self, cap, reached, degree):
        self.cap = cap
        self.reached = reached
        self.degree = degree
        super().__init__(
            f"group closure exceeded cap {cap} (reached {reached} elements "
            f"of degree {degree})")


class NotAUnit(QuandleError):
    pass


class NotACocycle(QuandleError):
    """values is not a quandle 2-cocycle; witness is a diagonal element or a
    triple (x, y, z) violating the cocycle identity."""

    def __init__(self, witness, message="not a 2-cocycle"):
        self.witness = witness
        super().__init__(f"{message}; witness {witness}")


class ShapeMismatch(QuandleError):
    pass


class DNotDividesModulus(QuandleError):
    pass


class Capped(QuandleError):
    """Coset enumeration would allocate more than max_cosets cosets,
    envgroup.MAX_COSETS: the group is larger than the budget.

    allocated counts the cosets allocated, including the one that broke the
    cap; live counts the cosets still live at the abort.  ngens and
    relators give the size of the presentation enumerated: its generator
    count and its relator count."""

    def __init__(self, max_cosets, allocated, live, ngens, relators):
        self.max_cosets = max_cosets
        self.allocated = allocated
        self.live = live
        self.ngens = ngens
        self.relators = relators
        super().__init__(
            f"coset enumeration exceeded cap {max_cosets} "
            f"(allocated {allocated} cosets, {live} live; presentation of "
            f"{ngens} generators and {relators} relators)")


class CohomologyTooLarge(QuandleError):
    """second_cohomology's n(n-1) x n + n(n-1) matrix would pass cap cells."""

    def __init__(self, n, rows, columns, cap):
        self.n, self.rows, self.columns, self.cap = n, rows, columns, cap
        super().__init__(
            f"H^2 of a quandle of order {n} needs a relation matrix of "
            f"{rows} rows x {columns} columns = {rows * columns} cells, "
            f"over the budget of {cap}")


class TableTooLarge(QuandleError):
    """A table of order^2 cells would pass core.MAX_TABLE_CELLS."""

    def __init__(self, order, budget):
        self.order, self.cells, self.budget = order, order * order, budget
        super().__init__(
            f"a table of order {order} has {self.cells} cells, over the "
            f"budget of {budget}")


class StateSumTooLarge(QuandleError):
    """A state sum mod m would hold m coefficients, past
    knots.MAX_COEFFICIENTS."""

    def __init__(self, m, budget):
        self.m, self.budget = m, budget
        super().__init__(
            f"a state sum mod {m} has {m} coefficients, over the budget of "
            f"{budget}")


class NotAKnot(QuandleError):
    """Braid closure has more than one component."""


class BadGenerator(QuandleError):
    pass


class EnumerationTooLarge(QuandleError):
    """Coloring enumeration would exceed the assignment cap,
    knots.MAX_ASSIGNMENTS.

    n is the quandle's order and strands the braid's; seeds is the number
    of seed arcs whose colors are enumerated, and candidates = n^seeds the
    tuples that would be tried, which exceed cap."""

    def __init__(self, n, strands, seeds, candidates, cap):
        self.n = n
        self.strands = strands
        self.seeds = seeds
        self.candidates = candidates
        self.cap = cap
        super().__init__(
            f"{strands} strands need {seeds} seed arcs, {n}^{seeds} = "
            f"{candidates} candidates exceed the cap {cap}")


class NotACovering(QuandleError):
    pass


class FiberMismatch(QuandleError):
    """Requested lift basepoint does not sit over the base coloring's endpoint."""


class NotIndex2(QuandleError):
    pass


class TheoremViolation(QuandleError):
    """A mechanically checked theorem, or a check of a result the library
    has just computed, failed: this signals an implementation bug, never a
    mathematical discovery or bad input, and forge exits 2 on it.  Raised
    by second_cohomology (the relation lattice, the order, each
    representative, their independence), todd_coxeter, verify_coset_table
    and _element_columns (the coset table, the subgroup words, the n^2
    relations), generator_presentation, recover_index2_cocycle (the
    recovered cocycle and labeling), inn_image (its projection), the
    constructors of the make families, lift_coloring (one lift) and
    _extension_verdict, the Theorem 3.1 check behind thm31, thm35 and
    certify.  Fail loudly."""


@contextmanager
def computed(what):
    """Around the check of a value the library derived: a QuandleError or
    ValueError there is the implementation's fault, and leaves as
    TheoremViolation(f"{what}: {exc}"); a TheoremViolation passes."""
    try:
        yield
    except TheoremViolation:
        raise
    except (QuandleError, ValueError) as exc:
        raise TheoremViolation(f"{what}: {exc}") from None
