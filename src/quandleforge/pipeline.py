"""End-to-end verification pipelines.

These orchestrate the other modules: terminating sequences of inner
representations, recovery of the 2-cocycle of an index-2 covering, the
fixed-fiber criterion that abelian extensions must satisfy, constancy
verdicts for cocycle invariants of extensions that are conjugation quandles,
the coefficient-vanishing report for power cocycles, and negative
certificates ("no quandle has this extension as its inner image").

Constancy is a proved fact for the hypotheses checked here, and vanishing
follows from it, so a pipeline that observes a counterexample raises
TheoremViolation: that is a bug detector, not a report line.
"""

from collections import namedtuple

# core and errors load with every command; the other layers are reached
# through their modules at call time, so inn-seq and recover-ext leave the
# knot and enveloping-group layers unloaded
from . import cohomology, constructions, core, envgroup
from . import knots as qknots
from .core import (DEFAULT_MAX_COSETS, inner_group, inn_image, is_covering,
                   is_faithful)
from .errors import (NotACovering, NotEpimorphism, NotIndex2,
                     TheoremViolation)

class InnSequence(namedtuple("InnSequence", "quandles maps")):
    """Q0 -> Q1 -> ... -> Qk with each map the projection onto the quandle of
    distinct translations; the terminal quandle is faithful."""

    __slots__ = ()

    @property
    def terminal_faithful(self):
        return is_faithful(self.quandles[-1])


def inn_sequence(q):
    """Iterate the inner representation until the image is faithful."""
    quandles = [q]
    maps = []
    cur = q
    while not is_faithful(cur):
        nxt, f = inn_image(cur)
        quandles.append(nxt)
        maps.append(f)
        cur = nxt
    return InnSequence(quandles=tuple(quandles), maps=tuple(maps))


def recover_index2_cocycle(f):
    """Express an index-2 covering as an abelian extension by Z_2.

    The fiber over each base point is labeled {0, 1} with the least
    preimage at level 0; phi(a, b) is the level of s(a) * s(b), for s(a) the
    level-0 point over a.  phi is checked once as a 2-cocycle, and
    u -> 2 f(u) + level(u) once as a quandle map onto E(X, Z_2, phi); the
    map is a bijection, so that check proves the isomorphism.  Both check
    the result, not the input, and raise TheoremViolation when they fail.

    The checks cannot fail for a covering whose fibers have two points,
    connected or not.  f is a covering, so both points over z have one right
    translation; it is a bijection and f a homomorphism, so it maps the
    fiber over x bijectively onto the fiber over x*z.  So if s(x) lands at
    level phi(x, z), the other point over x lands at the other level, which
    is the extension law (x, a) * (z, b) = (x*z, a + phi(x, z)).
    """
    if not is_covering(f):
        raise NotACovering("index-2 recovery requires a covering")
    fibers = f.fibers()
    sizes = sorted({len(v) for v in fibers.values()})
    if sizes != [2]:
        raise NotIndex2(f"index-2 recovery needs fibers of two elements; "
                        f"found fiber sizes {sizes}")
    y = f.source
    x = f.target
    section = [0] * x.n
    level = [0] * y.n
    for b, (low, high) in fibers.items():   # preimages in ascending order
        section[b] = low
        level[high] = 1
    values = tuple(tuple(level[y.table[sa][sb]] for sb in section)
                   for sa in section)
    w = cohomology.cocycle_witness(x, 2, values)
    if w is not None:
        raise TheoremViolation(
            f"recovered values are not a 2-cocycle; witness {w}")
    phi = cohomology.Cocycle2(x.n, 2, values)
    e = constructions._extension(x, phi)
    bad = core._law_failure(y.table, e.table,
                            [2 * b + level[u] for u, b in enumerate(f.images)])
    if bad is not None:
        a, b = bad
        raise TheoremViolation(f"recovered labeling is not a quandle map: "
                               f"f({a}*{b}) != f({a})*f({b})")
    return phi


class FiberReport(namedtuple("FiberReport", "holds witness")):
    """Whether the fixed-fiber criterion holds; when it does not, witness is
    (inner automorphism images, fixed point, moved point), else None."""

    __slots__ = ()


def fiber_criterion(f):
    """Abelian extensions satisfy: an inner automorphism of the source fixing
    one point of a fiber fixes the fiber pointwise.  A False verdict (with
    witness) certifies that f is not an abelian extension."""
    if not f.is_epimorphism():
        raise NotEpimorphism("fiber criterion expects an epimorphism")
    fibers = [tuple(v) for v in f.fibers().values()]
    for img in inner_group(f.source):
        for fib in fibers:
            fixed = [p for p in fib if img[p] == p]
            if fixed and len(fixed) != len(fib):
                moved = next(p for p in fib if img[p] != p)
                return FiberReport(holds=False,
                                   witness=(img, fixed[0], moved))
    return FiberReport(holds=True, witness=None)


class ExtensionVerdict(namedtuple(
        "ExtensionVerdict",
        "extension is_conjugation invariants invariant_constant_on_corpus")):
    """Outcome of the constancy pipeline for one (X, m, phi).

    extension is the Quandle E(X, Z_m, phi); is_conjugation is "yes", "no"
    or "not_applicable" (E has an inner-representation preimage exactly when
    it is "yes"), and invariants maps knot names to GroupRingElt.
    """

    __slots__ = ()


def _extension_verdict(x, phi, invariants, max_cosets):
    """Build E(X, Z_m, phi) and take its Vendramin verdict, beside the
    phi-invariants of a knot table (knot name -> GroupRingElt).  phi is a
    Cocycle2 already checked against x (by _validated, or as the power of
    one), so the extension is built without a second check.

    Theorem 3.1: an extension that is a conjugation quandle has constant
    invariants, so a 'yes' beside a non-constant one raises TheoremViolation.
    """
    e = constructions._extension(x, phi)
    conjugation = envgroup.conjugation_criterion(e, max_cosets).verdict
    constant = all(qknots.is_constant(inv) for inv in invariants.values())
    if conjugation == "yes" and not constant:
        raise TheoremViolation(
            "extension is a conjugation quandle but some invariant is "
            "non-constant; the implementation is broken")
    return ExtensionVerdict(extension=e, is_conjugation=conjugation,
                            invariants=invariants,
                            invariant_constant_on_corpus=constant)


def _validated(x, phi, knots):
    """Check the Cocycle2 phi against x (ShapeMismatch or NotACocycle) and
    the knot names as distinct (ValueError).  Returns the knot table
    (default: the bundled one)."""
    knots = qknots.bundled_knots() if knots is None else knots
    cohomology.cocycle(x, phi)
    names = set()
    for k in knots:
        if k.name in names:
            raise ValueError(f"knot name {k.name!r} is repeated in the table")
        names.add(k.name)
    return knots


def _knot_invariants(x, phi, knots):
    """The phi-invariant of each knot, keyed by name."""
    return {k.name: qknots.state_sum(x, phi, k) for k in knots}


def constancy_pipeline(x, phi, knots=None, max_cosets=DEFAULT_MAX_COSETS):
    """For the Cocycle2 phi mod m: build E(X, Z_m, phi), decide whether E is
    a conjugation quandle (hence has an inner-representation preimage), and
    compute the cocycle invariant on the knot corpus.  A 'yes' verdict
    together with any non-constant invariant raises TheoremViolation.  phi
    is checked against x and the knot names are validated before any state
    sum (ShapeMismatch, NotACocycle or ValueError)."""
    knots = _validated(x, phi, knots)
    return _extension_verdict(x, phi, _knot_invariants(x, phi, knots),
                               max_cosets)


class PowerCheckReport(namedtuple(
        "PowerCheckReport",
        "n d m hypothesis_held verdict coefficients vanishing_ok")):
    """Coefficient-vanishing report for phi = psi^d.

    verdict is the ExtensionVerdict of phi, or None when m == 1;
    coefficients maps each knot name to its coefficient tuple over Z_n.
    vanishing_ok is True when m == 1 or the hypothesis held, else None:
    never False, as power_coefficient_check proves.
    """

    __slots__ = ()


def power_coefficient_check(x, psi, d, knots=None,
                            max_cosets=DEFAULT_MAX_COSETS):
    """For the Cocycle2 psi mod n and phi = psi^d mod m = n/d: when the
    extension by phi is a conjugation quandle, every coefficient a_k of the
    psi-invariant with k not divisible by m must vanish.  psi is checked
    against x (ShapeMismatch or NotACocycle), d must divide n
    (DNotDividesModulus) and the knot names must be distinct (ValueError);
    all three are checked before any state sum.

    Vanishing needs no check of its own.  Theorem 3.1 is checked on the
    phi-invariant, which folds the psi-invariant, b_j = sum of a_k over
    k = j (mod m): under a 'yes', b_j = 0 for j != 0.  The a_k count
    colorings, so they are >= 0, and then a_k = 0 for every k != 0 (mod m).
    """
    knots = _validated(x, psi, knots)
    phi = cohomology.cocycle_power(psi, d)
    invariants = _knot_invariants(x, psi, knots)
    coefficients = {name: inv.coeffs for name, inv in invariants.items()}
    m = phi.m
    verdict, held = None, False
    if m > 1:
        # the phi-invariant folds the psi-invariant: phi = psi mod m and m | n
        folded = {name: qknots.GroupRingElt(
                      m, tuple(sum(inv.coeffs[j::m]) for j in range(m)))
                  for name, inv in invariants.items()}
        verdict = _extension_verdict(x, phi, folded, max_cosets)
        held = verdict.is_conjugation == "yes"
    # at m == 1 phi is trivial, and the report stands vacuously
    return PowerCheckReport(n=psi.m, d=d, m=m, hypothesis_held=held,
                            verdict=verdict, coefficients=coefficients,
                            vanishing_ok=True if m == 1 or held else None)


class Certificate(namedtuple(
        "Certificate", "m extension witness_knots conjugation_verdict")):
    """A proof that no finite quandle has E = E(X, Z_m, phi) as its inner
    image.  witness_knots lists the knots whose invariant is non-constant;
    conjugation_verdict is E's, never "yes" (that raises TheoremViolation).
    """

    __slots__ = ()

    def text(self):
        w = ", ".join(self.witness_knots)
        return (f"E(X, Z_{self.m}, phi) of order {self.extension.n} admits no "
                f"finite quandle Y with inn(Y) isomorphic to it, and is not a "
                f"conjugation quandle (witnessing knots: {w})")


def nonconstancy_certificates(x, phi, knots=None,
                              max_cosets=DEFAULT_MAX_COSETS):
    """For the Cocycle2 phi mod m, emit a certificate when some knot
    invariant is non-constant: E(X, Z_m, phi) then has no
    inner-representation preimage and is not a conjugation quandle.  The
    enveloping-group verdict cross-checks this; a 'yes' would contradict the
    certificate and raises TheoremViolation.  phi is checked against x and
    the knot names are validated first (ShapeMismatch, NotACocycle or
    ValueError), and the extension is built only once a witness knot exists."""
    knots = _validated(x, phi, knots)
    invariants = _knot_invariants(x, phi, knots)
    witnesses = [name for name, inv in invariants.items()
                 if not qknots.is_constant(inv)]
    if not witnesses:
        return None
    verdict = _extension_verdict(x, phi, invariants, max_cosets)
    return Certificate(m=phi.m, extension=verdict.extension,
                       witness_knots=witnesses,
                       conjugation_verdict=verdict.is_conjugation)
