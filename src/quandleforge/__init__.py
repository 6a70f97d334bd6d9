"""quandleforge: finite quandle computation.

Constructs abelian extensions and conjugation quandles, computes second
quandle cohomology and cocycle knot invariants over braid-closure diagrams,
and mechanically cross-checks the constancy statements tying those together
(extensions that are conjugation quandles have constant invariants, power
cocycles force coefficient vanishing, non-constant invariants certify that no
quandle has the extension as its inner image).

All data types are immutable after construction and every operation is a
pure function, so everything here is safe to call concurrently.  The data
types are named tuples, checked in __new__: a value equals the plain tuple
of its fields and iterates over them, and _make and _replace, which skip
__new__ and its checks, are never called.
"""

from .cohomology import (CohomologyGroup, Cocycle2, coboundary, cocycle,
                         cocycle_power, cohomologous, second_cohomology)
from .constructions import (FiniteGroup, GroupAutomorphism, abelian_extension,
                            alexander_quandle, conjugation_automorphism,
                            conjugation_quandle, cyclic_group,
                            dihedral_quandle, finite_group,
                            generalized_alexander_quandle, symmetric_group,
                            trivial_quandle)
from .core import (Quandle, QuandleMap, epimorphism_index, inn_image,
                   inner_group, is_connected, is_covering, is_faithful,
                   validate_quandle)
from .envgroup import (ConjugationCriterion, CosetTable, Presentation,
                       conjugation_criterion, todd_coxeter)
from .knotdata import bundled_knots
from .knots import (BraidKnot, Coloring, GroupRingElt, Tangle,
                    enumerate_colorings, is_constant, lift_coloring,
                    parse_braid, state_sum, tangle_colorings)
from .pipeline import (InnSequence, constancy_pipeline, fiber_criterion,
                       inn_sequence, nonconstancy_certificates,
                       power_coefficient_check, recover_index2_cocycle)

__version__ = "0.1.0"

# Kept constant: benchmark results record it and compare only equal values.
kernel_backend = "pure"
