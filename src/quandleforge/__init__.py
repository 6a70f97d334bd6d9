"""quandleforge: finite quandle computation.

Constructs abelian extensions and conjugation quandles, computes second
quandle cohomology and cocycle knot invariants over braid-closure diagrams,
and mechanically cross-checks the constancy statements tying those together
(extensions that are conjugation quandles have constant invariants, power
cocycles force coefficient vanishing, non-constant invariants certify that no
quandle has the extension as its inner image).

Every operation is a pure function and every value built here is immutable,
so everything here is safe to call concurrently once the layers it uses
have loaded.  The data types are named tuples: a value equals the plain
tuple of its fields and iterates over them.  Quandle, FiniteGroup and
BraidKnot have no __new__: validate_quandle, finite_group and parse_braid
check them, and an extension's Quandle is built from a checked cocycle.
_make and _replace, which skip __new__ and its checks, are never called.
A value is immutable and hashable when its fields are tuples, as every
constructor here passes; Cocycle2 copies list rows into tuples, and the
other types keep the lists they are given.

Every layer except cli is registered here with importlib's LazyLoader, so a
request executes only the layers it uses: each module is in sys.modules from
the start, and runs on its first attribute access.  The exported names below
are looked up in their layer on each use (PEP 562).  A layer's first use
from two threads at once is unsafe where LazyLoader takes no lock (before
Python 3.13): import the names to share from one thread first.
"""

import importlib.util
import sys

# the exported names, by the layer that defines them
_EXPORTS = {
    "cohomology": ("CohomologyGroup", "Cocycle2", "coboundary", "cocycle",
                   "cocycle_power", "cohomologous", "second_cohomology"),
    "constructions": ("FiniteGroup", "GroupAutomorphism", "abelian_extension",
                      "alexander_quandle", "conjugation_automorphism",
                      "conjugation_quandle", "cyclic_group",
                      "dihedral_quandle", "finite_group",
                      "generalized_alexander_quandle", "symmetric_group",
                      "trivial_quandle"),
    "core": ("Quandle", "QuandleMap", "epimorphism_index", "inn_image",
             "inner_group", "is_connected", "is_covering", "is_faithful",
             "validate_quandle"),
    "envgroup": ("ConjugationCriterion", "CosetTable", "Presentation",
                 "conjugation_criterion", "todd_coxeter"),
    "knots": ("BraidKnot", "Coloring", "GroupRingElt", "bundled_knots",
              "enumerate_colorings", "is_constant", "lift_coloring",
              "parse_braid", "state_sum", "tangle_colorings"),
    "pipeline": ("InnSequence", "constancy_pipeline", "fiber_criterion",
                 "inn_sequence", "nonconstancy_certificates",
                 "power_coefficient_check", "recover_index2_cocycle"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items()
             for name in names}

__version__ = "0.1.0"

# Kept constant: benchmark results record it and compare only equal values.
kernel_backend = "pure"


# every layer but cli, which `python -m quandleforge.cli` runs as __main__
for _layer in (*_EXPORTS, "_kernels", "errors", "io", "snf"):
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_layer] = _module
    _spec.loader.exec_module(_module)


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *_LAYER_OF})
