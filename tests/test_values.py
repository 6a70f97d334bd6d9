"""The contract of the public value types: immutable, equal and hashed by
their fields, built alike by position and by keyword, and checked on
construction where the type has a check."""

import ast
import copy
import types
from pathlib import Path

import pytest

from quandleforge.cohomology import Cocycle2, CohomologyGroup
from quandleforge.constructions import (FiniteGroup, GroupAutomorphism,
                                        abelian_extension, cyclic_group,
                                        dihedral_quandle)
from quandleforge.core import IndexReport, Quandle, QuandleMap
from quandleforge.envgroup import (ConjugationCriterion, CosetTable,
                                   Presentation, todd_coxeter)
from quandleforge.errors import NotACocycle, NotAHomomorphism
from quandleforge.knots import BraidKnot, Coloring, GroupRingElt, parse_braid
from quandleforge.pipeline import (Certificate, ExtensionVerdict,
                                   FiberReport, InnSequence, PowerCheckReport)
from quandleforge.snf import SmithForm

SRC = Path(__file__).resolve().parent.parent / "src"

D3 = dihedral_quandle(3)
Z3 = cyclic_group(3)
TREFOIL = parse_braid("3_1", 2, [1, 1, 1])
ZERO = Cocycle2.zero(3, 2)
E6 = abelian_extension(D3, ZERO)
CYCLIC = Presentation(1, ((1, 1, 1),))

# one value of each public type, as its fields in declaration order
SAMPLES = {
    Quandle: {"n": 3, "table": D3.table},
    QuandleMap: {"source": D3, "target": D3, "images": (0, 2, 1)},
    IndexReport: {"index": 2, "fibers_equal": True},
    Cocycle2: {"n": 3, "m": 2, "values": ZERO.values},
    CohomologyGroup: {"m": 2, "invariant_factors": (2,),
                      "representatives": (ZERO,)},
    FiniteGroup: {"order": 3, "mult": Z3.mult, "identity": 0,
                  "inverse": Z3.inverse},
    GroupAutomorphism: {"group": Z3, "images": (0, 2, 1)},
    Presentation: {"ngens": 1, "relators": ((1, 1, 1),)},
    CosetTable: {"presentation": CYCLIC, "size": 3,
                 "columns": todd_coxeter(CYCLIC).columns},
    ConjugationCriterion: {"connected": True, "order": 6,
                           "collision": (0, 1)},
    BraidKnot: {"name": "3_1", "strands": 2, "word": (1, 1, 1)},
    Coloring: {"top": (0, 1), "bottom": (1, 0),
               "source_pairs": ((0, 1, 1), (1, 2, 1), (2, 0, 1))},
    GroupRingElt: {"m": 3, "coeffs": (3, 0, 6)},
    InnSequence: {"quandles": (D3,), "maps": ()},
    FiberReport: {"holds": False, "witness": ((1, 0, 2), 2, 0)},
    ExtensionVerdict: {"extension": E6, "is_conjugation": "no",
                       "invariants": {"3_1": GroupRingElt(2, (6, 0))},
                       "invariant_constant_on_corpus": True},
    PowerCheckReport: {"n": 4, "d": 2, "m": 2, "hypothesis_held": False,
                       "verdict": None, "coefficients": {"3_1": (4, 0, 0, 0)},
                       "vanishing_ok": None},
    Certificate: {"m": 2, "extension": E6, "witness_knots": ["3_1"],
                  "conjugation_verdict": "no"},
    SmithForm: {"diag": [1, 2], "Uinv": None,
                "V": [{0: 1}, {1: 1}, {2: 1}],
                "Vinv": [{0: 1}, {1: 1}, {2: 1}]},
}

# the types holding a dict or a list, which cannot be hashed
UNHASHABLE = {ExtensionVerdict, PowerCheckReport, Certificate, SmithForm}

TYPES = pytest.mark.parametrize("cls", list(SAMPLES),
                                ids=[cls.__name__ for cls in SAMPLES])


# every name quandleforge exports serves a forge command or states a result
# of the paper; a helper only the tests need belongs in tests/helpers.py
EXPORTED = [
    "BraidKnot", "Cocycle2", "CohomologyGroup", "Coloring",
    "ConjugationCriterion", "CosetTable", "FiniteGroup", "GroupAutomorphism",
    "GroupRingElt", "InnSequence", "Presentation", "Quandle", "QuandleMap",
    "abelian_extension", "alexander_quandle", "bundled_knots",
    "coboundary", "cocycle", "cocycle_power", "cohomologous",
    "conjugation_automorphism", "conjugation_criterion", "conjugation_quandle",
    "constancy_pipeline", "cyclic_group", "dihedral_quandle",
    "enumerate_colorings", "epimorphism_index", "fiber_criterion",
    "finite_group", "generalized_alexander_quandle", "inn_image",
    "inn_sequence", "inner_group", "is_connected", "is_constant",
    "is_covering", "is_faithful", "kernel_backend", "lift_coloring",
    "nonconstancy_certificates", "parse_braid", "power_coefficient_check",
    "recover_index2_cocycle", "second_cohomology", "state_sum",
    "symmetric_group", "tangle_colorings", "todd_coxeter", "trivial_quandle",
    "validate_quandle",
]


def exported_values():
    """Each public name of the package with its value.  The package looks
    its names up in their layers on first use, so they are listed by
    dir(), not held in vars()."""
    import quandleforge
    return {name: getattr(quandleforge, name) for name in dir(quandleforge)
            if not name.startswith("_")}


def test_exported_names_are_pinned():
    public = sorted(name for name, v in exported_values().items()
                    if not isinstance(v, types.ModuleType))
    assert public == EXPORTED


def test_every_public_value_type_is_sampled():
    exported = {v for v in exported_values().values()
                if isinstance(v, type) and not issubclass(v, Exception)}
    assert exported <= set(SAMPLES)


@TYPES
def test_equal_fields_give_equal_values(cls):
    fields = SAMPLES[cls]
    a, b = cls(**fields), cls(**copy.deepcopy(fields))
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@TYPES
def test_values_are_immutable(cls):
    value = cls(**SAMPLES[cls])
    first = next(iter(SAMPLES[cls]))
    with pytest.raises(AttributeError):
        setattr(value, first, None)
    with pytest.raises(AttributeError):
        value.unknown_field = None
    assert getattr(value, first) is SAMPLES[cls][first]


@TYPES
def test_keyword_and_position_agree(cls):
    fields = SAMPLES[cls]
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    for name, v in fields.items():
        assert getattr(by_position, name) is v


@TYPES
def test_values_are_tuples_of_their_fields(cls):
    # documented: a value equals the plain tuple of its fields and iterates
    fields = SAMPLES[cls]
    value = cls(**fields)
    assert value == tuple(fields.values())
    assert list(value) == list(fields.values())


@pytest.mark.parametrize("build, error, message", [
    (lambda: QuandleMap(D3, D3, (0, 1)), NotAHomomorphism,
     "image list has wrong length"),
    (lambda: QuandleMap(D3, D3, (0, 1, 3)), NotAHomomorphism,
     "image out of range"),
    (lambda: QuandleMap(D3, D3, (0, 0, 1)), NotAHomomorphism,
     r"f\(0\*1\) != f\(0\)\*f\(1\)"),
    (lambda: Cocycle2(2, 0, ((0, 0), (0, 0))), ValueError,
     "modulus must be >= 1"),
    (lambda: Cocycle2(2, 2, ((0, 0),)), ValueError, "values must be n x n"),
    (lambda: Cocycle2(2, 2, ((0, 1), (0, 1))), NotACocycle,
     "nonzero diagonal entry; witness 1"),
    (lambda: Cocycle2(2, 2, ((0, 2), (0, 0))), ValueError,
     "values must be reduced mod m"),
    (lambda: GroupRingElt(3, (1, 2)), ValueError,
     "coefficient vector must have length m"),
    (lambda: Presentation(2, ((1,), ())), ValueError,
     "relators must be nonempty"),
    (lambda: Presentation(2, ((1, 3),)), ValueError, "bad generator 3"),
    (lambda: Presentation(2, ((0,),)), ValueError, "bad generator 0"),
    (lambda: GroupAutomorphism(Z3, (0, 0, 1)), ValueError,
     "automorphism images must be a bijection"),
    (lambda: GroupAutomorphism(Z3, (1, 2, 0)), ValueError,
     r"not multiplicative at \(0, 0\)"),
], ids=["map-length", "map-range", "map-law",
        "cocycle-modulus", "cocycle-shape", "cocycle-diagonal",
        "cocycle-range", "group-ring", "presentation-empty",
        "presentation-range", "presentation-zero", "automorphism-bijection",
        "automorphism-law"])
def test_validators_raise(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_cocycle_rows_are_stored_as_tuples():
    # Cocycle2 alone copies list rows into tuples, so one built from lists
    # hashes, and equals the value built from tuples
    from_lists = Cocycle2(2, 2, [[0, 1], [1, 0]])
    from_tuples = Cocycle2(2, 2, ((0, 1), (1, 0)))
    assert from_lists.values == ((0, 1), (1, 0))
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)


def test_custom_reprs():
    assert repr(D3) == "Quandle(n=3)"
    assert repr(TREFOIL) == "BraidKnot('3_1', s=2, word=[1, 1, 1])"


def test_nothing_skips_the_checks():
    # _make and _replace build a value without __new__, and so without its
    # checks
    for path in sorted((SRC / "quandleforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("_make", "_replace"), \
                    (path.name, node.lineno)
