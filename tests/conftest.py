import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from quandleforge.cohomology import second_cohomology
from quandleforge.constructions import dihedral_quandle
from quandleforge.knots import bundled_knots

from helpers import (corpus_quandles, extension_with_projection,
                     sym4_class_quandle, tetrahedral_quandle)


@pytest.fixture(scope="session")
def d3():
    return dihedral_quandle(3)


@pytest.fixture(scope="session")
def d4():
    return dihedral_quandle(4)


@pytest.fixture(scope="session")
def d5():
    return dihedral_quandle(5)


@pytest.fixture(scope="session")
def tetrahedral():
    return tetrahedral_quandle()


@pytest.fixture(scope="session")
def x6():
    """The conjugacy-class quandle of transpositions in Sym(4)."""
    return sym4_class_quandle((1, 1, 2))


@pytest.fixture(scope="session")
def x6_psi(x6):
    """The generator of H^2(x6, Z_2)."""
    h = second_cohomology(x6, 2)
    assert h.invariant_factors == (2,)
    return h.representatives[0]


@pytest.fixture(scope="session")
def e12(x6, x6_psi):
    """E(x6, Z_2, generator): order 12, with its projection."""
    return extension_with_projection(x6, x6_psi)


@pytest.fixture(scope="session")
def tet_psi(tetrahedral):
    h = second_cohomology(tetrahedral, 2)
    assert h.invariant_factors == (2,)
    return h.representatives[0]


@pytest.fixture(scope="session")
def knots():
    return bundled_knots()


@pytest.fixture(scope="session")
def corpus():
    return corpus_quandles()
