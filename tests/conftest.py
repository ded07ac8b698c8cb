import functools

import pytest

from frobloc.enumeration import census, stratum_table
from frobloc.monomials import MonomialIdeal


@pytest.fixture(scope="session")
def censuses():
    """census(n), enumerated once per test session."""
    return functools.cache(census)


@pytest.fixture(scope="session")
def stratum_tables(censuses):
    """stratum_table(census(n)), built once per test session: it does not
    depend on p."""
    return functools.cache(lambda n: stratum_table(censuses(n)))


@pytest.fixture(scope="session")
def squarefree_classes(censuses):
    """census(n).classes, enumerated once per test session."""
    return lambda n: tuple(censuses(n).classes)


@pytest.fixture
def chain3():
    """(x1*x2, x2*x3): the classical infinitely generated example."""
    return MonomialIdeal([(1, 1, 0), (0, 1, 1)])


@pytest.fixture
def chain4():
    """(x1*x2*x3, x3*x4)."""
    return MonomialIdeal([(1, 1, 1, 0), (0, 0, 1, 1)])


@pytest.fixture
def chain5():
    """(x1*x2*x3, x3*x4, x4*x5)."""
    return MonomialIdeal([(1, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1)])
