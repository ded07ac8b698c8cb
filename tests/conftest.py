import pytest

from frobloc.monomials import MonomialIdeal


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
