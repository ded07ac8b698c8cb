"""Exception types shared across the package."""


class FroblocError(Exception):
    """Base class for all package-specific errors."""


class AmbientMismatch(FroblocError):
    """Operands live in polynomial rings with different variable counts."""


class SquareFreeViolation(FroblocError):
    """An ideal required to be square-free has an exponent larger than 1."""


class DegenerateIdeal(FroblocError):
    """The zero or unit ideal was passed where a proper ideal is required."""


class InadmissibleStratum(FroblocError):
    """The stratum meets no prime containing the ideal."""


class ResourceLimit(FroblocError):
    """A computation would exceed a size bound: the intermediate generator
    budget or the number of strata."""
