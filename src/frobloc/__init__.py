"""Frobenius powers, colon decompositions and the finitely-generated locus
of square-free monomial ideals in prime characteristic."""

from ._kernels import ACTIVE_BACKEND
from .errors import (
    AmbientMismatch,
    DegenerateIdeal,
    FroblocError,
    InadmissibleStratum,
    ResourceLimit,
    SquareFreeViolation,
)
from .monomials import MonomialIdeal, PrimePower, substitute
from .symbolic import (
    ColonDecomposition,
    GenerationClass,
    SymbolicIdeal,
    colon_symbolic,
    compute_beta,
    compute_u_prime,
    decompose,
    validate_square_free,
)
from .locus import (
    LocusReport,
    Openness,
    build_locus,
    classify_stratum,
    enumerate_strata,
    is_open,
    render_expression,
)
from .oracle import GenerationProfile, classify_up_to, compute_f

__version__ = "0.1.0"

__all__ = [
    "ACTIVE_BACKEND",
    "AmbientMismatch",
    "ColonDecomposition",
    "DegenerateIdeal",
    "FroblocError",
    "GenerationClass",
    "GenerationProfile",
    "InadmissibleStratum",
    "LocusReport",
    "MonomialIdeal",
    "Openness",
    "PrimePower",
    "ResourceLimit",
    "SquareFreeViolation",
    "SymbolicIdeal",
    "build_locus",
    "classify_stratum",
    "classify_up_to",
    "colon_symbolic",
    "compute_beta",
    "compute_f",
    "compute_u_prime",
    "decompose",
    "enumerate_strata",
    "is_open",
    "render_expression",
    "substitute",
    "validate_square_free",
]
