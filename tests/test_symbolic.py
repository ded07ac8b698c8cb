import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobloc.enumeration import canonical_squarefree_ideals
from frobloc.errors import DegenerateIdeal, SquareFreeViolation
from frobloc.monomials import MonomialIdeal, PrimePower
from frobloc.symbolic import (
    GenerationClass,
    SymbolicIdeal,
    SymExp,
    classify_global,
    colon_symbolic,
    compute_beta,
    compute_u_prime,
    decompose,
    format_symbolic_monomial,
    validate_square_free,
)

Q = (1, 0)
QM1 = (1, -1)
Z = (0, 0)


class TestValidation:
    def test_accepts_square_free(self, chain3):
        assert validate_square_free(chain3) is chain3

    def test_rejects_square(self):
        with pytest.raises(SquareFreeViolation):
            validate_square_free(MonomialIdeal([(2,)]))

    def test_rejects_unit_and_zero(self):
        with pytest.raises(DegenerateIdeal):
            validate_square_free(MonomialIdeal.unit(2))
        with pytest.raises(DegenerateIdeal):
            validate_square_free(MonomialIdeal.zero(2))


class TestBeta:
    def test_chain3(self, chain3):
        assert compute_beta(chain3) == (1, 1, 1)

    def test_chain4(self, chain4):
        assert compute_beta(chain4) == (1, 1, 1, 1)

    def test_partial_support(self):
        assert compute_beta(MonomialIdeal([(1, 0, 0)])) == (1, 0, 0)


class TestSymbolicIdeal:
    def test_uniform_minimalization(self):
        # q | q^1 uniformly, so the second generator is redundant
        ideal = SymbolicIdeal([[QM1, Z], [Q, Z]], 2)
        assert ideal.terms() == ((SymExp(1, -1), SymExp(0, 0)),)

    @pytest.mark.parametrize("form", [(0, 1), (0, 2), (0, 3), (2, 1), (1, -3)])
    def test_forms_outside_rank_chain_rejected(self, form):
        # only 0, q-1 and q have a rank
        with pytest.raises(ValueError):
            SymbolicIdeal([[form, Q]], 2)

    def test_instantiate_validates(self):
        ideal = SymbolicIdeal([[Q]], 1)
        with pytest.raises(ValueError):
            ideal.instantiate(1)
        assert ideal.instantiate(9) == MonomialIdeal([(9,)])

    def test_negative_at_q2_rejected(self):
        # q-3 is negative at the q=2 endpoint
        with pytest.raises(ValueError):
            SymbolicIdeal([[(1, -3)]], 1)

    def test_render(self):
        ideal = SymbolicIdeal([[Q, QM1, Z, Q]], 4)
        assert ideal.render() == "(x1^q*x2^(q-1)*x4^q)"
        assert format_symbolic_monomial((SymExp(0, 0),)) == "1"
        assert format_symbolic_monomial((SymExp(0, 1), SymExp(2, 1))) == "x1*x2^(2q+1)"


class TestColonSymbolic:
    def test_principal_one_variable(self):
        assert colon_symbolic(MonomialIdeal([(1,)]), 2) == SymbolicIdeal([[QM1]], 1)

    def test_two_variables(self):
        # pattern confirmed by the concrete colon at q = 2 and q = 4 below
        ideal = MonomialIdeal([(1, 0), (0, 1)])
        sym = colon_symbolic(ideal, 2)
        assert sym == SymbolicIdeal([[Q, Z], [QM1, QM1], [Z, Q]], 2)
        for q in (2, 4):
            concrete = ideal.frobenius_power(q).colon(ideal)
            assert sym.instantiate(q) == concrete

    def test_chain3_minimal_generators(self, chain3):
        sym = colon_symbolic(chain3, 2)
        assert sym == SymbolicIdeal(
            [[Q, QM1, Z], [Z, QM1, Q], [QM1, QM1, QM1]], 3
        )

    def test_rejects_non_square_free(self):
        with pytest.raises(SquareFreeViolation):
            colon_symbolic(MonomialIdeal([(2, 1)]), 2)
        with pytest.raises(ValueError):
            colon_symbolic(MonomialIdeal([(1, 1)]), 6)


class TestDecompose:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_chain3(self, chain3, p):
        d = decompose(chain3, p)
        assert d.j_part == SymbolicIdeal([[Q, QM1, Z], [Z, QM1, Q]], 3)
        assert d.beta == (1, 1, 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_chain4(self, chain4, p):
        d = decompose(chain4, p)
        assert d.j_part == SymbolicIdeal([[Q, Q, QM1, Z], [Z, Z, QM1, Q]], 4)
        assert d.beta == (1, 1, 1, 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_chain5(self, chain5, p):
        d = decompose(chain5, p)
        assert d.j_part == SymbolicIdeal(
            [[QM1, QM1, Q, QM1, Z], [Z, Z, QM1, Q, QM1]], 5
        )
        assert d.beta == (1, 1, 1, 1, 1)

    def test_parts_partition_colon(self, chain5):
        d = decompose(chain5, 2)
        total = d.frobenius_part.num_generators() + d.j_part.num_generators() + 1
        assert total == colon_symbolic(chain5, 2).num_generators()

    def test_generator_order(self):
        # support (slope vector) first, then rank; plain rank order would
        # put the second generator last
        ideal = MonomialIdeal([(0, 0, 1, 1, 0), (1, 0, 1, 0, 1), (1, 1, 0, 0, 0)])
        assert decompose(ideal, 2).j_part.terms() == (
            (QM1, Z, Q, QM1, Q),
            (Q, QM1, QM1, Z, Q),
            (QM1, QM1, QM1, Q, Z),
            (QM1, Q, QM1, QM1, Z),
        )

    def test_socle_exponents(self, chain3):
        assert decompose(chain3, 2).socle_exponents == (
            SymExp(1, -1),
            SymExp(1, -1),
            SymExp(1, -1),
        )


class TestInstantiate:
    def test_j_part_at_q2(self, chain3):
        d = decompose(chain3, 2)
        parts = d.instantiate(1)
        assert parts.j == MonomialIdeal([(2, 1, 0), (0, 1, 2)])
        assert parts.socle == MonomialIdeal([(1, 1, 1)])

    def test_j_part_at_q4(self, chain3):
        parts = decompose(chain3, 2).instantiate(2)
        assert parts.j == MonomialIdeal([(4, 3, 0), (0, 3, 4)])

    def test_full_sum_equals_colon(self, chain3):
        for p, e in [(2, 1), (2, 2), (3, 1)]:
            parts = decompose(chain3, p).instantiate(e)
            expected = chain3.frobenius_power(PrimePower(p, e)).colon(chain3)
            assert parts.colon == expected


class TestClassifyGlobal:
    def test_infinite(self, chain3):
        assert classify_global(decompose(chain3, 2)) is GenerationClass.INFINITE

    def test_principal_ideal(self):
        d = decompose(MonomialIdeal([(1, 1)]), 2)
        assert classify_global(d) is GenerationClass.PRINCIPAL
        assert d.principal_witness == (1, 1)
        assert d.j_part.is_zero()

    def test_two_variables_principal(self):
        # confirmed against the concrete colon at q = 2 and 4
        ideal = MonomialIdeal([(1, 0), (0, 1)])
        d = decompose(ideal, 2)
        for e in (1, 2):
            parts = d.instantiate(e)
            assert parts.colon == ideal.frobenius_power(PrimePower(2, e)).colon(ideal)
        assert d.generation_class is GenerationClass.PRINCIPAL

    def test_witness_scales_with_p(self, chain3):
        d = decompose(MonomialIdeal([(1, 1, 1)]), 5)
        assert d.principal_witness == (4, 4, 4)


class TestUPrime:
    def test_chain3(self, chain3):
        assert compute_u_prime(decompose(chain3, 2)) == MonomialIdeal([(0, 1, 0)])

    def test_principal_gives_unit(self):
        d = decompose(MonomialIdeal([(1, 1)]), 3)
        assert compute_u_prime(d).is_unit()

    def test_chain4(self, chain4):
        assert compute_u_prime(decompose(chain4, 2)) == MonomialIdeal(
            [(0, 0, 1, 0)], 4
        )


# ---------------------------------------------------------------------------
# invariants


def _fixtures():
    return [
        MonomialIdeal([(1, 1, 0), (0, 1, 1)]),
        MonomialIdeal([(1, 1, 1, 0), (0, 0, 1, 1)]),
        MonomialIdeal([(1, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1)]),
        MonomialIdeal([(1, 1)]),
        MonomialIdeal([(1, 0), (0, 1)]),
        MonomialIdeal([(1, 1, 0), (0, 1, 1), (1, 0, 1)]),
    ]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_e_stability(p, e):
    for ideal in _fixtures():
        sym = colon_symbolic(ideal, p)
        concrete = ideal.frobenius_power(PrimePower(p, e)).colon(ideal)
        assert sym.instantiate(p**e) == concrete


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_decomposition_completeness(p, e):
    for ideal in _fixtures():
        parts = decompose(ideal, p).instantiate(e)
        assert parts.colon == ideal.frobenius_power(PrimePower(p, e)).colon(ideal)


def test_symbolic_exponents_stay_in_triple_set():
    allowed = {(0, 0), (1, -1), (1, 0)}
    for ideal in _fixtures():
        for term in colon_symbolic(ideal, 2).terms():
            assert {tuple(exp) for exp in term} <= allowed


def test_j_generators_carry_q_and_qm1_and_a_zero():
    # the simultaneous q/q-1 pattern always; a 0 exponent on the fixtures
    for ideal in _fixtures():
        d = decompose(ideal, 3)
        for term in d.j_part.terms():
            entries = {tuple(exp) for exp in term}
            assert (1, 0) in entries and (1, -1) in entries
            assert (0, 0) in entries


def test_classification_independent_of_p():
    for n in (1, 2, 3):
        for ideal, _ in canonical_squarefree_ideals(n):
            classes = {decompose(ideal, p).generation_class for p in (2, 3, 5)}
            assert len(classes) == 1


def test_e_stability_sweep_all_small_ideals():
    # beyond the named fixtures: every canonical square-free ideal, n <= 5
    for n in (1, 2, 3, 4, 5):
        for ideal, _ in canonical_squarefree_ideals(n):
            for p in (2, 3, 5):
                sym = colon_symbolic(ideal, p)
                for e in (1, 2):
                    concrete = ideal.frobenius_power(PrimePower(p, e)).colon(ideal)
                    assert sym.instantiate(p**e) == concrete, (ideal.render(), p, e)


@st.composite
def ideal_and_inverted(draw):
    """A random square-free ideal, n <= 7, and a set W of variables whose
    inversion leaves it proper."""
    n = draw(st.integers(1, 7))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    ideal = MonomialIdeal([[m >> i & 1 for i in range(n)] for m in masks], n)
    z = draw(st.integers(0, (1 << n) - 1))
    for g in ideal.generators():  # keep a variable of every generator
        if not any(g[i] and z >> i & 1 for i in range(n)):
            z |= 1 << g.index(1)
    return ideal, [i + 1 for i in range(n) if not z >> i & 1]


@given(ideal_and_inverted(), st.sampled_from([2, 3, 5]))
@settings(max_examples=60, deadline=None)
def test_rank_encoding_random(case, p):
    ideal, inverted = case
    sym = colon_symbolic(ideal, p)
    for e in (1, 2):
        concrete = ideal.frobenius_power(PrimePower(p, e)).colon(ideal)
        assert sym.instantiate(p**e) == concrete
    local = decompose(ideal, p).localize(inverted)
    for part in (local.colon, local.frobenius_part, local.j_part):
        assert set(np.unique(part.enc).tolist()) <= {0, 1, 2}


def test_j_part_disjoint_from_other_groups():
    for ideal in _fixtures():
        d = decompose(ideal, 2)
        frob = d.frobenius_part.instantiate(4)
        socle = MonomialIdeal([[3 * b for b in d.beta]], ideal.n)
        for term in d.j_part.terms():
            mono = tuple(exp.at(4) for exp in term)
            assert mono not in frob + socle
