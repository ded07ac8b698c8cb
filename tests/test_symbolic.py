import pickle
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from frobloc.errors import DegenerateIdeal, FroblocError, SquareFreeViolation
from frobloc.monomials import MonomialIdeal, PrimePower, substitute
from frobloc.symbolic import (
    GenerationClass,
    SymbolicIdeal,
    _residual_rows,
    colon_symbolic,
    compute_beta,
    compute_u_prime,
    decompose,
    validate_square_free,
)

# the ranks of the exponents q, q-1 and 0
Q, QM1, Z = 2, 1, 0


def sym_ideal(rows, n):
    return SymbolicIdeal(MonomialIdeal(rows, n))


def decomposition_sum(ideal, d, power):
    """I^[q] + J_q + ((x^beta)^(q-1)) at q = p^e, each sum by definition."""
    q = power.q
    socle = MonomialIdeal([[b * (q - 1) for b in d.beta]], ideal.n)
    image = ideal.frobenius_power(power)
    return _brute.ideal_sum(_brute.ideal_sum(image, d.j_part.instantiate(q)), socle)


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

    def test_zero_ideal(self):
        assert compute_beta(MonomialIdeal.zero(3)) == (0, 0, 0)


class TestSymbolicIdeal:
    def test_uniform_minimalization(self):
        # q | q^1 uniformly, so the second generator is redundant
        ideal = sym_ideal([[QM1, Z], [Q, Z]], 2)
        assert ideal.rank_rows() == [[QM1, Z]]

    def test_rank_above_q_rejected(self):
        # only 0, q-1 and q have a rank
        with pytest.raises(ValueError):
            sym_ideal([[3, Q]], 2)

    def test_instantiate_validates(self):
        ideal = sym_ideal([[Q]], 1)
        with pytest.raises(ValueError):
            ideal.instantiate(1)
        assert ideal.instantiate(9) == MonomialIdeal([(9,)])

    def test_instantiate_q_boundary(self):
        ideal = sym_ideal([[Q]], 1)
        assert ideal.instantiate(2**62 - 1) == MonomialIdeal([(2**62 - 1,)])
        for q in (2**62, 3**40, 10**100):
            with pytest.raises(OverflowError, match=r"^q=\d+ exceeds the int64 guard"):
                ideal.instantiate(q)

    def test_render(self):
        ideal = sym_ideal([[Q, QM1, Z, Q]], 4)
        assert ideal.render() == "(x1^q*x2^(q-1)*x4^q)"
        assert sym_ideal([[Z, Z]], 2).render() == "(1)"
        assert sym_ideal([], 2).render() == "(0)"
        # display order: by support first, then by rank
        ideal = sym_ideal([[Q, QM1, Z], [Z, QM1, Q], [QM1, Z, QM1]], 3)
        assert ideal.render() == (
            "(x2^(q-1)*x3^q, x1^(q-1)*x3^(q-1), x1^q*x2^(q-1))"
        )


class TestColonSymbolic:
    def test_principal_one_variable(self):
        assert colon_symbolic(MonomialIdeal([(1,)])) == sym_ideal([[QM1]], 1)

    def test_two_variables(self):
        # pattern confirmed by the concrete colon at q = 2 and q = 4 below
        ideal = MonomialIdeal([(1, 0), (0, 1)])
        sym = colon_symbolic(ideal)
        assert sym == sym_ideal([[Q, Z], [QM1, QM1], [Z, Q]], 2)
        for e in (1, 2):
            concrete = ideal.frobenius_power(PrimePower(2, e)).colon(ideal)
            assert sym.instantiate(2**e) == concrete

    def test_chain3_minimal_generators(self, chain3):
        sym = colon_symbolic(chain3)
        assert sym == sym_ideal(
            [[Q, QM1, Z], [Z, QM1, Q], [QM1, QM1, QM1]], 3
        )

    def test_rejects_non_square_free(self):
        with pytest.raises(SquareFreeViolation):
            colon_symbolic(MonomialIdeal([(2, 1)]))


class TestDecompose:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_chain3(self, chain3, p):
        d = decompose(chain3, p)
        assert d.j_part == sym_ideal([[Q, QM1, Z], [Z, QM1, Q]], 3)
        assert d.beta == (1, 1, 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_chain4(self, chain4, p):
        d = decompose(chain4, p)
        assert d.j_part == sym_ideal([[Q, Q, QM1, Z], [Z, Z, QM1, Q]], 4)
        assert d.beta == (1, 1, 1, 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_chain5(self, chain5, p):
        d = decompose(chain5, p)
        assert d.j_part == sym_ideal(
            [[QM1, QM1, Q, QM1, Z], [Z, Z, QM1, Q, QM1]], 5
        )
        assert d.beta == (1, 1, 1, 1, 1)

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError, match="p=6 is not prime"):
            decompose(MonomialIdeal([(1, 1)]), 6)
        # the square-free check comes first
        with pytest.raises(SquareFreeViolation):
            decompose(MonomialIdeal([(2, 1)]), 6)

    def test_parts_partition_colon(self, squarefree_classes):
        # the image rows, the J rows and the socle row beta are the colon's
        for n in range(1, 5):
            for ideal, _ in squarefree_classes(n):
                d = decompose(ideal, 2)
                parts = d.frobenius_part.rank_rows() + d.j_part.rank_rows()
                rows = colon_symbolic(ideal).rank_rows()
                assert sorted(parts + [list(d.beta)]) == sorted(rows), ideal

    def test_generator_order(self):
        # support (slope vector) first, then rank; plain rank order would
        # put the second generator last
        ideal = MonomialIdeal([(0, 0, 1, 1, 0), (1, 0, 1, 0, 1), (1, 1, 0, 0, 0)])
        assert decompose(ideal, 2).j_part.rank_rows() == [
            [QM1, Z, Q, QM1, Q],
            [Q, QM1, QM1, Z, Q],
            [QM1, QM1, QM1, Q, Z],
            [QM1, Q, QM1, QM1, Z],
        ]

    def test_residual_row_without_both_ranks_is_rejected(self):
        # x1^q is outside (x1*x2)^[q] and not above beta, but has no q-1
        with pytest.raises(FroblocError, match="q/q-1 pattern"):
            _residual_rows(MonomialIdeal([(1, 1)]), np.array([[2, 0]]), (1, 1))


class TestInstantiate:
    def test_j_part_at_q2(self, chain3):
        j = decompose(chain3, 2).j_part.instantiate(2)
        assert j == MonomialIdeal([(2, 1, 0), (0, 1, 2)])

    def test_j_part_at_q4(self, chain3):
        j = decompose(chain3, 2).j_part.instantiate(4)
        assert j == MonomialIdeal([(4, 3, 0), (0, 3, 4)])

    @pytest.mark.parametrize("p,e", [(2, 62), (3, 40), (3, 62), (3, 10**6), (2, 10**9)])
    def test_huge_e_is_refused_fast(self, chain3, p, e):
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="exceeds the int64 guard"):
            chain3.frobenius_power(PrimePower(p, e))
        assert time.perf_counter() - start < 1.0

    def test_e_boundary(self, chain3):
        q = 3**39  # 3^39 < 2^62 < 3^40
        power = chain3.frobenius_power(PrimePower(3, 39))
        assert power == MonomialIdeal([(q, q, 0), (0, q, q)])
        j = decompose(chain3, 3).j_part.instantiate(q)
        assert j == MonomialIdeal([(q, q - 1, 0), (0, q - 1, q)])

    def test_full_sum_equals_colon(self, chain3):
        for p, e in [(2, 1), (2, 2), (3, 1)]:
            power = PrimePower(p, e)
            expected = chain3.frobenius_power(power).colon(chain3)
            assert decomposition_sum(chain3, decompose(chain3, p), power) == expected


class TestClassifyGlobal:
    def test_infinite(self, chain3):
        assert decompose(chain3, 2).generation_class is GenerationClass.INFINITE

    def test_principal_ideal(self):
        d = decompose(MonomialIdeal([(1, 1)]), 2)
        assert d.generation_class is GenerationClass.PRINCIPAL
        assert d.principal_witness == (1, 1)
        assert d.j_part.is_zero()

    def test_two_variables_principal(self):
        # confirmed against the concrete colon at q = 2 and 4
        ideal = MonomialIdeal([(1, 0), (0, 1)])
        d = decompose(ideal, 2)
        for e in (1, 2):
            power = PrimePower(2, e)
            colon = ideal.frobenius_power(power).colon(ideal)
            assert decomposition_sum(ideal, d, power) == colon
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
        sym = colon_symbolic(ideal)
        concrete = ideal.frobenius_power(PrimePower(p, e)).colon(ideal)
        assert sym.instantiate(p**e) == concrete


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_decomposition_completeness(p, e):
    power = PrimePower(p, e)
    for ideal in _fixtures():
        colon = ideal.frobenius_power(power).colon(ideal)
        assert decomposition_sum(ideal, decompose(ideal, p), power) == colon


def test_symbolic_exponents_stay_in_triple_set():
    for ideal in _fixtures():
        for row in colon_symbolic(ideal).rank_rows():
            assert set(row) <= {Z, QM1, Q}


def test_j_generators_carry_q_and_qm1_and_a_zero():
    # the simultaneous q/q-1 pattern always; a 0 exponent on the fixtures
    for ideal in _fixtures():
        d = decompose(ideal, 3)
        for row in d.j_part.rank_rows():
            assert Q in row and QM1 in row
            assert Z in row


def test_classification_independent_of_p(squarefree_classes):
    for n in (1, 2, 3):
        for ideal, _ in squarefree_classes(n):
            classes = {decompose(ideal, p).generation_class for p in (2, 3, 5)}
            assert len(classes) == 1


def test_colon_free_criterion_matches_decompose_n6_sample(squarefree_classes):
    # a third reference for J != 0, next to the colon and the oracle
    sample = random.Random(6).sample(squarefree_classes(6), 500)
    infinite = 0
    for ideal, _ in sample:
        expected = not decompose(ideal, 2).j_part.is_zero()
        witness = _brute.j_nonzero(_brute.generator_masks(ideal))
        assert (witness is not None) == expected, ideal
        infinite += expected
    assert 0 < infinite < 500


def test_e_stability_sweep_all_small_ideals(squarefree_classes):
    # beyond the named fixtures: every canonical square-free ideal, n <= 5
    for n in (1, 2, 3, 4, 5):
        for ideal, _ in squarefree_classes(n):
            sym = colon_symbolic(ideal)
            for p in (2, 3, 5):
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
    sym = colon_symbolic(ideal)
    for e in (1, 2):
        concrete = ideal.frobenius_power(PrimePower(p, e)).colon(ideal)
        assert sym.instantiate(p**e) == concrete
    local = decompose(substitute(ideal, inverted), p)
    for part in (local.frobenius_part, local.j_part):
        assert set(np.unique(part.ranks.gens).tolist()) <= {0, 1, 2}


def test_j_part_disjoint_from_other_groups():
    for ideal in _fixtures():
        d = decompose(ideal, 2)
        frob = d.frobenius_part.instantiate(4)
        socle = MonomialIdeal([[3 * b for b in d.beta]], ideal.n)
        for row in d.j_part.rank_rows():
            mono = tuple(_brute.at(r, 4) for r in row)
            assert not _brute.contains(_brute.ideal_sum(frob, socle).generators(), mono)


def test_pickle_round_trip(chain3):
    ideal = sym_ideal([[Z, QM1, Q], [Q, Z, Z]], 3)
    assert pickle.loads(pickle.dumps(ideal)) == ideal
    d = decompose(chain3, 3)
    copy = pickle.loads(pickle.dumps(d))
    assert copy == d and hash(copy) == hash(d)
