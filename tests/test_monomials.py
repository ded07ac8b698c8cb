import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from frobloc.errors import AmbientMismatch, ResourceLimit
from frobloc.monomials import MonomialIdeal, PrimePower, generator_budget, is_prime


class TestPrimePower:
    def test_valid(self):
        assert PrimePower(2, 3).q == 8
        assert PrimePower(7, 2).q == 49

    @pytest.mark.parametrize("p,e", [(4, 1), (1, 1), (2, 0), (6, 2)])
    def test_invalid(self, p, e):
        with pytest.raises(ValueError):
            PrimePower(p, e)

    @pytest.mark.parametrize("q", [1, 0, 6, 12, 100])
    def test_from_q_rejects_non_prime_powers(self, q):
        # q = p^1 is a PrimePower only for a prime q
        with pytest.raises(ValueError):
            PrimePower(q, 1)

    def test_from_q_large_prime_is_fast(self):
        start = time.perf_counter()
        power = MonomialIdeal([(1, 1)]).frobenius_power(PrimePower(2**61 - 1, 1))
        assert power.generators() == ((2**61 - 1, 2**61 - 1),)
        assert time.perf_counter() - start < 1.0

    def test_from_q_rejects_large_semiprime_quickly(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="not prime"):
            PrimePower(1099511627791 * 1099511627803, 1)  # primes near 2^40
        assert time.perf_counter() - start < 1.0

    def test_is_prime(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_is_prime_matches_trial_division(self):
        def trial(p):
            return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

        assert [p for p in range(5000) if is_prime(p)] == [
            p for p in range(5000) if trial(p)
        ]

    @pytest.mark.parametrize(
        "p,prime",
        [
            (561, False),  # Carmichael
            (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
            (3825123056546413051, False),  # strong pseudoprime to bases 2..23
            (2**61 - 1, True),
            (1000000000000000003, True),
            ((2**61 - 1) * (2**19 - 1), False),
        ],
    )
    def test_is_prime_large(self, p, prime):
        assert is_prime(p) is prime

    def test_is_prime_rejects_beyond_exact_range(self):
        with pytest.raises(ValueError, match="too large"):
            is_prime(3317044064679887385961981)


class TestMinimalize:
    def test_divisibility_redundancy(self):
        ideal = MonomialIdeal([(2, 2, 0), (2, 1, 0)])
        assert ideal.generators() == ((2, 1, 0),)

    def test_chain(self):
        ideal = MonomialIdeal([(0, 1, 0), (1, 1, 0), (0, 1, 1)])
        assert ideal.generators() == ((0, 1, 0),)

    def test_empty_is_zero(self):
        ideal = MonomialIdeal([], n=3)
        assert ideal.is_zero()
        assert not ideal.is_unit()

    def test_unit_absorbs(self):
        ideal = MonomialIdeal([(0, 0), (1, 0), (0, 3)])
        assert ideal.is_unit()

    def test_duplicates_collapse(self):
        ideal = MonomialIdeal([(1, 2), (1, 2), (2, 1), (2, 1)])
        assert ideal.generators() == ((1, 2), (2, 1))


class TestContainment:
    def test_basic(self, chain3):
        assert (1, 1, 1) in chain3
        assert (1, 0, 1) not in chain3

    def test_zero_contains_nothing(self):
        zero = MonomialIdeal.zero(2)
        assert (0, 0) not in zero
        assert (3, 3) not in zero

    def test_membership_by_definition(self):
        # brute-force check of the stated non-membership
        ideal = MonomialIdeal([(2, 0), (0, 2)])
        assert not _brute.contains(ideal.generators(), (1, 1))
        assert (1, 1) not in ideal

    def test_equality_is_canonical(self):
        a = MonomialIdeal([(1, 1, 0), (0, 1, 1), (1, 1, 1)])
        b = MonomialIdeal([(0, 1, 1), (1, 1, 0)])
        assert a == b
        assert hash(a) == hash(b)


class TestIdealAlgebra:
    def test_product_coprime(self):
        assert MonomialIdeal([(1, 0)]) * MonomialIdeal([(0, 1)]) == MonomialIdeal(
            [(1, 1)]
        )

    def test_intersect_coprime(self):
        assert MonomialIdeal([(1, 0)]) & MonomialIdeal([(0, 1)]) == MonomialIdeal(
            [(1, 1)]
        )

    def test_sum_minimalizes(self):
        s = MonomialIdeal([(2, 0), (0, 1)]) + MonomialIdeal([(1, 0)])
        assert s == MonomialIdeal([(1, 0), (0, 1)])

    def test_zero_unit_laws(self, chain3):
        zero = MonomialIdeal.zero(3)
        unit = MonomialIdeal.unit(3)
        assert chain3 + zero == chain3
        assert chain3 * zero == zero
        assert (chain3 & zero) == zero
        assert chain3 * unit == chain3
        assert (chain3 & unit) == chain3
        assert chain3 + unit == unit

    def test_mismatched_ambient(self, chain3):
        with pytest.raises(AmbientMismatch):
            chain3 + MonomialIdeal([(1, 1)])


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: MonomialIdeal([(1, 0), (1,)]), AmbientMismatch, "expected 2"),
        (lambda: MonomialIdeal([(1, -1)]), ValueError, "negative exponent"),
        (lambda: MonomialIdeal([(2**62, 0)]), OverflowError, "too large"),
        (lambda: MonomialIdeal([]), ValueError, "ambient variable count"),
        (
            lambda: MonomialIdeal.from_matrix(np.array([[1, -1]]), 2),
            ValueError,
            "negative exponent",
        ),
        (
            lambda: MonomialIdeal([(2**61,)]) * MonomialIdeal([(2**61,)]),
            OverflowError,
            "product exponent",
        ),
    ],
)
def test_construction_and_product_validate(build, error, message):
    with pytest.raises(error, match=message):
        build()


class TestFrobeniusPower:
    def test_scaling(self, chain3):
        square = chain3.frobenius_power(PrimePower(2, 1))
        assert square == MonomialIdeal([(2, 2, 0), (0, 2, 2)])

    def test_q_one_rejected(self, chain3):
        with pytest.raises(ValueError):
            chain3.frobenius_power(PrimePower(2, 0))

    def test_composition(self, chain3):
        lhs = chain3.frobenius_power(PrimePower(2, 1)).frobenius_power(PrimePower(2, 1))
        assert lhs == chain3.frobenius_power(PrimePower(2, 2))

    def test_overflow_rejected(self):
        ideal = MonomialIdeal([(1 << 40,)])
        with pytest.raises(OverflowError):
            ideal.frobenius_power(PrimePower(2, 30))

    def test_e_boundary(self):
        x1 = MonomialIdeal([(1,)])
        assert x1.frobenius_power(PrimePower(2, 61)).generators() == ((1 << 61,),)
        with pytest.raises(OverflowError, match=r"^q = 2\^62 exceeds"):
            x1.frobenius_power(PrimePower(2, 62))

    def test_supported_range(self):
        # q = 7^4 must work
        ideal = MonomialIdeal([(1, 1)])
        assert ideal.frobenius_power(PrimePower(7, 4)).generators() == ((2401, 2401),)


class TestColon:
    def test_derived_example(self, chain3):
        j = chain3.frobenius_power(PrimePower(2, 1))
        expected = _brute.colon(j.generators(), chain3.generators(), 3)
        assert expected == [(0, 1, 2), (1, 1, 1), (2, 1, 0)]
        assert list(j.colon(chain3).generators()) == expected

    def test_self_colon_is_unit(self, chain3):
        assert chain3.colon(chain3).is_unit()

    def test_colon_by_unit(self, chain3):
        assert chain3.colon(MonomialIdeal.unit(3)) == chain3

    def test_colon_by_zero_rejected(self, chain3):
        with pytest.raises(ValueError):
            chain3.colon(MonomialIdeal.zero(3))

    def test_zero_colon(self, chain3):
        assert MonomialIdeal.zero(3).colon(chain3).is_zero()


def test_resource_limit(monkeypatch, chain3):
    monkeypatch.setenv("FROBLOC_MAX_GENS", "3")
    big = MonomialIdeal([(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    with pytest.raises(ResourceLimit):
        big * big


@pytest.mark.parametrize(
    "gens,budget,message",
    [
        # path on 5 variables, square-free: every quotient is minimal
        (
            [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1)],
            31,
            "intermediate generator count 32 exceeds the bound 31",
        ),
        # (x1, x2)^3: 4 quotients per step, 3 minimal; the bound counts those
        ([(3, 0), (2, 1), (1, 2), (0, 3)], 15, None),
        (
            [(3, 0), (2, 1), (1, 2), (0, 3)],
            14,
            "intermediate generator count 15 exceeds the bound 14",
        ),
        # (x1, x2, x3)^2: the last step has 90 raw but 45 minimal pairs
        ([(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)], 54, None),
    ],
    ids=["path5-over", "cube2-at-bound", "cube2-over", "square3-raw-over"],
)
def test_colon_budget_counts_minimal_quotients(monkeypatch, gens, budget, message):
    ideal = MonomialIdeal(gens)
    power = ideal.frobenius_power(PrimePower(2, 1))
    monkeypatch.setenv("FROBLOC_MAX_GENS", str(budget))
    if message is None:
        assert power.colon(ideal) == _brute.ideal_colon(power, ideal)
        return
    for colon in (power.colon, lambda i: _brute.ideal_colon(power, i)):
        with pytest.raises(ResourceLimit) as caught:
            colon(ideal)
        assert str(caught.value) == message


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "1.5"])
def test_malformed_budget_rejected(monkeypatch, raw):
    monkeypatch.setenv("FROBLOC_MAX_GENS", raw)
    with pytest.raises(ValueError, match="FROBLOC_MAX_GENS"):
        generator_budget()


# ---------------------------------------------------------------------------
# property tests

exponent = st.integers(min_value=0, max_value=5)


@st.composite
def gen_sets(draw, n=None, max_gens=5):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=4))
    gens = draw(
        st.lists(
            st.tuples(*[exponent] * n), min_size=1, max_size=max_gens
        )
    )
    return n, gens


@given(gen_sets())
def test_minimalize_antichain_and_equivalence(data):
    n, gens = data
    ideal = MonomialIdeal(gens, n)
    out = ideal.generators()
    # antichain
    for i, a in enumerate(out):
        for j, b in enumerate(out):
            assert i == j or not _brute.divides(a, b)
    # same ideal: every input generator is divisible by some output generator
    for g in gens:
        assert _brute.contains(out, g)
    # and conversely every output generator came from the input ideal
    for g in out:
        assert _brute.contains(gens, g)


@st.composite
def gen_set_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    vectors = st.tuples(*[exponent] * n)
    a = draw(st.lists(vectors, min_size=1, max_size=5))
    b = draw(st.lists(vectors, min_size=1, max_size=5))
    return n, a, b


@given(gen_set_pairs())
@settings(max_examples=60)
def test_sum_intersect_membership(data):
    n, a, b = data
    i = MonomialIdeal(a, n)
    j = MonomialIdeal(b, n)
    s = i + j
    meet = i & j
    probe_gens = list(i.generators()) + list(j.generators()) + list(meet.generators())
    for m in probe_gens:
        bumped = tuple(x + 1 for x in m)
        for probe in (m, bumped):
            in_i, in_j = probe in i, probe in j
            assert (probe in s) == (in_i or in_j)
            assert (probe in meet) == (in_i and in_j)


@st.composite
def operand_pairs(draw):
    """(n, gens_i, gens_j) with exponents up to 3; j reuses some of i's
    generators, and either side may be replaced by the zero or the unit ideal."""
    n = draw(st.integers(min_value=1, max_value=4))
    vectors = st.tuples(*[st.integers(0, 3)] * n)
    a = draw(st.lists(vectors, min_size=1, max_size=4))
    b = draw(st.lists(vectors, max_size=3)) + draw(
        st.lists(st.sampled_from(a), max_size=2)
    )
    special = {"zero": [], "unit": [(0,) * n]}
    kinds = st.sampled_from(["zero", "unit"] + ["drawn"] * 4)
    return n, special.get(draw(kinds), a), special.get(draw(kinds), b)


@given(operand_pairs())
@settings(max_examples=200, deadline=None)
def test_sum_and_colon_match_definitions(data):
    n, a, b = data
    i = MonomialIdeal(a, n)
    j = MonomialIdeal(b, n)
    total = i + j
    assert list(total.generators()) == _brute.minimalize(a + b)
    assert total == _brute.ideal_sum(i, j)
    if i.is_zero():
        with pytest.raises(ValueError):
            j.colon(i)
        return
    quotient = j.colon(i)
    assert list(quotient.generators()) == _brute.colon(j.generators(), i.generators(), n)
    assert quotient == _brute.ideal_colon(j, i)


# q in {2, 3, 4, 5, 8, 9}
_POWERS = [
    PrimePower(p, e) for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]
]


@given(gen_sets(max_gens=4), st.sampled_from(_POWERS))
@settings(max_examples=60)
def test_frobenius_membership(data, prime_power):
    n, gens = data
    ideal = MonomialIdeal(gens, n)
    q = prime_power.q
    power = ideal.frobenius_power(prime_power)
    for g in ideal.generators():
        scaled = tuple(q * c for c in g)
        off = tuple(max(0, q * c - 1) for c in g)
        assert scaled in power
        assert (off in power) == any(
            _brute.divides(tuple(q * c for c in h), off) for h in ideal.generators()
        )


@given(gen_sets(max_gens=3), st.integers(1, 2), st.integers(1, 2))
@settings(max_examples=40)
def test_frobenius_composition_law(data, e1, e2):
    n, gens = data
    ideal = MonomialIdeal(gens, n)
    lhs = ideal.frobenius_power(PrimePower(3, e1)).frobenius_power(PrimePower(3, e2))
    assert lhs == ideal.frobenius_power(PrimePower(3, e1 + e2))


@given(gen_set_pairs())
@settings(max_examples=60)
def test_product_matches_pairwise_definition(data):
    n, a, b = data
    i = MonomialIdeal(a, n)
    j = MonomialIdeal(b, n)
    pairwise = [
        _brute.mono_mul(g, h) for g in i.generators() for h in j.generators()
    ]
    assert list((i * j).generators()) == _brute.minimalize(pairwise)


@given(gen_set_pairs())
@settings(max_examples=40)
def test_colon_membership_equivalence(data):
    n, a, b = data
    j = MonomialIdeal(a, n)
    i = MonomialIdeal(b, n)
    q = j.colon(i)
    probes = list(q.generators()) + list(j.generators()) + [(0,) * n, (1,) * n]
    for m in probes:
        definition = all(
            _brute.contains(j.generators(), _brute.mono_mul(m, g))
            for g in i.generators()
        )
        assert (m in q) == definition


@pytest.mark.parametrize(
    "ideal",
    [
        MonomialIdeal([(1,)], 1),
        MonomialIdeal([(1, 1, 0), (0, 2, 1)]),
        MonomialIdeal.zero(3),
        MonomialIdeal.unit(2),
    ],
)
def test_pickle_round_trip(ideal):
    copy = pickle.loads(pickle.dumps(ideal))
    assert copy == ideal and hash(copy) == hash(ideal) and copy.n == ideal.n
    assert not copy.gens.flags.writeable
    with pytest.raises(AttributeError):
        copy.n = 4
