"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Budgets are wall-clock.
"""

import random
import time

import _brute
from frobloc.enumeration import canonical_squarefree_ideals
from frobloc.locus import (
    Openness,
    Stratum,
    build_locus,
    classify_stratum,
    enumerate_strata,
    render_u_prime,
    substitute,
    u_prime_strata,
)
from frobloc.monomials import MonomialIdeal, PrimePower
from frobloc.oracle import classify_up_to
from frobloc.symbolic import (
    GenerationClass,
    SymbolicIdeal,
    colon_symbolic,
    compute_u_prime,
    decompose,
)

Q = (1, 0)
QM1 = (1, -1)
Z0 = (0, 0)

CHAIN3 = MonomialIdeal([(1, 1, 0), (0, 1, 1)])
CHAIN4 = MonomialIdeal([(1, 1, 1, 0), (0, 0, 1, 1)])
CHAIN5 = MonomialIdeal([(1, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1)])

FIXTURES = [
    CHAIN3,
    CHAIN4,
    CHAIN5,
    MonomialIdeal([(1, 1)]),
    MonomialIdeal([(1, 0), (0, 1)]),
    MonomialIdeal([(1, 1, 0), (0, 1, 1), (1, 0, 1)]),
]


class criterion:
    """Times a criterion body, enforces its budget, prints one line."""

    def __init__(self, number: int, title: str, budget: float):
        self.number = number
        self.title = title
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(
            f"[acceptance] criterion {self.number} ({self.title}): {status} "
            f"({elapsed:.3f}s, budget {self.budget:g}s)"
        )
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.3f}s)"
            )
        return False


def test_criterion_1_j_formula_reproduction():
    expected = {
        CHAIN3: (SymbolicIdeal([[Q, QM1, Z0], [Z0, QM1, Q]], 3), (1, 1, 1)),
        CHAIN4: (
            SymbolicIdeal([[Q, Q, QM1, Z0], [Z0, Z0, QM1, Q]], 4),
            (1, 1, 1, 1),
        ),
        CHAIN5: (
            SymbolicIdeal([[QM1, QM1, Q, QM1, Z0], [Z0, Z0, QM1, Q, QM1]], 5),
            (1, 1, 1, 1, 1),
        ),
    }
    with criterion(1, "J-formula reproduction", 1.0):
        for ideal, (j_expected, beta_expected) in expected.items():
            for p in (2, 3, 5):
                d = decompose(ideal, p)
                assert d.j_part == j_expected, (ideal.render(), p)
                assert d.beta == beta_expected


def test_criterion_2_e_stability():
    with criterion(2, "e-stability", 10.0):
        for ideal in FIXTURES:
            for p in (2, 3):
                sym = colon_symbolic(ideal, p)
                for e in (1, 2, 3):
                    concrete = ideal.frobenius_power(PrimePower(p, e)).colon(ideal)
                    assert sym.instantiate(p**e) == concrete, (ideal.render(), p, e)


def test_criterion_3_locus_reproduction_chain3():
    with criterion(3, "locus reproduction for (x1*x2, x2*x3)", 1.0):
        report = build_locus(CHAIN3, 2)
        maximal = Stratum(3, frozenset({1, 2, 3}))
        assert set(report.complement_strata) == {maximal}
        assert report.expression_complement == "V((x1,x2,x3))"
        assert report.openness is Openness.OPEN

        annihilator = compute_u_prime(decompose(CHAIN3, 2))
        assert annihilator == MonomialIdeal([(0, 1, 0)])
        assert render_u_prime(annihilator) == "D(x2) ∩ V(I)"

        u_prime = set(u_prime_strata(CHAIN3, annihilator))
        u = set(report.u_strata)
        x2_stratum = Stratum(3, frozenset({2}))
        assert u_prime < u
        assert x2_stratum in u
        assert x2_stratum not in u_prime


def test_criterion_4_oracle_equivalence():
    with criterion(4, "classifier/oracle equivalence on n <= 3", 120.0):
        disagreements = []
        for n in (1, 2, 3):
            for ideal, _ in canonical_squarefree_ideals(n):
                for stratum in enumerate_strata(ideal, restrict_to_v_of_i=True):
                    verdict = classify_stratum(ideal, 2, stratum)
                    profile = classify_up_to(
                        substitute(ideal, stratum.inverted), 2, 3
                    )
                    principal = verdict.generation is GenerationClass.PRINCIPAL
                    oracle_principal = (
                        not profile.needs_new[1] and not profile.needs_new[2]
                    )
                    if principal != oracle_principal:
                        disagreements.append((ideal.render(), stratum.render()))
        assert disagreements == []


def test_criterion_5_example_derived_locus():
    with criterion(5, "derived locus for (x1*x2*x3, x3*x4)", 5.0):
        report = build_locus(CHAIN4, 2)
        assert {s.in_prime for s in report.complement_strata} == {
            frozenset({1, 3, 4}),
            frozenset({2, 3, 4}),
            frozenset({1, 2, 3, 4}),
        }
        assert report.openness is Openness.OPEN
        assert any("D(x1*x3*x4)" in note for note in report.notes)


def test_criterion_6_principal_profiles():
    with criterion(6, "principal-case generation profiles", 60.0):
        exceptions = []
        for n in (1, 2, 3):
            for ideal, _ in canonical_squarefree_ideals(n):
                if decompose(ideal, 2).j_part.is_zero():
                    profile = classify_up_to(ideal, 2, 3)
                    if profile.needs_new != (True, False, False):
                        exceptions.append((ideal.render(), profile.needs_new))
        assert exceptions == []


def _random_squarefree(rng, n):
    count = rng.randint(1, min(3, 2**n - 1))
    gens = set()
    while len(gens) < count:
        g = tuple(rng.randint(0, 1) for _ in range(n))
        if any(g):
            gens.add(g)
    return MonomialIdeal(sorted(gens), n)


def test_criterion_7_membership_property_suite():
    rng = random.Random(20260811)
    with criterion(7, "randomized membership suite (1000 checks)", 10.0):
        checks = failures = 0
        while checks < 1000:
            n = rng.randint(1, 4)
            ideal = _random_squarefree(rng, n)
            p = rng.choice([2, 3, 5])
            e = rng.randint(1, 2)
            q = p**e
            power = ideal.frobenius_power(PrimePower(p, e))
            bound = max(1, (4 * q) // n)
            mono = tuple(rng.randint(0, bound) for _ in range(n))

            # colon membership against the definitional brute-force check
            colon = power.colon(ideal)
            definition = all(
                _brute.contains(power.generators(), _brute.mono_mul(mono, g))
                for g in ideal.generators()
            )
            if (mono in colon) != definition:
                failures += 1
            checks += 1

            # Frobenius-power membership: q-scaled generator divisibility
            scaled = any(
                _brute.divides(tuple(q * c for c in g), mono)
                for g in ideal.generators()
            )
            if (mono in power) != scaled:
                failures += 1
            checks += 1
        assert checks == 1000
        assert failures == 0
