import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _brute
from frobloc.errors import ResourceLimit
from frobloc.monomials import MonomialIdeal, PrimePower
from frobloc.oracle import classify_up_to, compute_f
from frobloc.symbolic import decompose


class TestComputeF:
    def test_chain3_degree_one(self, chain3):
        assert compute_f(chain3, 2, 1) == MonomialIdeal(
            [(2, 1, 0), (1, 1, 1), (0, 1, 2)]
        )

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_principal(self, e):
        ideal = MonomialIdeal([(1, 1)])
        q = 2**e
        assert compute_f(ideal, 2, e) == MonomialIdeal([(q - 1, q - 1)])

    def test_two_variables_against_brute_force(self):
        ideal = MonomialIdeal([(1, 0), (0, 1)])
        expected = _brute.colon(
            [(4, 0), (0, 4)], ideal.generators(), 2
        )
        assert expected == [(0, 4), (3, 3), (4, 0)]
        assert list(compute_f(ideal, 2, 2).generators()) == expected


def _recurrence_l(ideal, p, max_e):
    """L_1 .. L_max_e by the graded recurrence of the oracle docstring."""
    return _brute.oracle_profile(ideal, p, max_e)[1]


class TestComputeL:
    def test_l1_is_zero(self, chain3):
        assert _recurrence_l(chain3, 2, 1)[0].is_zero()

    def test_compositions(self):
        assert _brute.compositions(1) == []
        assert _brute.compositions(2) == [(1, 1)]
        assert set(_brute.compositions(3)) == {(1, 2), (2, 1), (1, 1, 1)}
        assert [len(_brute.compositions(e)) for e in range(1, 7)] == [
            2 ** (e - 1) - 1 for e in range(1, 7)
        ]

    def test_l2_is_f1_times_frobenius_f1(self, chain3):
        f1 = compute_f(chain3, 2, 1)
        expected = f1 * f1.frobenius_power(PrimePower(2, 1))
        assert _recurrence_l(chain3, 2, 2)[1] == expected

    def test_chain3_needs_new_at_two(self, chain3):
        # x1^4*x2^3 sits in F_2 but not in L_2 + I^[4]
        l2 = _recurrence_l(chain3, 2, 2)[1]
        reachable = l2 + chain3.frobenius_power(PrimePower(2, 2))
        witness = (4, 3, 0)
        assert witness in compute_f(chain3, 2, 2)
        assert witness not in reachable

    def test_order_invariance(self, chain3):
        # summing the composition terms in any order gives the same ideal,
        # and that ideal is the graded recurrence
        f1 = compute_f(chain3, 2, 1)
        f2 = compute_f(chain3, 2, 2)
        fs = {1: f1, 2: f2}
        terms = []
        for composition in _brute.compositions(3):
            shift = 0
            term = None
            for part in composition:
                factor = fs[part]
                if shift:
                    factor = factor.frobenius_power(PrimePower(2, shift))
                term = factor if term is None else term * factor
                shift += part
            terms.append(term)
        forward = MonomialIdeal.zero(3)
        for t in terms:
            forward = forward + t
        backward = MonomialIdeal.zero(3)
        for t in reversed(terms):
            backward = backward + t
        assert forward == backward == _recurrence_l(chain3, 2, 3)[2]
        gens = {k: list(f.generators()) for k, f in fs.items()}
        assert list(forward.generators()) == _brute.compositions_l(gens, 2, 3)


def _matches_compositions(ideal, p, max_e):
    fs = {e: compute_f(ideal, p, e) for e in range(1, max_e + 1)}
    gens = {e: list(f.generators()) for e, f in fs.items()}
    ls = _recurrence_l(ideal, p, max_e)
    for e in range(1, max_e + 1):
        fast = list(ls[e - 1].generators())
        assert fast == _brute.compositions_l(gens, p, e), (ideal, p, e)


@pytest.mark.parametrize("p,max_e", [(2, 4), (3, 3)])
def test_l_matches_compositions_on_enumerated_ideals(p, max_e, squarefree_classes):
    for n in range(1, 5):
        for ideal, _ in squarefree_classes(n):
            _matches_compositions(ideal, p, max_e)


@st.composite
def squarefree_ideals(draw):
    n = draw(st.integers(1, 5))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=5))
    return MonomialIdeal([[m >> i & 1 for i in range(n)] for m in masks], n)


@given(squarefree_ideals(), st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_l_matches_compositions_random(ideal, p):
    _matches_compositions(ideal, p, 3)


class TestClassifyUpTo:
    def test_chain3_profile(self, chain3):
        profile = classify_up_to(chain3, 2, 3)
        assert profile.needs_new == (True, True, True)
        assert not profile.finitely_generated_consistent

    def test_depth_six(self, chain3):
        # 31 compositions at e=6; the graded recurrence needs 5 products,
        # which keeps the 5-variable path below a second
        path5 = MonomialIdeal(
            [tuple(int(k in (i, i + 1)) for k in range(5)) for i in range(4)]
        )
        assert classify_up_to(chain3, 2, 6).needs_new == (True,) * 6
        assert classify_up_to(path5, 2, 6).needs_new == (True,) * 6
        principal = classify_up_to(MonomialIdeal([(1, 1)]), 2, 6)
        assert principal.needs_new == (True,) + (False,) * 5

    def test_principal_profile(self):
        profile = classify_up_to(MonomialIdeal([(1, 1)]), 2, 3)
        assert profile.needs_new == (True, False, False)
        assert profile.finitely_generated_consistent

    def test_two_variable_profile(self):
        profile = classify_up_to(MonomialIdeal([(1, 0), (0, 1)]), 2, 3)
        assert profile.needs_new == (True, False, False)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            classify_up_to(MonomialIdeal.zero(2), 2, 3)

    def test_resource_limit(self, monkeypatch, chain5):
        monkeypatch.setenv("FROBLOC_MAX_GENS", "2")
        with pytest.raises(ResourceLimit):
            classify_up_to(chain5, 2, 3)


@pytest.mark.parametrize("p,max_e", [(2, 3), (3, 2)])
def test_oracle_matches_replaced_paths_on_every_class(p, max_e, squarefree_classes):
    for n in range(1, 6):
        for ideal, _ in squarefree_classes(n):
            profile = classify_up_to(ideal, p, max_e)
            fs, _, flags = _brute.oracle_profile(ideal, p, max_e)
            assert profile.f_ideals == fs, ideal
            assert profile.needs_new == flags, ideal


@st.composite
def oracle_cases(draw):
    """(square-free ideal on n <= 8 variables, p, max_e <= 4).  Half the
    ideals are dense clutters: all k-subsets of up to six of the variables."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        chosen = draw(st.permutations(range(n)))[: draw(st.integers(1, min(n, 6)))]
        k = draw(st.integers(1, len(chosen)))
        masks = [sum(1 << i for i in c) for c in itertools.combinations(chosen, k)]
    else:
        masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    ideal = MonomialIdeal([[m >> i & 1 for i in range(n)] for m in masks], n)
    return ideal, draw(st.sampled_from([2, 3])), draw(st.integers(1, 4))


_TRIANGLES_OF_6 = MonomialIdeal(
    [[int(i in c) for i in range(6)] for c in itertools.combinations(range(6), 3)], 6
)


@given(oracle_cases())
@example((_TRIANGLES_OF_6, 2, 4))
@settings(max_examples=150, deadline=None)
def test_flags_match_replaced_paths_random(case):
    # the flags come from membership tests, the reference forms L_e
    ideal, p, max_e = case
    assert classify_up_to(ideal, p, max_e).needs_new == _brute.oracle_profile(
        ideal, p, max_e
    )[2]


def test_flags_stand_under_a_budget_that_only_l_exceeds(monkeypatch):
    # on the 4-variable path the colons and the membership tests check at
    # most 18 generators at p = 3, while L_2 and L_3, never formed, have 29
    # and 31
    path4 = MonomialIdeal([(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])
    expected = classify_up_to(path4, 3, 3).needs_new
    ls = _recurrence_l(path4, 3, 3)
    assert [l_e.num_generators() for l_e in ls] == [0, 29, 31]
    monkeypatch.setenv("FROBLOC_MAX_GENS", "20")
    profile = classify_up_to(path4, 3, 3)
    assert profile.needs_new == expected == (True, True, True)


# ---------------------------------------------------------------------------
# invariants


def test_l_contained_in_f():
    fixtures = [
        MonomialIdeal([(1, 1, 0), (0, 1, 1)]),
        MonomialIdeal([(1, 0), (0, 1)]),
        MonomialIdeal([(1, 1, 1, 0), (0, 0, 1, 1)]),
    ]
    for ideal in fixtures:
        profile = classify_up_to(ideal, 2, 3)
        for f_e, l_e in zip(profile.f_ideals, _recurrence_l(ideal, 2, 3)):
            assert f_e.contains_each(l_e.gens).all()


def test_principal_consistency_sweep(squarefree_classes):
    for n in (1, 2, 3):
        for ideal, _ in squarefree_classes(n):
            if decompose(ideal, 2).j_part.is_zero():
                profile = classify_up_to(ideal, 2, 3)
                assert profile.needs_new == (True, False, False)


def test_infinite_consistency_sweep(squarefree_classes):
    for n in (1, 2, 3):
        for ideal, _ in squarefree_classes(n):
            if not decompose(ideal, 2).j_part.is_zero():
                profile = classify_up_to(ideal, 2, 3)
                assert profile.needs_new == (True, True, True)
