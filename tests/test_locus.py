import pickle
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from frobloc import locus, symbolic
from frobloc.errors import InadmissibleStratum, ResourceLimit
from frobloc.locus import (
    MAX_STRATA_VARS,
    Openness,
    Stratum,
    all_strata,
    build_locus,
    classify_stratum,
    enumerate_strata,
    is_open,
    render_expression,
    render_u_prime,
    u_prime_strata,
)
from frobloc.monomials import MonomialIdeal, PrimePower, substitute
from frobloc.oracle import classify_up_to
from frobloc.symbolic import (
    GenerationClass,
    colon_symbolic,
    compute_beta,
    compute_u_prime,
    decompose,
)


def _principal(report):
    """The strata of a locus report whose verdict is principal: U."""
    return tuple(
        v.stratum for v in report.verdicts if v.generation is GenerationClass.PRINCIPAL
    )


def _infinite(report):
    """The strata of a locus report whose verdict is infinite."""
    return tuple(
        v.stratum for v in report.verdicts if v.generation is GenerationClass.INFINITE
    )


def Z(n, *vars_):
    return Stratum(n, sum(1 << (i - 1) for i in vars_))


class TestSubstitute:
    def test_chain3_invert_outer(self, chain3):
        assert substitute(chain3, {1, 3}) == MonomialIdeal([(0, 1, 0)])

    def test_chain4_invert_last(self, chain4):
        assert substitute(chain4, {4}) == MonomialIdeal([(0, 0, 1, 0)], 4)

    def test_identity(self, chain3):
        assert substitute(chain3, set()) == chain3

    def test_unit_possible(self, chain3):
        assert substitute(chain3, {1, 2, 3}).is_unit()

    def test_bad_index(self, chain3):
        with pytest.raises(ValueError):
            substitute(chain3, {4})


class TestStrata:
    def test_restricted_chain3(self, chain3):
        got = {s.in_prime for s in enumerate_strata(chain3)}
        assert got == {
            frozenset(z) for z in [{2}, {1, 2}, {2, 3}, {1, 3}, {1, 2, 3}]
        }

    def test_unrestricted_count(self):
        assert len(all_strata(3)) == 8

    def test_principal_restriction(self):
        ideal = MonomialIdeal([(1, 0, 0)])
        got = enumerate_strata(ideal)
        assert len(got) == 4
        assert all(1 in s.in_prime for s in got)

    def test_order_is_bitmask(self, chain3):
        assert [s.mask for s in all_strata(3)] == list(range(8))
        masks = [s.mask for s in enumerate_strata(chain3)]
        assert masks == sorted(masks)

    def test_admissibility(self, chain4):
        d = decompose(chain4, 2)
        assert classify_stratum(d, Z(4, 3)).stratum in enumerate_strata(chain4)
        assert Z(4, 1, 2) not in enumerate_strata(chain4)
        with pytest.raises(InadmissibleStratum, match=r"Z=\{1,2\} does not meet"):
            classify_stratum(d, Z(4, 1, 2))

    @pytest.mark.parametrize("restrict", [True, False])
    def test_too_many_variables_raise(self, restrict):
        # the strata meeting V(I), or all of them
        n = MAX_STRATA_VARS + 1
        ideal = MonomialIdeal([(1,) + (0,) * (n - 1)])
        with pytest.raises(ResourceLimit):
            enumerate_strata(ideal) if restrict else all_strata(n)

    def test_too_many_strata_raise(self, chain3, monkeypatch):
        # chain3 has 5 strata meeting V(I), 8 in all, and 1 inside D(x2)
        annihilator = compute_u_prime(decompose(chain3, 2))
        monkeypatch.setattr(locus, "MAX_STRATA", 8)
        assert len(all_strata(3)) == 8
        monkeypatch.setattr(locus, "MAX_STRATA", 7)
        with pytest.raises(ResourceLimit, match="more than 7 strata lie in Spec"):
            all_strata(3)
        monkeypatch.setattr(locus, "MAX_STRATA", 5)
        assert len(enumerate_strata(chain3)) == 5
        assert len(u_prime_strata(chain3, annihilator)) == 1
        monkeypatch.setattr(locus, "MAX_STRATA", 4)
        for listing in (
            lambda: enumerate_strata(chain3),
            lambda: u_prime_strata(chain3, annihilator),
        ):
            with pytest.raises(ResourceLimit, match="more than 4 strata meet V"):
                listing()


class TestClassifyStratum:
    def test_chain3_closed_point(self, chain3):
        v = classify_stratum(decompose(chain3, 2), Z(3, 1, 2, 3))
        assert v.generation is GenerationClass.INFINITE

    def test_chain3_middle_variable(self, chain3):
        v = classify_stratum(decompose(chain3, 2), Z(3, 2))
        assert v.generation is GenerationClass.PRINCIPAL

    def test_chain4_oracle_confirmed(self, chain4):
        stratum = Z(4, 1, 3, 4)
        v = classify_stratum(decompose(chain4, 2), stratum)
        assert v.generation is GenerationClass.INFINITE
        # the substituted ideal is the 3-variable chain pattern again
        sub = substitute(chain4, stratum.inverted)
        assert sub == MonomialIdeal([(1, 0, 1, 0), (0, 0, 1, 1)], 4)
        profile = classify_up_to(sub, 2, 3)
        assert profile.needs_new == (True, True, True)

    def test_inadmissible_raises(self, chain3):
        with pytest.raises(InadmissibleStratum):
            classify_stratum(decompose(chain3, 2), Z(3, 1))

    def test_other_ambient_raises(self, chain3):
        with pytest.raises(ValueError, match="different ambients"):
            classify_stratum(decompose(chain3, 2), Z(4, 2))

    def test_verdict_matches_localized_j(self, chain4):
        d = decompose(chain4, 2)
        for s in enumerate_strata(chain4):
            v = classify_stratum(d, s)
            assert v.substituted == substitute(chain4, s.inverted)
            principal = v.generation is GenerationClass.PRINCIPAL
            assert principal == decompose(v.substituted, 2).j_part.is_zero()


class TestBuildLocus:
    def test_chain3_report(self, chain3):
        report = build_locus(chain3, 2)
        assert {s.in_prime for s in _infinite(report)} == {
            frozenset({1, 2, 3})
        }
        assert len(_principal(report)) == 4
        assert report.openness is Openness.OPEN
        assert report.expression_complement == "V((x1,x2,x3))"

    def test_principal_everywhere(self):
        ideal = MonomialIdeal([(1, 0)], 2)
        report = build_locus(ideal, 3)
        assert not _infinite(report)
        assert len(_principal(report)) == len(report.verdicts)
        assert report.openness is Openness.OPEN

    def test_chain4_derived_table(self, chain4):
        report = build_locus(chain4, 2)
        assert {s.in_prime for s in _infinite(report)} == {
            frozenset({1, 3, 4}),
            frozenset({2, 3, 4}),
            frozenset({1, 2, 3, 4}),
        }
        assert report.openness is Openness.OPEN
        assert report.expression_complement == "V((x1,x3,x4)) ∪ V((x2,x3,x4))"
        assert any("D(x1*x3*x4)" in note for note in report.notes)

    def test_admissible_strata_bound(self, chain3, monkeypatch):
        # Z contains x2, or Z = {1, 3}: five strata meet V(I)
        monkeypatch.setattr(locus, "MAX_STRATA", 5)
        assert len(build_locus(chain3, 2).verdicts) == 5
        monkeypatch.setattr(locus, "MAX_STRATA", 4)
        with pytest.raises(ResourceLimit, match="more than 4 strata meet V"):
            build_locus(chain3, 2)
        # build_locus is bounded through the stratum list itself
        with pytest.raises(ResourceLimit, match="more than 4 strata meet V"):
            enumerate_strata(chain3)

    def test_full_ambient_bound_trips_before_classifying(self, monkeypatch):
        # the maximal ideal on 4 variables: one stratum meets V(I), 16 in all
        ideal = MonomialIdeal([tuple(int(i == k) for i in range(4)) for k in range(4)])
        calls = []
        classify = locus.classify_stratum

        def counting(*args):
            calls.append(args)
            return classify(*args)

        monkeypatch.setattr(locus, "classify_stratum", counting)
        monkeypatch.setattr(locus, "MAX_STRATA", 15)
        assert len(build_locus(ideal, 2).verdicts) == 1
        assert len(calls) == 1
        calls.clear()
        with pytest.raises(ResourceLimit, match="more than 15 strata lie in Spec"):
            build_locus(ideal, 2, ambient="full")
        assert calls == []

    def test_chain4_full_ambient_lift_not_open(self, chain4, squarefree_classes):
        report = build_locus(chain4, 2, ambient="full")
        assert report.openness is Openness.NOT_OPEN
        assert len(report.inadmissible) == 5
        # the locus is nonempty on every class, and never open in Spec(R)
        for p in (2, 3):
            for n in range(1, 5):
                for ideal, _ in squarefree_classes(n):
                    report = build_locus(ideal, p, ambient="full")
                    assert _principal(report), ideal
                    assert report.openness is Openness.NOT_OPEN, ideal


def _open(members, universe):
    """``is_open`` on the masks of a family of strata and of the rest of
    its universe."""
    u = {s.mask for s in members}
    return is_open(u, [s.mask for s in universe if s.mask not in u], universe[0].n)


class TestIsOpen:
    def test_whole_space(self, chain3):
        universe = enumerate_strata(chain3)
        assert _open(universe, universe) is Openness.OPEN

    def test_lifted_u_not_open_in_full_spectrum(self, chain4):
        # the locus is a union of strata inside the proper closed set V(I)
        report = build_locus(chain4, 2)
        universe = all_strata(4)
        assert _open(_principal(report), universe) is Openness.NOT_OPEN

    def test_complement_of_closed_point_is_open(self):
        universe = all_strata(3)
        closed_point = [s for s in universe if len(s.in_prime) == 3]
        others = [s for s in universe if len(s.in_prime) < 3]
        assert _open(others, universe) is Openness.OPEN

    def test_brute_force_all_families_n3(self):
        universe = all_strata(3)
        keys = [tuple(sorted(s.in_prime)) for s in universe]
        for picks in range(1 << len(universe)):
            members = [s for k, s in enumerate(universe) if picks >> k & 1]
            member_keys = {tuple(sorted(s.in_prime)) for s in members}
            complement = [k for k in keys if k not in member_keys]
            closed = set(complement) == _brute.upward_closure(complement, keys)
            expected = Openness.OPEN if closed else Openness.NOT_OPEN
            assert _open(members, universe) is expected


class TestRenderExpression:
    def test_upward_closed_collapses_to_closure(self, chain4):
        universe = enumerate_strata(chain4)
        family = [s for s in universe if s.in_prime >= {3, 4}]
        assert render_expression(family, 4) == "V((x3,x4))"

    def test_single_stratum(self):
        assert render_expression([Z(3, 2)], 3) == "(V((x2)) ∩ D(x1*x3))"

    def test_empty(self):
        assert render_expression([], 3) == "(empty)"


class TestUPrimeRegion:
    def test_chain3_u_prime(self, chain3):
        annihilator = compute_u_prime(decompose(chain3, 2))
        assert render_u_prime(annihilator) == "D(x2) ∩ V(I)"
        strata = u_prime_strata(chain3, annihilator)
        assert {s.in_prime for s in strata} == {frozenset({1, 3})}

    def test_u_prime_soundness(self, chain3):
        # every stratum inside D(x2) ∩ V(I) must classify principal
        d = decompose(chain3, 2)
        annihilator = compute_u_prime(d)
        for s in u_prime_strata(chain3, annihilator):
            v = classify_stratum(d, s)
            assert v.generation is GenerationClass.PRINCIPAL

    def test_u_prime_strictly_inside_u(self, chain3):
        annihilator = compute_u_prime(decompose(chain3, 2))
        u_prime = set(u_prime_strata(chain3, annihilator))
        report = build_locus(chain3, 2)
        u = set(_principal(report))
        assert u_prime < u
        assert Z(3, 2) in u and Z(3, 2) not in u_prime


# ---------------------------------------------------------------------------
# invariants


def test_full_support_stratum_matches_global(squarefree_classes):
    for n in (2, 3):
        for ideal, _ in squarefree_classes(n):
            support = sum(
                1 << i for i in range(n) if any(g[i] for g in ideal.generators())
            )
            d = decompose(ideal, 2)
            v = classify_stratum(d, Stratum(n, support))
            assert v.generation is d.generation_class


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_substitute_colon_commutation(p, e, chain3, chain4, chain5):
    for ideal in (chain3, chain4, chain5):
        n = ideal.n
        colon = ideal.frobenius_power(PrimePower(p, e)).colon(ideal)
        for size in range(n):
            for w in combinations(range(1, n + 1), size):
                sub = substitute(ideal, w)
                if sub.is_unit():
                    continue
                lhs = substitute(colon, w)
                rhs = sub.frobenius_power(PrimePower(p, e)).colon(sub)
                assert lhs == rhs


def test_infinite_family_upward_closed(chain3, chain4):
    for ideal in (chain3, chain4):
        report = build_locus(ideal, 2)
        family = {s.in_prime for s in _infinite(report)}
        admissible = {s.in_prime for s in enumerate_strata(ideal)}
        for z in family:
            for z2 in admissible:
                if z <= z2:
                    assert z2 in family


def test_oracle_agreement_all_strata_n3(squarefree_classes):
    for n in (1, 2, 3):
        for ideal, _ in squarefree_classes(n):
            d = decompose(ideal, 2)
            for s in enumerate_strata(ideal):
                v = classify_stratum(d, s)
                assert v.substituted == substitute(ideal, s.inverted)
                profile = classify_up_to(v.substituted, 2, 3)
                principal = v.generation is GenerationClass.PRINCIPAL
                assert principal == profile.finitely_generated_consistent


def test_oracle_agreement_extended(squarefree_classes):
    # beyond the acceptance scope: four variables, and characteristic three
    for ideal, _ in squarefree_classes(4):
        d = decompose(ideal, 2)
        for s in enumerate_strata(ideal):
            v = classify_stratum(d, s)
            assert v.substituted == substitute(ideal, s.inverted)
            profile = classify_up_to(v.substituted, 2, 3)
            principal = v.generation is GenerationClass.PRINCIPAL
            assert principal == profile.finitely_generated_consistent
    for n in (2, 3):
        for ideal, _ in squarefree_classes(n):
            d = decompose(ideal, 3)
            for s in enumerate_strata(ideal):
                v = classify_stratum(d, s)
                assert v.substituted == substitute(ideal, s.inverted)
                profile = classify_up_to(v.substituted, 3, 3)
                principal = v.generation is GenerationClass.PRINCIPAL
                assert principal == profile.finitely_generated_consistent


# ---------------------------------------------------------------------------
# localizing the global colon against the definitional per-stratum colon


def _stratum_agrees(global_colon, global_d, verdict, local_colon, reference):
    """The facts a stratum's verdict rests on, against the definitional
    ``reference`` = decompose(phi_W(I)): the substituted global colon is
    ``local_colon``, the colon of phi_W(I) (both computed by
    colon_symbolic); the residual rows of the substituted global J are
    exactly the rows of the reference's J; and the verdict's class and
    ``substituted`` are the reference's."""
    inverted = verdict.stratum.inverted
    sub = substitute(global_d.base, inverted)
    assert reference.base == sub == verdict.substituted
    assert substitute(global_colon.ranks, inverted) == local_colon.ranks
    j = substitute(global_d.j_part.ranks, inverted)
    rows = symbolic._residual_rows(sub, j.gens, compute_beta(sub))
    assert rows.tolist() == reference.j_part.ranks.gens.tolist()
    assert verdict.generation is reference.generation_class


def _definitional(sub, p):
    return colon_symbolic(sub, p), decompose(sub, p)


def test_localize_matches_definitional_on_every_enumerated_stratum(squarefree_classes):
    reference = {}  # many strata share one substituted ideal
    for p, max_n in ((2, 5), (3, 4), (5, 4)):
        for n in range(1, max_n + 1):
            for ideal, _ in squarefree_classes(n):
                report = build_locus(ideal, p)
                colon = colon_symbolic(ideal, p)
                global_d = decompose(ideal, p)
                for v in report.verdicts:
                    sub = v.substituted
                    if (sub, p) not in reference:
                        reference[sub, p] = _definitional(sub, p)
                    _stratum_agrees(colon, global_d, v, *reference[sub, p])


def test_colon_free_criterion_matches_build_locus_n5(squarefree_classes):
    # every admissible stratum with n <= 5: J_Z != 0 read off the generators
    # of phi_W(I), with no colon
    strata = 0
    for n in range(1, 6):
        for ideal, _ in squarefree_classes(n):
            for v in build_locus(ideal, 2).verdicts:
                masks = _brute.generator_masks(ideal, v.stratum.mask)
                infinite = v.generation is GenerationClass.INFINITE
                witness = _brute.j_nonzero(masks)
                assert (witness is not None) == infinite, (ideal, v.stratum)
                assert witness is None or _brute.is_witness(masks, *witness)
                strata += 1
    assert strata == 3591


# ---------------------------------------------------------------------------
# the openness theorem of the locus docstring: an infinite phi_i(I) makes I
# infinite, so U is open in V(I), and U contains every minimal stratum


def test_openness_theorem_on_the_census(squarefree_classes):
    # decided by decompose, not by the criterion the proof runs through
    proper = steps = pieces = 0
    for n in range(1, 6):
        for ideal, _ in squarefree_classes(n):
            report = build_locus(ideal, 2)
            infinite = decompose(ideal, 2).generation_class is GenerationClass.INFINITE
            for i in range(1, n + 1):
                local = substitute(ideal, [i])
                if local.is_unit():
                    continue
                proper += 1
                if decompose(local, 2).generation_class is GenerationClass.INFINITE:
                    assert infinite, (ideal, i)
                    steps += 1
            assert report.openness is Openness.OPEN, ideal
            assert "D(" not in report.expression_complement, ideal
            pieces += "D(" in report.expression_u
            masks = [v.stratum.mask for v in report.verdicts]
            for v, z in zip(report.verdicts, masks):
                if not any(m != z and m & ~z == 0 for m in masks):  # minimal
                    assert v.generation is GenerationClass.PRINCIPAL, (ideal, z)
    # 1111 proper phi_i(I), 373 of them infinite; U has a D( piece on 165
    # of the 248 classes
    assert (proper, steps, pieces) == (1111, 373, 165)


def _lifts(ideal):
    """Lift every witness of a proper phi_i(I) to I and check it against the
    criterion's definition; the number of witnesses lifted."""
    masks = _brute.generator_masks(ideal)
    lifted = 0
    for i in range(ideal.n):
        local = _brute.generator_masks(ideal, ~(1 << i) & ((1 << ideal.n) - 1))
        witness = _brute.j_nonzero(local) if 0 not in local else None
        if witness is not None:
            assert _brute.is_witness(local, *witness)
            lifted_witness = _brute.lift_witness(masks, i, witness)
            assert _brute.is_witness(masks, *lifted_witness), (ideal, i, witness)
            lifted += 1
    return lifted


def test_witnesses_lift_on_the_census(squarefree_classes):
    classes = (ideal for n in range(1, 6) for ideal, _ in squarefree_classes(n))
    assert sum(map(_lifts, classes)) == 373


@st.composite
def squarefree_ideals(draw):
    n = draw(st.integers(1, 10))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=8))
    return MonomialIdeal([[m >> i & 1 for i in range(n)] for m in masks], n)


@given(squarefree_ideals())
@settings(max_examples=150, deadline=None)
def test_witnesses_lift_random(ideal):
    _lifts(ideal)


def _edge_ideal(kind, n):
    edges = [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        edges.append((n - 1, 0))
    return MonomialIdeal([tuple(int(k in e) for k in range(n)) for e in edges], n)


@pytest.mark.parametrize("kind", ["path", "cycle"])
def test_build_locus_matches_definitional_on_paths_and_cycles(kind):
    for n in range(3, 9):
        ideal = _edge_ideal(kind, n)
        report = build_locus(ideal, 2)
        global_d = decompose(ideal, 2)
        assert report.verdicts == tuple(
            classify_stratum(global_d, s) for s in enumerate_strata(ideal)
        )
        assert [v.stratum for v in report.verdicts] == enumerate_strata(ideal)
        for v in report.verdicts:
            sub = substitute(ideal, v.stratum.inverted)
            assert v.substituted == sub
            principal = v.generation is GenerationClass.PRINCIPAL
            assert principal == decompose(sub, 2).j_part.is_zero()


@st.composite
def ideal_and_stratum(draw, grow=True):
    n = draw(st.integers(1, 7))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    ideal = MonomialIdeal([[m >> i & 1 for i in range(n)] for m in masks], n)
    z = draw(st.integers(0, (1 << n) - 1))
    for g in ideal.generators() if grow else ():  # until the stratum meets V(I)
        if not any(g[i] and z >> i & 1 for i in range(n)):
            z |= 1 << g.index(1)
    return ideal, Stratum(n, z)


@given(ideal_and_stratum(grow=False), st.sampled_from([2, 3]))
@settings(max_examples=150, deadline=None)
def test_classify_raises_exactly_off_the_listed_strata(case, p):
    ideal, stratum = case
    d = decompose(ideal, p)
    if stratum in enumerate_strata(ideal):
        assert classify_stratum(d, stratum).stratum == stratum
    else:
        with pytest.raises(InadmissibleStratum):
            classify_stratum(d, stratum)


@given(ideal_and_stratum(), st.sampled_from([2, 3, 5]))
@settings(max_examples=80, deadline=None)
def test_localize_matches_definitional_random(case, p):
    ideal, stratum = case
    global_d = decompose(ideal, p)
    reference = _definitional(substitute(ideal, stratum.inverted), p)
    verdict = classify_stratum(global_d, stratum)
    _stratum_agrees(colon_symbolic(ideal, p), global_d, verdict, *reference)


def test_build_locus_decomposes_once(monkeypatch, chain4):
    built = []
    init = symbolic.ColonDecomposition.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(symbolic.ColonDecomposition, "__init__", counting_init)
    for ambient in ("vi", "full"):
        built.clear()
        report = build_locus(chain4, 2, ambient=ambient)
        assert len(report.verdicts) > 1
        assert built == [chain4]


# ---------------------------------------------------------------------------
# the mask and rank-space fast paths against their frozenset and concrete
# references


def _witnessed(global_d, verdict):
    """The concrete reference search finds a ComplementPattern witness for
    an infinite verdict.  Returns whether the verdict is infinite.  The
    converse does not hold: principal strata may have a witness too."""
    if verdict.generation is GenerationClass.PRINCIPAL:
        return False
    witness = _brute.complement_pattern_witness(
        global_d, verdict.stratum, verdict.substituted
    )
    assert witness is not None, (global_d.base, verdict.stratum, global_d.p)
    return True


@pytest.mark.parametrize("p", [2, 3])
def test_complement_pattern_matches_reference_on_every_enumerated_stratum(
    p, squarefree_classes
):
    infinite = 0
    for n in range(1, 6):
        for ideal, _ in squarefree_classes(n):
            report = build_locus(ideal, p)
            d = decompose(ideal, p)
            for v in report.verdicts:
                assert v.substituted == substitute(ideal, v.stratum.inverted)
                infinite += _witnessed(d, v)
    assert infinite > 0


@given(ideal_and_stratum(), st.sampled_from([2, 3, 5]))
@settings(max_examples=80, deadline=None)
def test_complement_pattern_matches_reference_random(case, p):
    ideal, stratum = case
    global_d = decompose(ideal, p)
    _witnessed(global_d, classify_stratum(global_d, stratum))


def _is_upward_closed(strata):
    masks = {s.mask for s in strata}
    return all(z | 1 << i in masks for z in masks for i in range(strata[0].n))


def test_strata_universes_are_upward_closed(squarefree_classes):
    # is_open and render_expression walk single-bit covers on this premise
    for n in range(1, 6):
        assert _is_upward_closed(all_strata(n))
        for ideal, _ in squarefree_classes(n):
            assert _is_upward_closed(enumerate_strata(ideal)), ideal


@st.composite
def stratum_families(draw):
    """A universe (all strata, or the strata meeting V(I)) for n <= 5, split
    into members and the rest."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        universe = all_strata(n)
    else:
        masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=5))
        ideal = MonomialIdeal([[m >> i & 1 for i in range(n)] for m in masks], n)
        universe = enumerate_strata(ideal)
    size = len(universe)
    roles = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    members = [s for s, r in zip(universe, roles) if r]
    return universe, members, [s for s, r in zip(universe, roles) if not r]


@given(stratum_families())
@settings(max_examples=300, deadline=None)
def test_openness_and_display_match_reference(case):
    universe, members, rest = case
    assert _open(members, universe).value == _brute.is_open(members, universe)
    for family in (members, rest):
        expected = _brute.render_expression(family, universe)
        assert render_expression(family, universe[0].n) == expected


def test_pickle_round_trip(chain4):
    report = build_locus(chain4, 2, ambient="full")
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report
    assert copy.expression_u == report.expression_u
    assert copy.verdicts[0].substituted == report.verdicts[0].substituted
