"""Independent brute-force check of degree-wise algebra generation.

Writing F_e = (I^[p^e] : I) for the degree-e piece, the part of F_e that the
lower degrees generate is the sum over ordered compositions
e = e_1 + ... + e_s (s >= 2) of F_{e_1} * F_{e_2}^[p^{e_1}] * ...  Grouping
the compositions by their first part k leaves, as the tail, F_{e-k} plus
L_{e-k}, all raised to [p^k].  The algebra is graded-closed: if uI ⊆ I^[p^a]
and vI ⊆ I^[p^b] then u v^(p^a) I ⊆ (vI)^[p^a] ⊆ I^[p^(a+b)], so
F_a * F_b^[p^a] ⊆ F_{a+b} and in particular L_{e-k} ⊆ F_{e-k}.  Hence

    L_e = sum_{k=1}^{e-1}  F_k * F_{e-k}^[p^k],

e - 1 products instead of 2^(e-1) - 1 compositions.  Degree e needs algebra
generators beyond the lower degrees exactly when F_e exceeds L_e modulo
I^[p^e].  Everything here is computed at concrete q with plain ideal
arithmetic; no symbolic machinery is shared with the classifier, which is
what makes this an independent cross-check.

Past the products, L_e and the reachable part L_e + I^[q] cost only sums of
canonical antichains: two divisibility cross tests and a merge each.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monomials import MonomialIdeal, PrimePower, _check_budget


def compute_f(ideal: MonomialIdeal, p: int, e: int) -> MonomialIdeal:
    """F_e = (I^[p^e] : I)."""
    return ideal.frobenius_power(PrimePower(p, e)).colon(ideal)


def compute_l(
    f_ideals: dict[int, MonomialIdeal], p: int, e: int
) -> MonomialIdeal:
    """L_e from the already-computed F_1 .. F_{e-1}; L_1 is the zero ideal."""
    sample = f_ideals.get(1)
    if sample is None:
        raise ValueError("compute_l needs F_1")
    total = MonomialIdeal.zero(sample.n)
    for k in range(1, e):
        term = f_ideals[k] * f_ideals[e - k].frobenius_power(PrimePower(p, k))
        _check_budget(term.num_generators())
        total = total + term
    return total


@dataclass(frozen=True)
class GenerationProfile:
    ideal: MonomialIdeal
    p: int
    max_e: int
    f_ideals: tuple[MonomialIdeal, ...]  # F_1 .. F_max_e
    l_ideals: tuple[MonomialIdeal, ...]  # L_1 .. L_max_e
    needs_new: tuple[bool, ...]  # degree e needs fresh algebra generators

    @property
    def finitely_generated_consistent(self) -> bool:
        """No new generators needed at any degree 2 <= e <= max_e."""
        return not any(self.needs_new[1:])

    def summary(self) -> str:
        kind = (
            "consistent with a finitely generated algebra"
            if self.finitely_generated_consistent
            else "needs new generators at degree "
            + ", ".join(str(e) for e in range(2, self.max_e + 1) if self.needs_new[e - 1])
        )
        return f"up to e={self.max_e}: {kind}"


def classify_up_to(ideal: MonomialIdeal, p: int, max_e: int) -> GenerationProfile:
    """Compute F_e, L_e and the needs-new flags for e = 1 .. max_e.

    A profile with needs_new false beyond degree 1 is evidence for (never a
    proof of) finite generation; any true flag at degree >= 2 reproduces the
    construction used to exhibit infinitely generated examples.
    """
    if ideal.is_zero():
        raise ValueError("the zero ideal has no generation profile")
    if max_e < 1:
        raise ValueError(f"max_e={max_e} must be >= 1")
    fs: dict[int, MonomialIdeal] = {}
    ls: dict[int, MonomialIdeal] = {}
    flags = []
    for e in range(1, max_e + 1):
        fs[e] = compute_f(ideal, p, e)
        _check_budget(fs[e].num_generators())
        ls[e] = compute_l(fs, p, e)
        _check_budget(ls[e].num_generators())
        reachable = ls[e] + ideal.frobenius_power(PrimePower(p, e))
        flags.append(fs[e] != reachable)
    return GenerationProfile(
        ideal=ideal,
        p=p,
        max_e=max_e,
        f_ideals=tuple(fs[e] for e in range(1, max_e + 1)),
        l_ideals=tuple(ls[e] for e in range(1, max_e + 1)),
        needs_new=tuple(flags),
    )
