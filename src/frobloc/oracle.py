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

The flags need no product.  Since L_e and I^[q] (q = p^e) lie in F_e, F_e
differs from L_e + I^[q] iff some generator of F_e lies outside L_e + I^[q],
and a monomial lies in a sum of monomial ideals iff it lies in a summand.  So
``classify_up_to`` keeps the generators r of F_e outside I^[q] and, for each
k, drops those in F_k * F_{e-k}^[p^k]: r is there iff r - a is divisible by
a generator of F_{e-k}^[p^k] for some generator a of F_k with a <= r.  The
flag is true iff a row survives every k.  That costs one divisibility test
per nonnegative residual r - a and no minimalization; the (row, a) pair
count is held to the generator budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monomials import MonomialIdeal, PrimePower, _check_budget


def compute_f(ideal: MonomialIdeal, p: int, e: int) -> MonomialIdeal:
    """F_e = (I^[p^e] : I)."""
    return ideal.frobenius_power(PrimePower(p, e)).colon(ideal)


def _outside_lower_degrees(
    f_ideals: dict[int, MonomialIdeal], ideal: MonomialIdeal, p: int, e: int
) -> bool:
    """Whether some generator of F_e lies outside L_e + I^[p^e], decided by
    membership in each product F_k * F_{e-k}^[p^k] without forming it."""
    f_e = f_ideals[e]
    power = ideal.frobenius_power(PrimePower(p, e))
    rows = f_e.gens[~power.contains_each(f_e.gens)]
    for k in range(1, e):
        if rows.shape[0] == 0:
            break
        lower = f_ideals[k].gens
        _check_budget(rows.shape[0] * lower.shape[0])
        residuals = rows[:, None, :] - lower[None, :, :]
        owner, which = np.nonzero((residuals >= 0).all(axis=2))
        shifted = f_ideals[e - k].frobenius_power(PrimePower(p, k))
        hit = shifted.contains_each(residuals[owner, which])
        covered = np.zeros(rows.shape[0], dtype=bool)
        covered[owner[hit]] = True
        rows = rows[~covered]
    return rows.shape[0] > 0


@dataclass(frozen=True)
class GenerationProfile:
    """F_1 .. F_max_e of an ideal and the degrees that need new generators.

    ``needs_new[e - 1]`` is true iff some generator of F_e lies outside
    L_e + I^[p^e]; the module docstring shows that this is F_e != L_e +
    I^[p^e], decided by membership in each product F_k * F_{e-k}^[p^k].
    """

    ideal: MonomialIdeal
    p: int
    max_e: int
    f_ideals: tuple[MonomialIdeal, ...]  # F_1 .. F_max_e
    needs_new: tuple[bool, ...]  # degree e needs fresh algebra generators

    @property
    def finitely_generated_consistent(self) -> bool:
        """No new generators needed at any degree 2 <= e <= max_e.

        Vacuous at max_e = 1: ``needs_new[1:]`` is then empty, so every
        profile reads consistent.  That is why the CLI rejects ``--check``
        and ``oracle`` below depth 2.
        """
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
    """Compute F_e and the needs-new flags for e = 1 .. max_e.

    A profile with needs_new false beyond degree 1 is evidence for (never a
    proof of) finite generation; any true flag at degree >= 2 reproduces the
    construction used to exhibit infinitely generated examples.  At max_e = 1
    there is no such degree and ``finitely_generated_consistent`` holds
    vacuously, so the CLI's ``--check`` and ``oracle`` need max_e >= 2.
    """
    if ideal.is_zero():
        raise ValueError("the zero ideal has no generation profile")
    if max_e < 1:
        raise ValueError(f"max_e={max_e} must be >= 1")
    fs: dict[int, MonomialIdeal] = {}
    flags = []
    for e in range(1, max_e + 1):
        fs[e] = compute_f(ideal, p, e)
        _check_budget(fs[e].num_generators())
        flags.append(_outside_lower_degrees(fs, ideal, p, e))
    return GenerationProfile(
        ideal=ideal,
        p=p,
        max_e=max_e,
        f_ideals=tuple(fs[e] for e in range(1, max_e + 1)),
        needs_new=tuple(flags),
    )
