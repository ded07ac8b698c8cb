"""Pure-python brute-force oracles used to validate the library.

Everything here works on plain tuples with definitional algorithms (no
numpy, no shared kernels) so the checks stay independent of the code paths
they validate.
"""

from itertools import product


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def contains(gens, mono):
    """Membership by definition: some generator divides the monomial."""
    return any(divides(g, mono) for g in gens)


def minimalize(gens):
    """Antichain reduction, sorted for comparison.

    A proper divisor has a smaller total degree, and divisibility is
    transitive, so scanning by degree and testing each monomial against
    the minimal ones kept so far finds every dominated generator.
    """
    keep = []
    for g in sorted(set(map(tuple, gens)), key=sum):
        if not contains(keep, g):
            keep.append(g)
    return sorted(keep)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def exhaustive_monomials(bounds):
    """Every exponent vector with 0 <= m_i <= bounds_i."""
    return product(*(range(b + 1) for b in bounds))


def colon(j_gens, i_gens, n):
    """(J : I) by scanning all candidate monomials up to the J-exponent box.

    Every minimal generator of the colon is bounded componentwise by the
    largest exponent appearing in J, so the box search is exhaustive.
    """
    if not j_gens:
        return []
    bounds = tuple(max(g[k] for g in j_gens) for k in range(n))
    members = [
        m
        for m in exhaustive_monomials(bounds)
        if all(contains(j_gens, mono_mul(m, g)) for g in i_gens)
    ]
    return minimalize(members)


def upward_closure(family, universe):
    """Explicit closure of a stratum family under Z-inclusion."""
    return {z for z in universe if any(set(m) <= set(z) for m in family)}


def compositions(e):
    """Ordered tuples of at least two parts summing to e (empty for e = 1)."""
    if e == 1:
        return []
    out = []
    for first in range(1, e):
        rest = e - first
        out.append((first, rest))
        out.extend((first,) + tail for tail in compositions(rest))
    return out


def compositions_l(f_gens, p, e):
    """L_e by definition: the sum over every ordered composition e = e_1 + ...
    + e_s (s >= 2) of F_{e_1} * F_{e_2}^[p^{e_1}] * ... * F_{e_s}^[p^{e_1 +
    ... + e_{s-1}}], with F_k given as generator lists in ``f_gens[k]``."""
    total = []
    for composition in compositions(e):
        shift = 0
        term = [(0,) * len(f_gens[1][0])]
        for part in composition:
            factor = [tuple(p**shift * x for x in g) for g in f_gens[part]]
            term = minimalize(mono_mul(a, b) for a in term for b in factor)
            shift += part
        total.extend(term)
    return minimalize(total)
