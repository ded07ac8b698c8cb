"""Pure-python brute-force oracles used to validate the library.

Everything here works on plain tuples with definitional algorithms (no
numpy, no shared kernels) so the checks stay independent of the code paths
they validate.  The one exception is the section of replaced library paths:
earlier, slower forms of ideal operations, kept so that the fast paths that
replaced them can be compared against them on whole ideals.
"""

from itertools import permutations, product

import numpy as np

from frobloc.monomials import MonomialIdeal, PrimePower


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


# ---------------------------------------------------------------------------
# replaced library paths: the sum as one re-minimalization of both generator
# matrices, the colon as an intersection of minimalized single quotients, and
# the F_e/L_e oracle built from the two


def ideal_sum(i, j):
    """i + j: stack both generator matrices and minimalize the stack."""
    return MonomialIdeal.from_matrix(np.vstack([i.gens, j.gens]), i.n)


def ideal_colon(j, i):
    """(j : i) as the intersection over generators g of i of (j : x^g), each
    minimalized on its own before it is intersected."""
    result = None
    for g in i.gens:
        single = MonomialIdeal.from_matrix(np.maximum(j.gens, g) - g, j.n)
        result = single if result is None else result & single
    return result


def oracle_profile(ideal, p, max_e):
    """(F_e, L_e, needs_new) for e = 1 .. max_e through the replaced paths:
    F_e = (I^[q] : I), L_e = sum_k F_k * F_{e-k}^[p^k], and degree e needs
    new generators iff F_e differs from L_e + I^[q]."""
    fs, ls, flags = [], [], []
    for e in range(1, max_e + 1):
        power = ideal.frobenius_power(PrimePower(p, e))
        fs.append(ideal_colon(power, ideal))
        total = MonomialIdeal.zero(ideal.n)
        for k in range(1, e):
            shifted = fs[e - k - 1].frobenius_power(PrimePower(p, k))
            total = ideal_sum(total, fs[k - 1] * shifted)
        ls.append(total)
        flags.append(fs[-1] != ideal_sum(total, power))
    return tuple(fs), tuple(ls), tuple(flags)


# ---------------------------------------------------------------------------
# stratum-level references: frozensets of variable indexes and concrete
# exponents at q = p, read from the library's objects through their public
# fields only


def at(rank, q):
    """The symbolic exponent of a rank (0, q-1 or q) at a concrete q."""
    return (0, q - 1, q)[rank]


def complement_pattern_witness(global_d, stratum, sub):
    """The concrete certificate search at q = p: an original J generator
    whose image on the stratum shows the exponents 0, p-1 and p among the
    variables of Z and lies outside the localized I^[p] + ((x^beta)^(p-1)).
    Returns that image, or None."""
    p = global_d.p
    z = stratum.in_prime
    w = frozenset(range(1, stratum.n + 1)) - z
    socle = tuple(
        0 if i in w else b * (p - 1) for i, b in enumerate(global_d.beta, 1)
    )
    localized_sum = [tuple(p * c for c in g) for g in sub.generators()] + [socle]
    for row in global_d.j_part.rank_rows():
        image = tuple(0 if i in w else at(r, p) for i, r in enumerate(row, 1))
        if {image[i - 1] for i in z} >= {0, p - 1, p} and not contains(
            localized_sum, image
        ):
            return image
    return None


def generator_masks(ideal, z=None):
    """The minimal supports of a square-free ideal's generators as bitmasks
    (bit i-1 for x_i), restricted to the variable set z when given: the
    generators of phi_W(I) for the stratum Z = z."""
    masks = {sum(1 << i for i, c in enumerate(g) if c) for g in ideal.generators()}
    if z is not None:
        masks = {m & z for m in masks}
    return minimal_masks(masks)


def minimal_masks(masks):
    """The minimal members of a set of masks."""
    return [m for m in masks if not any(o != m and o & ~m == 0 for o in masks)]


def j_nonzero(masks):
    """The colon-free criterion: J != 0 iff some variable v of supp(I) has,
    for each generator g containing v, a generator h_g missing v such that
    the q-set, the union of the h_g minus g, contains no generator.  Returns
    a witness (v, h), v a bit index and h the dict g -> h_g, or None.  A DFS
    over the choices of h_g, cut as soon as the q-set contains a generator
    (it only grows)."""

    def extend(through, avoiding, q_set):
        if any(g & ~q_set == 0 for g in masks):
            return None
        if not through:
            return {}
        g = through[0]
        for h in avoiding:
            rest = extend(through[1:], avoiding, q_set | h & ~g)
            if rest is not None:
                return {g: h, **rest}
        return None

    support = 0
    for g in masks:
        support |= g
    for v in range(support.bit_length()):
        through = [g for g in masks if g >> v & 1]
        avoiding = [h for h in masks if not h >> v & 1]
        h = extend(through, avoiding, 0) if through and avoiding else None
        if h is not None:
            return v, h
    return None


def is_witness(masks, v, h):
    """Whether (v, h) meets the criterion's definition on these generator
    masks: v lies in some generator, h sends each generator g containing v
    to a generator missing v, and the q-set, the union of the h[g] minus g,
    contains no generator."""
    through = {g for g in masks if g >> v & 1}
    if not through or set(h) != through:
        return False
    if any(h[g] not in masks or h[g] >> v & 1 for g in through):
        return False
    q_set = 0
    for g in through:
        q_set |= h[g] & ~g
    return not any(f & ~q_set == 0 for f in masks)


def lift_witness(masks, i, witness):
    """A witness (v, h) for the generator masks of I, built from a witness
    (v, h') for phi_i(I) (x_i set to 1, i a bit index) as in the
    witness-lifting proof of the ``frobloc.locus`` docstring.  For each
    generator g through v, g' is a generator of phi_i(I) inside g minus i;
    h_g is a generator of I that becomes h'_{g'} if g' contains v, and g'
    otherwise."""
    v, h_local = witness
    drop = ~(1 << i)
    local = minimal_masks({g & drop for g in masks})

    def preimage(m):  # a generator of I that becomes m once x_i = 1
        return next(g for g in masks if g & drop == m)

    h = {}
    for g in masks:
        if g >> v & 1:
            g_local = next(m for m in local if m & ~g == 0)
            h[g] = preimage(h_local[g_local] if g_local >> v & 1 else g_local)
    return v, h


def is_open(members, universe):
    """Openness ("open" or "not_open") of a union of strata by frozenset
    inclusion: open iff the complement is upward-closed."""
    complement = set(universe) - set(members)
    closure = {
        z for z in universe if any(m.in_prime <= z.in_prime for m in complement)
    }
    return "open" if complement == closure else "not_open"


def render_expression(members, universe):
    """D/V display of a union of strata by frozenset inclusion: a minimal
    member whose whole up-set lies in the family is written V(...), every
    other member as V(...) ∩ D(...)."""
    members = set(members)
    if not members:
        return "(empty)"

    def v(s):
        return "V((" + ",".join(f"x{i}" for i in sorted(s.in_prime)) + "))"

    consumed = set()
    pieces = []
    def bitmask(s):
        return sum(1 << (i - 1) for i in s.in_prime)

    for z in sorted(members, key=lambda s: (len(s.in_prime), bitmask(s))):
        if z in consumed:
            continue
        minimal = not any(m.in_prime < z.in_prime for m in members)
        up = {s for s in universe if z.in_prime <= s.in_prime}
        if minimal and up <= members:
            pieces.append(v(z))
            consumed |= up
            continue
        w = sorted(frozenset(range(1, z.n + 1)) - z.in_prime)
        d = "D(" + "*".join(f"x{i}" for i in w) + ")" if w else None
        if z.in_prime and d:
            pieces.append(f"({v(z)} ∩ {d})")
        else:
            pieces.append(v(z) if z.in_prime else d or "Spec")
        consumed.add(z)
    return " ∪ ".join(pieces)


# ---------------------------------------------------------------------------
# enumeration by definition: every antichain, every permutation


def antichains(n):
    """All nonempty antichains of nonempty subsets of {1..n}, as mask tuples."""
    masks = list(range(1, 1 << n))
    out = []

    def comparable(a, b):
        meet = a & b
        return meet == a or meet == b

    def rec(start, chosen):
        if chosen:
            out.append(tuple(chosen))
        for k in range(start, len(masks)):
            m = masks[k]
            if all(not comparable(m, c) for c in chosen):
                chosen.append(m)
                rec(k + 1, chosen)
                chosen.pop()

    rec(0, [])
    return out


def permute_mask(mask, perm):
    out = 0
    for i, target in enumerate(perm):
        if (mask >> i) & 1:
            out |= 1 << target
    return out


def canonical_key(masks, n):
    """Lex-least permuted image of the generator masks, plus the orbit size."""
    images = set()
    for perm in permutations(range(n)):
        images.add(tuple(sorted(permute_mask(m, perm) for m in masks)))
    return min(images), len(images)


def canonical_classes(n):
    """(key, orbit size) per symmetry class of antichains, ordered by
    (generator count, key): the n!-permutation scan of every antichain."""
    seen = {}
    for chain in antichains(n):
        key, orbit = canonical_key(chain, n)
        seen.setdefault(key, orbit)
    return sorted(seen.items(), key=lambda kv: (len(kv[0]), kv[0]))
