"""Affine cell coordinates at a monomial ideal and the edge-scheme equations.

For a finite-colength M in k[x,y] and a grading, the ideals whose initial
ideal under the x-smaller order is M form an affine cell.  One coordinate is
attached to each positive significant arrow of M; the cell's universal ideal
has one generator per minimal generator of M, computed here by the standard
recursion and then tail-reduced to the unique reduced basis.  Both steps are
``Poly`` arithmetic on rows that map monomials to coefficient polynomials,
updated through ``poly.add_into``.

Every function here works on the x-smaller side; the y-smaller side of an
ideal is the x-smaller side of its swap under the swapped grading, with x and
y exchanged back.  The negative arrows are reached that way too, as in the
arrows layer: they are the positive arrows of the swap.  The edge equations
for a pair that ``arrows.oriented_pair`` has put in order, M above N, come
from reducing N's y-smaller cell basis, built that way, modulo the reduced
basis of M and reading off the coefficients of the standard monomials of M.
All coefficients stay integral because every reduction divides only by unit
lead coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .monomial import Grading, MonomialIdeal2, format_monomial
from .poly import Ring, add_into, arrow_ring


@dataclass(frozen=True)
class SignificantArrowSet:
    """Positive and negative arrow labels (generator index, step count)."""

    positive: tuple
    negative: tuple


def _positive_arrows(M, g):
    """Positive arrows of M under g, by generator index, then by step.

    No shift leaves the quadrant, since l <= b_i // alpha.
    """
    gens = M.gens
    arrows = []
    for i in range(1, len(gens)):
        ai, bi = gens[i]
        wi = (gens[i - 1][0], bi)
        for l in range(1, bi // g.alpha + 1):
            if (not M.contains(g.shift((ai, bi), l))
                    and M.contains(g.shift(wi, l))):
                arrows.append((i, l))
    return arrows


def significant_arrows(M, g):
    """All significant arrows of M for one grading.

    The negative ones are the positive arrows of the swap, with generator i
    read as e - i, ordered by generator index, then by step -1, -2, ....
    """
    e = len(M.gens) - 1
    mirrored = sorted((e - i, l) for i, l in
                      _positive_arrows(M.swap(), g.swap()))
    return SignificantArrowSet(tuple(_positive_arrows(M, g)),
                               tuple((i, -l) for i, l in mirrored))


@dataclass(frozen=True)
class CellBasis:
    """Generators of the universal cell ideal: lead monomial -> coefficients.

    elements[i] maps each monomial of the i-th generator to its coefficient
    polynomial; its lead is ideal.gens[i], which always carries coefficient
    one.
    """

    ideal: MonomialIdeal2
    ring: Ring
    elements: tuple  # tuple of dict(Mono -> Poly)


def _shift_element(elem, delta):
    """Multiply a cell element by x^da*y^db with possibly negative deltas."""
    da, db = delta
    out = {}
    for (a, b), poly in elem.items():
        a2, b2 = a + da, b + db
        if a2 < 0 or b2 < 0:
            raise RuntimeError("shift left the polynomial ring")
        out[(a2, b2)] = poly
    return out


def cell_generators_f(M, g, ring=None, var_side=0):
    """Recursive cell basis; element i has lead M.gens[i] with coefficient 1.

    The arrows are read off the ring: a given `ring`'s variables on
    `var_side` must be exactly M's positive arrows, as `arrow_ring` builds
    them, which lets both sides of a pair share one ring.  Without it the
    ring is built from M's positive arrows, on side 0 only.
    """
    if ring is None:
        ring = arrow_ring(_positive_arrows(M, g))
    gens = M.gens
    elements = [{gens[0]: ring.one()}]
    by_index = {}
    for v in ring.vars:
        if v.side == var_side:
            by_index.setdefault(v.index, []).append(v)
    for i in range(1, len(gens)):
        prev = gens[i - 1]
        cur = gens[i]
        acc = _shift_element(elements[i - 1],
                             (cur[0] - prev[0], cur[1] - prev[1]))
        wi = (prev[0], cur[1])
        for v in by_index.get(i, ()):
            hop = g.shift(wi, v.step)
            target = g.shift(cur, v.step)
            j = M.j_index(hop)
            var = ring.var(v)
            delta = (target[0] - gens[j][0], target[1] - gens[j][1])
            for m, poly in _shift_element(elements[j], delta).items():
                add_into(acc, m, var * poly)
        elements.append(acc)
    return CellBasis(M, ring, tuple(elements))


def _tail_reduce(elem, lead, basis):
    """Rewrite every non-lead monomial of the ideal via the cell basis."""
    M = basis.ideal
    work = dict(elem)
    while True:
        candidates = [m for m in work if m != lead and M.contains(m)]
        if not candidates:
            return work
        u = max(candidates, key=lambda m: m[1])
        coeff = work.pop(u)
        j = M.j_index(u)
        gj = M.gens[j]
        da, db = u[0] - gj[0], u[1] - gj[1]
        for m, poly in basis.elements[j].items():
            if m != gj:
                add_into(work, (m[0] + da, m[1] + db), -(coeff * poly))


def cell_generators_g(M, g, ring=None):
    """Reduced x-smaller cell basis: tails are standard monomials of M."""
    basis = cell_generators_f(M, g, ring=ring)
    reduced = []
    for i, elem in enumerate(basis.elements):
        lead = M.gens[i]
        red = _tail_reduce(elem, lead, basis)
        if any(m != lead and M.contains(m) for m in red):
            raise RuntimeError(f"a tail of {format_monomial(lead)} is in {M}")
        reduced.append(red)
    return CellBasis(M, basis.ring, tuple(reduced))


def reduce_monomial(m, gbasis):
    """Normal form of a monomial of the ideal modulo the reduced cell basis.

    Returns a map from standard monomials (all of the same weight as m, with
    smaller y-exponent) to integer coefficient polynomials.
    """
    M = gbasis.ideal
    if not M.contains(m):
        raise ValueError(f"{format_monomial(m)} is not in {M}")
    nf = _tail_reduce({m: gbasis.ring.one()}, None, gbasis)
    if any(M.contains(s) for s in nf):
        raise RuntimeError(f"normal form of {format_monomial(m)} meets {M}")
    return nf


@dataclass(frozen=True)
class EdgeIdeal:
    """Integer equations cutting out the ideals whose two limits are M and N.

    Keys run over every pair (n, s) with n a minimal generator of N and s a
    standard monomial of M of the same weight; values may be zero.
    """

    M: MonomialIdeal2
    N: MonomialIdeal2
    grading: Grading
    ring: Ring
    generators: tuple  # ((n, s, Poly), ...)

    def nonzero_generators(self):
        return [p for _, _, p in self.generators if p]

    def generator(self, n, s):
        for nn, ss, p in self.generators:
            if nn == n and ss == s:
                return p
        raise KeyError((n, s))


def edge_ideal(pair):
    """Equations for an oriented pair, M = pair.big over N = pair.small.

    The order comes with the pair; the two ideals must differ (ValueError).
    N's family is its y-smaller cell basis: the cell basis of N.swap() under
    g.swap(), with x and y exchanged back.  Raises RuntimeError if an
    equation comes out with a non-integral coefficient.
    """
    M, N, g = pair.big, pair.small, pair.grading
    if M == N:
        raise ValueError("the two ideals must differ")

    n_swap, g_swap = N.swap(), g.swap()
    ring = arrow_ring(_positive_arrows(M, g), _positive_arrows(n_swap, g_swap))
    gb = cell_generators_g(M, g, ring=ring)
    n_basis = cell_generators_f(n_swap, g_swap, ring=ring, var_side=1)

    std_by_weight = {}
    for s in M.standard_monomials():
        std_by_weight.setdefault(g.weight(s), []).append(s)

    generators = []
    for (b, a), elem in zip(n_swap.gens, n_basis.elements):
        n = (a, b)
        w = g.weight(n)
        nf = _tail_reduce({(v, u): poly for (u, v), poly in elem.items()},
                          None, gb)
        targets = sorted(std_by_weight.get(w, ()), key=lambda s: s[1],
                         reverse=True)
        if not set(nf) <= set(targets):
            raise RuntimeError(f"stray term reducing {N} modulo {M}")
        for s in targets:
            poly = nf.get(s, ring.zero())
            if not all(isinstance(c, int) for c in poly.terms.values()):
                raise RuntimeError(
                    f"edge equation ({format_monomial(n)}, "
                    f"{format_monomial(s)}) of {M} over {N} is not integral")
            generators.append((n, s, poly))
    return EdgeIdeal(M, N, g, ring, tuple(generators))


def tangent_weight_count(M):
    """Total significant arrows over all gradings; always twice the colength."""
    total = M.a0 + M.be  # arrows of the two degenerate gradings
    bound_a = max(M.be, 1)
    bound_b = max(M.a0, 1)
    for alpha in range(1, bound_a + 1):
        for beta in range(1, bound_b + 1):
            if gcd(alpha, beta) != 1:
                continue
            arrows = significant_arrows(M, Grading(alpha, beta))
            total += len(arrows.positive) + len(arrows.negative)
    return total
