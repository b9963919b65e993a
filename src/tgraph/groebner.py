"""Buchberger engine over exact coefficients, with a hard work budget.

Verdicts are tri-state at the call sites: a run that exceeds its budget raises
BudgetExceeded, which callers convert to an explicit unknown rather than a
guess.  Output is deterministic: fixed pair selection, fixed reducer order,
fully interreduced monic result.

In characteristic 0 a run is fraction-free: the inputs are cleared of
denominators, every intermediate basis element is kept primitive over the
integers (content 1, positive lead), and reduction is integer
pseudo-division.  Each element is a nonzero scalar multiple of its monic
version, so the run forms the same S-pairs and makes the same reduction steps
as it would over monic elements; the reduced basis is made monic once, at the
end.  In characteristic p, primitive means monic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, neg, sub

from .poly import Poly

DEFAULT_BUDGET = 200_000


class BudgetExceeded(RuntimeError):
    """Raised when a run needs more S-pair reductions than allowed."""


@dataclass
class GroebnerBasis:
    generators: list
    stats: dict = field(default_factory=dict)

    def leads(self):
        return [g.lead()[0] for g in self.generators]

    def is_trivial(self):
        return len(self.generators) == 1 and self.generators[0].total_degree() == 0


def _lcm(e1, e2):
    return tuple(map(max, e1, e2))


def _divides(e1, e2):
    return all(map(le, e1, e2))


def _descending(key):
    """A grevlex key negated, so that a min-heap pops the largest term first."""
    return tuple(map(neg, key))


def _primitive(p):
    """The scalar multiple of p that basis elements are kept as.

    In characteristic 0 it has integer coefficients with gcd 1 and a positive
    lead; in characteristic p it is monic.
    """
    ring = p.ring
    if ring.char or not p:
        return p.monic()
    coeffs = p.terms.values()
    den = lcm(*(c.denominator for c in coeffs))
    content = gcd(*(c.numerator for c in coeffs))
    if p.lead()[1] < 0:
        content = -content
    if den == 1 and content == 1:
        return p
    return Poly(ring, {e: (c * den).numerator // content
                       for e, c in p.terms.items()})


def normal_form(f, basis, stats=None):
    """Full remainder of f on division by basis.

    The remainder is exact when every reducer is monic, and a nonzero scalar
    multiple of it otherwise.  A term c*x^e met by a reducer g whose lead
    coefficient a is not 1 is reduced by pseudo-division: with q = gcd(a, c),
    every pending and remainder coefficient is multiplied by a/q, then
    (c/q)*x^shift*g is subtracted.  That branch needs integer coefficients,
    which is what ``buchberger`` works with.

    The largest pending term is reduced first.  Pending terms sit in a heap
    on their negated grevlex key, computed once, when the term enters the
    work dict.  A term that cancels keeps its entry and a zero coefficient,
    and is skipped when popped; if it is created again, that entry still
    stands, because a reduction only creates terms smaller than the one
    popped.  The key is injective, so the heap yields terms in the grevlex
    order that taking the maximum of the work dict at every step would: the
    remainder and the count of reduction steps are those of that loop.
    Reducers whose lead has a larger degree than the term are passed over
    before the divisibility test.
    """
    if not basis:
        return f
    ring = f.ring
    key = ring.key
    coeff = ring.coeff
    reducers = []
    for g in basis:
        lead, a = g.lead()
        reducers.append((lead, sum(lead), a, g))
    work = dict(f.terms)
    heap = [(_descending(key(e)), e) for e in work]
    heapify(heap)
    rem = {}
    steps = 0
    while heap:
        order, e = heappop(heap)
        c = work.pop(e)
        if not c:
            continue
        degree = -order[0]
        for lead, lead_degree, a, g in reducers:
            if lead_degree <= degree and _divides(lead, e):
                steps += 1
                if a != 1:
                    q = gcd(a, c)
                    scale = a // q
                    if scale != 1:
                        for e3, c3 in work.items():
                            work[e3] = coeff(c3 * scale)
                        for e3, c3 in rem.items():
                            rem[e3] = coeff(c3 * scale)
                    c //= q
                shift = tuple(map(sub, e, lead))
                for e2, c2 in g.terms.items():
                    if e2 == lead:
                        continue
                    e3 = tuple(map(add, e2, shift))
                    old = work.get(e3)
                    if old is None:
                        work[e3] = coeff(-c * c2)
                        heappush(heap, (_descending(key(e3)), e3))
                    else:
                        work[e3] = coeff(old - c * c2)
                break
        else:
            rem[e] = c
    if steps and stats is not None:
        stats["reduction_steps"] = stats.get("reduction_steps", 0) + steps
    return Poly(ring, rem)


def _spoly(f, g):
    ef, cf = f.lead()
    eg, cg = g.lead()
    q = gcd(cf, cg)
    lcm = _lcm(ef, eg)
    mf = tuple(a - b for a, b in zip(lcm, ef))
    mg = tuple(a - b for a, b in zip(lcm, eg))
    return f.mul_term(mf, cg // q) - g.mul_term(mg, cf // q)


def _update_pairs(basis_leads, pairs, queue, t, ring):
    """Gebauer-Moeller pair update when generator index t is appended.

    Returns the surviving pairs.  Each new pair (i, t) is also pushed onto
    the selection heap ``queue`` as (grevlex key of its lcm, i, t).
    """
    lm_t = basis_leads[t]
    lcm = _lcm
    divides = _divides

    kept = set()
    for (i, j) in pairs:
        lij = lcm(basis_leads[i], basis_leads[j])
        if (not divides(lm_t, lij)
                or lij == lcm(basis_leads[i], lm_t)
                or lij == lcm(basis_leads[j], lm_t)):
            kept.add((i, j))

    by_lcm = {}
    for i in range(t):
        by_lcm.setdefault(lcm(basis_leads[i], lm_t), []).append(i)
    minimal = []
    for k, L in sorted((ring.key(L), L) for L in by_lcm):
        if all(not divides(L2, L) for _, L2 in minimal):
            minimal.append((k, L))
    for k, L in minimal:
        coprime = any(
            lcm(basis_leads[i], lm_t)
            == tuple(a + b for a, b in zip(basis_leads[i], lm_t))
            for i in by_lcm[L]
        )
        if not coprime:
            i = min(by_lcm[L])
            kept.add((i, t))
            heappush(queue, (k, i, t))
    return kept


def buchberger(gens, budget=DEFAULT_BUDGET):
    """Reduced Groebner basis of the given generators, deterministically.

    Raises BudgetExceeded when more than `budget` S-pair reductions would be
    needed.  The zero ideal yields an empty basis.  The next S-pair is the
    one whose lcm is grevlex-least, ties going to the smaller index pair; a
    heap holds every pair ever formed and skips those the updates dropped.
    """
    gens = [_primitive(g) for g in gens if g]
    stats = {"s_pairs": 0, "reduction_steps": 0, "basis_size": 0}
    if not gens:
        return GroebnerBasis([], stats=stats)
    ring = gens[0].ring
    ordered = sorted(gens, key=lambda g: ring.key(g.lead()[0]))

    basis = []
    leads = []
    pairs = set()
    queue = []
    for g in ordered:
        r = _primitive(normal_form(g, basis, stats))
        if not r:
            continue
        basis.append(r)
        leads.append(r.lead()[0])
        pairs = _update_pairs(leads, pairs, queue, len(basis) - 1, ring)

    while queue:
        _, i, j = heappop(queue)
        if (i, j) not in pairs:
            continue
        pairs.discard((i, j))
        stats["s_pairs"] += 1
        if stats["s_pairs"] > budget:
            raise BudgetExceeded(f"S-pair budget {budget} exceeded")
        r = normal_form(_spoly(basis[i], basis[j]), basis, stats)
        if not r:
            continue
        r = _primitive(r)
        basis.append(r)
        leads.append(r.lead()[0])
        pairs = _update_pairs(leads, pairs, queue, len(basis) - 1, ring)

    # Minimalize: drop generators whose lead is a multiple of another lead.
    minimal = []
    for idx in sorted(range(len(basis)), key=lambda k: ring.key(leads[k])):
        if all(not _divides(m.lead()[0], leads[idx]) for m in minimal):
            minimal.append(basis[idx])
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        reduced.append(normal_form(g, others, stats).monic())
    reduced.sort(key=lambda g: ring.key(g.lead()[0]))
    stats["basis_size"] = len(reduced)
    return GroebnerBasis(reduced, stats=stats)


def _min_hitting_set(supports, best):
    if not supports:
        return 0
    if best <= 0:
        return None
    pivot = min(supports, key=len)
    result = None
    for v in sorted(pivot):
        rest = [s for s in supports if v not in s]
        sub = _min_hitting_set(rest, (best if result is None else result) - 1)
        if sub is not None and (result is None or sub + 1 < result):
            result = sub + 1
    return result


def quotient_dimension(gb, nvars):
    """Krull dimension of the quotient by the ideal with this reduced basis.

    Computed as the largest variable subset meeting no lead-term support,
    via the complementary minimum hitting set.
    """
    supports = set()
    for e in gb.leads():
        s = frozenset(i for i, x in enumerate(e) if x)
        if not s:
            raise ValueError("the unit ideal has no quotient dimension")
        supports.add(s)
    supports = sorted(supports, key=sorted)
    hit = _min_hitting_set(supports, len(frozenset().union(*supports)) + 1)
    return nvars - hit
