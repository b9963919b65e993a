"""Buchberger engine over exact coefficients, with a hard work budget.

Verdicts are tri-state at the call sites: a run that exceeds its budget raises
BudgetExceeded, which callers convert to an explicit unknown rather than a
guess.  Output is deterministic: fixed pair selection, fixed reducer order,
fully interreduced monic result.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .poly import Poly

DEFAULT_BUDGET = 200_000


class BudgetExceeded(RuntimeError):
    """Raised when a run needs more S-pair reductions than allowed."""


@dataclass
class GroebnerBasis:
    generators: list
    reduced: bool
    stats: dict = field(default_factory=dict)

    def leads(self):
        return [g.lead()[0] for g in self.generators]

    def is_trivial(self):
        return len(self.generators) == 1 and self.generators[0].total_degree() == 0


def _lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def normal_form(f, basis, stats=None):
    """Full remainder of f on division by basis (monic leads assumed)."""
    if not basis:
        return f
    ring = f.ring
    key = ring.key
    leads = [g.lead()[0] for g in basis]
    rem = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for lead, g in zip(leads, basis):
            if _divides(lead, e):
                if stats is not None:
                    stats["reduction_steps"] = stats.get("reduction_steps", 0) + 1
                shift = tuple(a - b for a, b in zip(e, lead))
                for e2, c2 in g.terms.items():
                    if e2 == lead:
                        continue
                    e3 = tuple(a + b for a, b in zip(e2, shift))
                    c3 = ring.coeff(work.get(e3, 0) - c * c2)
                    if c3:
                        work[e3] = c3
                    else:
                        work.pop(e3, None)
                break
        else:
            rem[e] = c
    return Poly(ring, rem)


def _spoly(f, g):
    ef, cf = f.lead()
    eg, cg = g.lead()
    lcm = _lcm(ef, eg)
    mf = tuple(a - b for a, b in zip(lcm, ef))
    mg = tuple(a - b for a, b in zip(lcm, eg))
    return f.mul_term(mf, 1) - g.mul_term(mg, 1)


def _update_pairs(basis_leads, pairs, t, ring):
    """Gebauer-Moeller pair update when generator index t is appended."""
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
    for L in sorted(by_lcm, key=ring.key):
        if all(not divides(L2, L) for L2 in minimal):
            minimal.append(L)
    for L in minimal:
        coprime = any(
            lcm(basis_leads[i], lm_t)
            == tuple(a + b for a, b in zip(basis_leads[i], lm_t))
            for i in by_lcm[L]
        )
        if not coprime:
            kept.add((min(by_lcm[L]), t))
    return kept


def buchberger(gens, budget=DEFAULT_BUDGET):
    """Reduced Groebner basis of the given generators, deterministically.

    Raises BudgetExceeded when more than `budget` S-pair reductions would be
    needed.  The zero ideal yields an empty basis.
    """
    gens = [g for g in gens if g]
    stats = {"s_pairs": 0, "reduction_steps": 0, "basis_size": 0}
    if not gens:
        return GroebnerBasis([], reduced=True, stats=stats)
    ring = gens[0].ring
    ordered = sorted(gens, key=lambda g: ring.key(g.lead()[0]))

    basis = []
    leads = []
    pairs = set()
    for g in ordered:
        r = normal_form(g, basis, stats).monic()
        if not r:
            continue
        basis.append(r)
        leads.append(r.lead()[0])
        pairs = _update_pairs(leads, pairs, len(basis) - 1, ring)

    while pairs:
        i, j = min(pairs, key=lambda p: (ring.key(_lcm(leads[p[0]], leads[p[1]])), p))
        pairs.discard((i, j))
        stats["s_pairs"] += 1
        if stats["s_pairs"] > budget:
            raise BudgetExceeded(f"S-pair budget {budget} exceeded")
        r = normal_form(_spoly(basis[i], basis[j]), basis, stats)
        if not r:
            continue
        r = r.monic()
        basis.append(r)
        leads.append(r.lead()[0])
        pairs = _update_pairs(leads, pairs, len(basis) - 1, ring)

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
    return GroebnerBasis(reduced, reduced=True, stats=stats)


def is_trivial(gens, budget=DEFAULT_BUDGET):
    """True when the ideal is the whole ring; None when the budget ran out."""
    for g in gens:
        if g and g.total_degree() == 0:
            return True
    try:
        gb = buchberger(gens, budget=budget)
    except BudgetExceeded:
        return None
    return gb.is_trivial()


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


def quotient_dimension(gb, nvars=None):
    """Krull dimension of the quotient by the ideal with this reduced basis.

    Computed as the largest variable subset meeting no lead-term support,
    via the complementary minimum hitting set.
    """
    if isinstance(gb, GroebnerBasis):
        if gb.is_trivial():
            raise ValueError("the unit ideal has no quotient dimension")
        leads = gb.leads()
    else:
        leads = list(gb)
    if not leads:
        if nvars is None:
            raise ValueError("need nvars for the zero ideal")
        return nvars
    nvars = len(leads[0])
    supports = []
    for e in leads:
        s = frozenset(i for i, x in enumerate(e) if x)
        if not s:
            raise ValueError("the unit ideal has no quotient dimension")
        supports.append(s)
    supports = sorted(set(supports), key=sorted)
    hit = _min_hitting_set(supports, len(frozenset().union(*supports)) + 1)
    return nvars - hit
