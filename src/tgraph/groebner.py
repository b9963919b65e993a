"""Buchberger engine over exact coefficients, with a hard work budget.

Verdicts are tri-state at the call sites: a run that exceeds its budget raises
BudgetExceeded, which callers convert to an explicit unknown rather than a
guess.  Output is deterministic: fixed pair selection, fixed reducer order,
fully interreduced monic result.

The characteristic is an argument of ``buchberger`` alone: polynomials are
exact, and a run mod p reduces their coefficients as it packs them.

The monomial order is grevlex over the generators' ring, in its variable
order.  Whether the basis is the unit ideal, and the Krull dimension, do not
depend on that order; the S-pairs and reduction steps can differ by orders
of magnitude.  ``edges.decide_edge`` picks the order for the edge equations
by handing over generators on a reordered ring.

In characteristic 0 a run is fraction-free: the inputs are cleared of
denominators, every intermediate basis element is kept primitive over the
integers (content 1, positive lead), and reduction is integer
pseudo-division.  Each element is a nonzero scalar multiple of its monic
version, so the run forms the same S-pairs and makes the same reduction steps
as it would over monic elements; each element of the reduced basis is divided
by its lead coefficient once, at the end.  In characteristic p, primitive
means monic.

Inside the solver a monomial is one int, packed by ``poly.Packing`` with
``FIELD_BITS`` bits per variable: grevlex order is integer order, a product
is an integer sum, and divisibility, lcm and coprimality are a few integer
operations.  ``buchberger`` packs its generators once, and its one kernel,
``_reduce``, divides packed terms.  The reduced basis is unpacked once,
monic, with each element's lead, its largest packed int; nothing outside the
solver computes a lead.  A packed field holds degrees up to
``2**FIELD_BITS - 1``.  No term of a run has a larger degree than an input
or a pair's lcm, so those are checked when they are packed, and one past the
cap raises BudgetExceeded: an unknown verdict, never a wrong basis.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .poly import Packing, Poly

DEFAULT_BUDGET = 200_000
FIELD_BITS = 16  # bits per variable in a packed monomial


class BudgetExceeded(RuntimeError):
    """Raised when a run needs more S-pair reductions than allowed, or a
    degree past the packed field cap; ``s_pairs`` counts those it made."""

    s_pairs = 0


@dataclass
class GroebnerBasis:
    """A reduced basis: monic generators in ascending grevlex order of their
    leads, and ``leads``, the exponent vector of each one's lead term, as the
    solver found it."""

    generators: list
    leads: list
    stats: dict = field(default_factory=dict)

    def is_trivial(self):
        """Whether the basis is {1}, the only reduced basis with a constant."""
        return len(self.leads) == 1 and not any(self.leads[0])


def _fits(m, packing):
    """The packed monomial m; a degree past the field cap ends the run."""
    degree = packing.degree(m)
    if degree > packing.cap:
        raise BudgetExceeded(
            f"degree {degree} exceeds the packed field cap {packing.cap}")
    return m


def _pack(p, packing, char):
    """The packed terms of p, mod char if nonzero; zero residues drop."""
    out = {}
    for e, c in p.terms.items():
        if char:
            if c.denominator % char == 0:
                raise ZeroDivisionError("denominator vanishes mod p")
            c = c.numerator * pow(c.denominator, -1, char) % char
        if c:
            out[_fits(packing.pack(e), packing)] = c
    return out


def _unpack(terms, ring, packing):
    unpack = packing.unpack
    return Poly(ring, {unpack(m): c for m, c in terms.items()})


def _monic(terms, lead):
    """Packed terms divided by the coefficient of ``lead``, exactly; the
    terms themselves when it is 1, as it always is mod p."""
    a = terms[lead]
    if a == 1:
        return terms
    return {m: Fraction(c, a) for m, c in terms.items()}


def _primitive(terms, char):
    """The scalar multiple of nonzero packed terms that basis elements are
    kept as.

    In characteristic 0 it has integer coefficients with gcd 1 and a positive
    lead; in characteristic p it is monic.
    """
    lead = terms[max(terms)]
    if char:
        if lead == 1:
            return terms
        inv = pow(lead, -1, char)
        return {m: c * inv % char for m, c in terms.items()}
    coeffs = terms.values()
    den = lcm(*(c.denominator for c in coeffs))
    content = gcd(*(c.numerator for c in coeffs))
    if lead < 0:
        content = -content
    if den == 1 and content == 1:
        return terms
    return {m: (c * den).numerator // content for m, c in terms.items()}


def _reducer(terms, guards):
    """(lead, lead | guards, lead coefficient, the other terms) of nonzero
    packed terms: the form the kernel divides by."""
    lead = max(terms)
    return (lead, lead | guards, terms[lead],
            [(m, c) for m, c in terms.items() if m != lead])


def _reduce(work, reducers, char, guards):
    """The kernel: full remainder of packed terms on division by reducers.

    Consumes ``work``, a dict from packed monomials to coefficients, and
    returns the remainder dict and the number of reduction steps.  The first
    reducer, in list order, whose lead divides the largest pending term
    reduces it.

    The remainder is exact when every reducer is monic, and a nonzero scalar
    multiple of it otherwise.  A term c*x^e met by a reducer whose lead
    coefficient a is not 1 is reduced by pseudo-division: with q = gcd(a, c),
    every pending and remainder coefficient is multiplied by a/q, then
    (c/q)*x^shift times the reducer is subtracted.  That branch needs integer
    coefficients, which is what ``buchberger`` works with in characteristic
    0; mod p every reducer is monic, so only the subtraction reduces mod p.

    The largest pending term is reduced first.  Pending terms sit in a heap
    of negated packed monomials, pushed once, when the term enters the work
    dict.  A term that cancels keeps its entry and a zero coefficient, and is
    skipped when popped; if it is created again, that entry still stands,
    because a reduction only creates terms smaller than the one popped.  So
    the heap yields terms in the grevlex order that taking the maximum of
    the work dict at every step would: the remainder and the count of
    reduction steps are those of that loop.
    """
    heap = [-m for m in work]
    heapify(heap)
    rem = {}
    steps = 0
    while heap:
        e = -heappop(heap)
        c = work.pop(e)
        if not c:
            continue
        for lead, guarded, a, tail in reducers:
            if lead <= e and (guarded - e) & guards == guards:
                steps += 1
                if a != 1:
                    q = gcd(a, c)
                    scale = a // q
                    if scale != 1:
                        for m, c3 in work.items():
                            work[m] = c3 * scale
                        for m, c3 in rem.items():
                            rem[m] = c3 * scale
                    c //= q
                shift = e - lead
                for m, c2 in tail:
                    m += shift
                    old = work.get(m)
                    if old is None:
                        old = 0
                        heappush(heap, -m)
                    work[m] = (old - c * c2) % char if char else old - c * c2
                break
        else:
            rem[e] = c
    return rem, steps


def _spoly(f, g, lcm_fg, char):
    """S-polynomial of two reducers whose leads have packed lcm ``lcm_fg``.

    The cofactors are divided by the gcd of the two lead coefficients, so
    they are 1 mod p, where every lead is 1.  The leads cancel, so only the
    tails are multiplied out; a term that cancels stays with coefficient 0,
    which the kernel skips.
    """
    lf, _, af, tf = f
    lg, _, ag, tg = g
    q = gcd(af, ag)
    cf, cg = ag // q, af // q
    shift = lcm_fg - lf
    out = {m + shift: c * cf for m, c in tf}
    shift = lcm_fg - lg
    for m, c in tg:
        m += shift
        c = out.get(m, 0) - c * cg
        out[m] = c % char if char else c
    return out


def _update_pairs(basis, pairs, queue, packing):
    """Gebauer-Moeller pair update when the last basis element is appended.

    ``pairs`` maps each live pair (i, j) to the packed lcm of its leads;
    returns the surviving pairs.  Each new pair (i, t) is also pushed onto
    the selection heap ``queue`` as (packed lcm, i, t).
    """
    t = len(basis) - 1
    lead_t = basis[t][0]
    guards = packing.guards
    lcms = [packing.lcm(r[0], lead_t) for r in basis[:t]]
    if lcms:
        _fits(max(lcms), packing)  # no S-polynomial term has a larger degree

    # Drop (i, j) when lead_t divides its lcm and differs from the lcms of
    # (i, t) and (j, t).
    lead_g = lead_t | guards
    kept = {ij: k for ij, k in pairs.items()
            if (lead_g - k) & guards != guards
            or k == lcms[ij[0]] or k == lcms[ij[1]]}

    by_lcm = {}
    for i, k in enumerate(lcms):
        by_lcm.setdefault(k, []).append(i)
    minimal = []
    for k in sorted(by_lcm):
        if all(((m | guards) - k) & guards != guards for m in minimal):
            minimal.append(k)
    # Skip (i, t) when some i with that lcm has a lead coprime to lead_t:
    # their lcm is their product.
    product = lead_t - packing.zero
    for k in minimal:
        if all(k != basis[i][0] + product for i in by_lcm[k]):
            i = min(by_lcm[k])
            kept[(i, t)] = k
            heappush(queue, (k, i, t))
    return kept


def buchberger(gens, budget=DEFAULT_BUDGET, char=0):
    """Reduced Groebner basis of the given generators, deterministically.

    ``char`` is 0 or a prime below 2**64, else ValueError; mod p, a
    generator that vanishes is dropped.

    Raises BudgetExceeded, carrying the S-pairs reduced so far, when more
    than `budget` S-pair reductions would be needed, or when an input or the
    lcm of two leads passes the degree cap of the packed form.  The zero
    ideal yields an empty basis.  The next S-pair is the one whose lcm is
    grevlex-least, ties going to the smaller index pair; a heap holds every
    pair ever formed and skips those the updates dropped.

    The generators are packed once; the loop runs on packed terms and only
    the reduced basis is unpacked, monic, with its leads.  Every term's
    degree is at most that of an input or of a pair's lcm, so checking those
    keeps every term in range.
    """
    _check_char(char)
    gens = [g for g in gens if g]
    stats = {"s_pairs": 0, "reduction_steps": 0, "basis_size": 0}
    if not gens:
        return GroebnerBasis([], [], stats=stats)
    ring = gens[0].ring
    packing = Packing(ring.nvars, FIELD_BITS)
    guards = packing.guards
    packed = (_pack(g, packing, char) for g in gens)
    ordered = sorted((_primitive(t, char) for t in packed if t), key=max)

    basis = []
    pairs = {}
    queue = []

    def extend(work):
        nonlocal pairs
        rem, steps = _reduce(work, basis, char, guards)
        stats["reduction_steps"] += steps
        if rem:
            basis.append(_reducer(_primitive(rem, char), guards))
            pairs = _update_pairs(basis, pairs, queue, packing)

    try:
        for terms in ordered:
            extend(terms)
        while queue:
            lcm_ij, i, j = heappop(queue)
            if pairs.pop((i, j), None) is None:
                continue
            if stats["s_pairs"] >= budget:
                raise BudgetExceeded(f"S-pair budget {budget} exceeded")
            stats["s_pairs"] += 1
            extend(_spoly(basis[i], basis[j], lcm_ij, char))
    except BudgetExceeded as exc:
        exc.s_pairs = stats["s_pairs"]
        raise

    # Minimalize: drop generators whose lead is a multiple of another lead.
    # The leads are distinct, so the sort never compares past them, and the
    # reduced basis keeps the leads and their ascending order.
    minimal = []
    for r in sorted(basis):
        if all((m[1] - r[0]) & guards != guards for m in minimal):
            minimal.append(r)
    generators = []
    for r in minimal:
        lead, _, a, tail = r
        others = [m for m in minimal if m is not r]
        rem, steps = _reduce({lead: a, **dict(tail)}, others, char, guards)
        stats["reduction_steps"] += steps
        generators.append(_unpack(_monic(rem, lead), ring, packing))
    stats["basis_size"] = len(generators)
    return GroebnerBasis(generators, [packing.unpack(r[0]) for r in minimal],
                         stats=stats)


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Miller-Rabin to the prime bases up to 37, exact below 3.18e23."""
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2 ** k, n) != n - 1 for k in range(s)):
            return False
    return True


def _check_char(char):
    """Raise ValueError unless char is 0 or a prime below 2**64.

    The bound keeps ``_is_prime`` well inside the range where it is exact.
    """
    if char >= 2 ** 64:
        raise ValueError("characteristic must be below 2**64")
    if char and not _is_prime(char):
        raise ValueError("characteristic must be 0 or a prime")


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
    for e in gb.leads:
        s = frozenset(i for i, x in enumerate(e) if x)
        if not s:
            raise ValueError("the unit ideal has no quotient dimension")
        supports.add(s)
    supports = sorted(supports, key=sorted)
    hit = _min_hitting_set(supports, len(frozenset().union(*supports)) + 1)
    return nvars - hit
