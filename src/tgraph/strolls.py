"""Direct enumeration route to the cell bases and edge equations.

The recursive cell generators, their reduced tails, monomial normal forms,
and the edge equations all have closed combinatorial descriptions: signed
sums over chains of arrow moves.  This module enumerates those chains
outright, independently of the division route in `cells`, so the two can be
compared term by term.

Sign conventions, fixed once and validated against the division route:
a chain of arrows (a path) counts positively; a sequence of d paths (a walk)
carries (-1)^(d+1); a sequence of d walks (a stroll) carries an extra
(-1)^d.  Within a stroll each walk ends on a standard monomial of its own
generator, which is exactly how one division step lands.
"""
from __future__ import annotations

from .arrows import oriented_pair
from .cells import EdgeIdeal, significant_arrows
from .poly import ArrowVar, arrow_ring


_STEP_CAP = 2_000_000  # chain steps one enumeration may take


class StrollOverflow(RuntimeError):
    """Raised when chain enumeration takes more than _STEP_CAP steps."""


class _Budget:
    left = _STEP_CAP  # each instance counts down its own copy

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise StrollOverflow("chain enumeration cap exceeded")


def enumerate_paths(M, g):
    """Arrow chains starting at each generator index, x-smaller side.

    Returns a list over generator indices; entry i is a list of
    (arrow tuple, length) with each arrow a (generator index, step) label.
    """
    budget = _Budget()
    arrows = significant_arrows(M, g).positive
    by_index = {}
    for (i, l) in arrows:
        by_index.setdefault(i, []).append(l)
    gens = M.gens
    paths = [[]]
    for i in range(1, len(gens)):
        here = list(paths[i - 1])
        wi = (gens[i - 1][0], gens[i][1])
        for l in by_index.get(i, ()):
            budget.spend()
            here.append((((i, l),), l))
            hop = g.shift(wi, l)
            j = M.j_index(hop)
            for tail, tail_len in paths[j]:
                budget.spend()
                here.append((((i, l),) + tail, l + tail_len))
        for seq, total in here:
            assert g.shift(gens[i], total) is not None
        paths.append(here)
    return paths


def _path_poly(ring, var_side, seq):
    exps = [0] * ring.nvars
    for (i, l) in seq:
        exps[ring.index[ArrowVar(var_side, i, l)]] += 1
    return tuple(exps)


def walk_polynomials(M, g, ring):
    """Signed sums over walks from each generator, grouped by total length.

    Entry i maps a length to the polynomial summing (-1)^(d+1) times the
    product of the first ideal's arrow variables (side 0) over all walks of
    d paths with that length.
    """
    budget = _Budget()
    paths = enumerate_paths(M, g)
    gens = M.gens
    out = []
    for i in range(len(gens)):
        acc = {}

        def record(term, npaths, total):
            sign = 1 if npaths % 2 == 1 else -1
            slot = acc.setdefault(total, {})
            c = slot.get(term, 0) + sign
            if c:
                slot[term] = c
            else:
                slot.pop(term, None)

        def extend(term, npaths, total):
            budget.spend()
            record(term, npaths, total)
            pos = g.shift(gens[i], total)
            if pos is not None and M.contains(pos):
                for seq2, len2 in paths[M.j_index(pos)]:
                    t2 = _path_poly(ring, 0, seq2)
                    merged = tuple(a + b for a, b in zip(term, t2))
                    extend(merged, npaths + 1, total + len2)

        for seq, total in paths[i]:
            extend(_path_poly(ring, 0, seq), 1, total)
        out.append({l: ring.poly(t) for l, t in acc.items() if t})
    return out


def stroll_sums(M, g, ring):
    """Memoized signed stroll sums: monomial of M -> {standard monomial: Poly}.

    Returns a function; calling it on any monomial of M gives its normal-form
    coefficients computed purely by chain enumeration.
    """
    walks = walk_polynomials(M, g, ring)
    memo = {}

    def sums(m):
        if m in memo:
            return memo[m]
        if not M.contains(m):
            raise ValueError("stroll sums start inside the ideal")
        memo[m] = {}  # cut cycles defensively; lengths are positive so none occur
        acc = {}
        j = M.j_index(m)
        for length, wpoly in walks[j].items():
            if M.contains(g.shift(M.gens[j], length)):
                continue  # walks inside strolls end on standard monomials
            pos = g.shift(m, length)
            assert pos is not None
            contributions = {}
            if M.contains(pos):
                contributions = sums(pos)
            else:
                contributions = {pos: ring.one()}
            for s, poly in contributions.items():
                prod = wpoly * poly
                slot = acc.get(s)
                acc[s] = prod.scale(-1) if slot is None else slot - prod
        memo[m] = {s: p for s, p in acc.items() if p}
        return memo[m]

    return sums


def edge_ideal_hikes(M, N, g):
    """Edge equations assembled from chains: the validation route.

    Each equation attached to (n, s) sums, over ways of first moving n up
    along the second ideal's arrows and then strolling down through M to s,
    the product of the move variables and the signed stroll sum.  M must
    lie strictly above N; ValueError otherwise, or when the two Hilbert
    functions differ.
    """
    pair = oriented_pair(M, N, g)
    if M == N or pair is None or pair.big is not M:
        raise ValueError("first ideal must dominate the second strictly")
    Nsw = N.swap()
    gsw = g.swap()
    ring = arrow_ring(significant_arrows(M, g).positive,
                      significant_arrows(Nsw, gsw).positive)
    n_paths = enumerate_paths(Nsw, gsw)
    sums = stroll_sums(M, g, ring)

    std_by_weight = {}
    for s in M.standard_monomials():
        std_by_weight.setdefault(g.weight(s), []).append(s)

    generators = []
    for i, nsw in enumerate(Nsw.gens):
        n = (nsw[1], nsw[0])
        w = g.weight(n)
        acc = {}

        def add(target, poly):
            if target in acc:
                acc[target] = acc[target] + poly
            else:
                acc[target] = poly

        moves = [((0,) * ring.nvars, 0)]
        for seq, length in n_paths[i]:
            moves.append((_path_poly(ring, 1, seq), length))
        for term, length in moves:
            m = g.shift(n, -length)
            assert m is not None
            factor = ring.poly({term: 1})
            if M.contains(m):
                for s, poly in sums(m).items():
                    add(s, factor * poly)
            else:
                add(m, factor)
        targets = sorted(std_by_weight.get(w, ()), key=lambda s: s[1],
                         reverse=True)
        for s in targets:
            generators.append((n, s, acc.get(s, ring.zero())))
    return EdgeIdeal(M, N, g, ring, tuple(generators))
