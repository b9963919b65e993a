"""Dominance order on monomial ideals and arrow maps between them.

An arrow map from M to N is a degree-preserving bijection of their monomial
sets that never moves a monomial up, and whose shift distances can only
shrink along multiplication, on both the source and the target side.

Everything here lives on one object, a pair's active region:
``active_classes`` lists the finitely many degree classes where the two
monomial sets differ.  It is also the Hilbert-function guard, since the two
Hilbert functions agree exactly when every active class has the same size on
both sides; every public entry computes it once and passes it down.  Maps are
stored on the active region only.  Outside it any valid map is the identity,
because an order-decreasing bijection of a finite chain onto itself is the
identity; distance bounds propagating from there are zero, which the checker
and the search both encode.

Every function here works on the x-smaller side, where the larger monomial of
a class is the one with the larger y-exponent.  The y-smaller side of a pair
is the x-smaller side of the pair with x and y exchanged: call the same
function on ``M.swap()``, ``N.swap()`` and ``g.swap()``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .monomial import (Grading, MonomialIdeal2, colon_box, format_monomial,
                       minimal_box)


def active_classes(M, N, g):
    """Degree classes where the two monomial sets differ, ascending weight.

    Yields (weight, members of M sorted descending, members of N likewise),
    with descending taken in the x-smaller sense (largest y-exponent first).
    The classes differ exactly where the standard monomials differ, which
    happens only on the rows where the two thresholds differ: row b
    contributes the weights of x^a*y^b for a between the two thresholds.
    Membership in a visited class is read off the rows too.  Raises
    ValueError when the two ideals have different Hilbert functions, i.e.
    when some class differs in size.
    """
    rows_m, rows_n = M.rows, N.rows
    be_m, be_n = len(rows_m), len(rows_n)
    weights = set()
    for b in range(max(be_m, be_n)):
        tm = rows_m[b] if b < be_m else 0
        tn = rows_n[b] if b < be_n else 0
        if tm != tn:
            w = g.beta * b
            weights.update(range(w + g.alpha * min(tm, tn),
                                 w + g.alpha * max(tm, tn), g.alpha))
    out = []
    for w in sorted(weights):
        chain = g.monomials_of_weight(w)[::-1]
        in_m = tuple(m for m in chain if m[1] >= be_m or m[0] >= rows_m[m[1]])
        in_n = tuple(m for m in chain if m[1] >= be_n or m[0] >= rows_n[m[1]])
        if len(in_m) != len(in_n):
            raise ValueError(
                f"{M} and {N} have different Hilbert functions for {g}")
        out.append((w, in_m, in_n))
    return out


def _dominates(classes):
    """Each class of M, largest first, lies above N's member for member."""
    return all(a[1] >= b[1] for _, mons_m, mons_n in classes
               for a, b in zip(mons_m, mons_n))


def dominates(M, N, g):
    """Whether M is greater than or equal to N in the dominance order."""
    return _dominates(active_classes(M, N, g))


def oriented_pair(M, N, g):
    """Order the pair with the dominating ideal first, or None if incomparable.

    Both directions are read off one list of the pair's active classes.
    """
    classes = active_classes(M, N, g)
    if _dominates(classes):
        return M, N
    if _dominates([(w, in_n, in_m) for w, in_m, in_n in classes]):
        return N, M
    return None


@dataclass(frozen=True)
class ArrowMap:
    """A witness map, stored on the active region (identity elsewhere)."""

    source: MonomialIdeal2
    target: MonomialIdeal2
    grading: Grading
    pairs: tuple  # ((m, f(m)), ...) covering the active classes, sorted

    def moved_pairs(self):
        return tuple((m, v) for m, v in self.pairs if m != v)

    def to_json(self):
        return {
            "schema": "tgraph.arrow-map/1",
            "source": str(self.source),
            "target": str(self.target),
            "grading": {"alpha": self.grading.alpha, "beta": self.grading.beta},
            # every map lives on the x-smaller side; the field keeps the schema
            "side": "x_small",
            "pairs": [[format_monomial(m), format_monomial(v)]
                      for m, v in self.moved_pairs()],
        }


def _completed(classes, assignment):
    """The assignment on every monomial of the active region, sorted."""
    return tuple(sorted((m, assignment.get(m, m))
                        for _, mons_m, _ in classes for m in mons_m))


def _divisor_bound(m, rows, dist):
    """Tightest shift bound inherited from the in-ideal divisors of m.

    ``rows`` are the staircase rows of the ideal the divisors must lie in:
    x^a*y^b lies in it when b is past the last row or a reaches rows[b].
    """
    a, b = m
    be = len(rows)
    bound = None
    if a and (b >= be or a > rows[b]):
        bound = dist.get((a - 1, b), 0)
    if b and (b > be or a >= rows[b - 1]):
        d = dist.get((a, b - 1), 0)
        if bound is None or d < bound:
            bound = d
    return bound


def _distances(classes, g, assignment):
    """Shift distances of a decreasing bijection on the active region.

    Returns (by source monomial, by target monomial), or None when the
    assignment does not map each class of M one-to-one onto the class of N
    without moving a monomial up.
    """
    dist_m = {}
    dist_n = {}
    for _, mons_m, mons_n in classes:
        for m in mons_m:
            v = assignment.get(m, m)
            if v not in mons_n or v in dist_n:
                return None
            if v[1] > m[1]:
                return None
            dist_m[m] = dist_n[v] = g.distance(m, v)
    return dist_m, dist_n


def _bounded(ideal, dist):
    """Whether no distance exceeds the bound inherited from its divisors."""
    for m, d in dist.items():
        bound = _divisor_bound(m, ideal.rows, dist)
        if bound is not None and d > bound:
            return False
    return True


def _is_arrow_map(M, N, g, classes, assignment):
    dist = _distances(classes, g, assignment)
    return dist is not None and _bounded(M, dist[0]) and _bounded(N, dist[1])


def is_arrow_map(M, N, g, assignment):
    """Literal check of the three conditions on the active region."""
    return _is_arrow_map(M, N, g, active_classes(M, N, g), assignment)


def is_system_of_arrows(M, N, g, assignment):
    """Weaker check: the bijective-decreasing and target-side conditions only."""
    dist = _distances(active_classes(M, N, g), g, assignment)
    return dist is not None and _bounded(N, dist[1])


def _search(M, N, g, classes, limit):
    """Backtracking enumeration of arrow maps.

    Classes are processed by increasing weight; the shift bounds flow from
    divisors already assigned, so the per-class constraints are exactly the
    three defining conditions.
    """
    dist_m = {}
    dist_n = {}
    chosen = []
    found = 0
    rows_m, rows_n = M.rows, N.rows

    def per_class(ci):
        nonlocal found
        if limit is not None and found >= limit:
            return
        if ci == len(classes):
            found += 1
            yield dict(chosen)
            return
        _, mons_m, mons_n = classes[ci]

        def assign(si, used):
            if limit is not None and found >= limit:
                return
            if si == len(mons_m):
                yield from per_class(ci + 1)
                return
            m = mons_m[si]
            cap_m = _divisor_bound(m, rows_m, dist_m)
            for v in mons_n:
                if v in used:
                    continue
                if v[1] > m[1]:
                    continue
                # one class, v[1] <= m[1]: each shift lowers y by alpha
                d = (m[1] - v[1]) // g.alpha
                if cap_m is not None and d > cap_m:
                    continue
                cap_n = _divisor_bound(v, rows_n, dist_n)
                if cap_n is not None and d > cap_n:
                    continue
                chosen.append((m, v))
                dist_m[m] = d
                dist_n[v] = d
                used.add(v)
                yield from assign(si + 1, used)
                used.discard(v)
                del dist_m[m]
                del dist_n[v]
                chosen.pop()

        yield from assign(0, set())

    yield from per_class(0)


def find_arrow_maps(M, N, g, limit=1):
    """Up to `limit` arrow maps from M onto N (None for all), validated.

    Raises RuntimeError when the search yields a map that fails the literal
    check, which would be a bug in the search.
    """
    classes = active_classes(M, N, g)
    if not _dominates(classes):
        return []
    maps = []
    for assignment in _search(M, N, g, classes, limit):
        if not _is_arrow_map(M, N, g, classes, assignment):
            raise RuntimeError(
                f"the search produced a non-map from {M} to {N} for {g}")
        # A search result assigns every monomial of the active region.
        maps.append(ArrowMap(M, N, g, tuple(sorted(assignment.items()))))
    return maps


def arrow_map_exists(M, N, g):
    """Some arrow map M -> N, or None; requires equal Hilbert functions."""
    maps = find_arrow_maps(M, N, g, limit=1)
    return maps[0] if maps else None


def enumerate_arrow_maps(M, N, g, limit=None):
    """All arrow maps (up to `limit`), in a canonical deterministic order."""
    maps = find_arrow_maps(M, N, g, limit=limit)

    def order_key(f):
        return tuple((g.weight(m), m[1], v[1]) for m, v in f.pairs)

    return sorted(maps, key=order_key)


def dual_condition(M, N, g, box=None):
    """Arrow-map test between the box quotients; returns (map or None, box).

    The default box uses the least pure powers lying in both ideals; a caller
    may pass a larger one to probe dependence on that choice.

    The quotients are the pair reflected in the box.  With W the weight of
    the box's corner x^(r1-1)*y^(r2-1), the quotient q of M has
    HF_q(w) = HF_box(W - w) - HF_M(W - w), so the two quotients share a
    Hilbert function exactly when M and N do, and the arrow-map test on
    them raises ValueError when the pair's Hilbert functions differ.
    """
    if box is None:
        box = minimal_box(M, N)
    qm = colon_box(box, M)
    qn = colon_box(box, N)
    witness = arrow_map_exists(qm, qn, g)
    return witness, box
