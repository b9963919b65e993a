"""Dominance order on monomial ideals and arrow maps between them.

An arrow map from M to N is a degree-preserving bijection of their monomial
sets that never moves a monomial up, and whose shift distances can only
shrink along multiplication, on both the source and the target side.

Everything here lives on one object, a pair's active region:
``active_classes`` lists the finitely many degree classes where the two
monomial sets differ, each cut to the stretch between its highest and its
lowest cell that lies in one ideal only.  It is also the Hilbert-function
guard, since the two Hilbert functions agree exactly when every stretch has
the same size on both sides.  ``oriented_pair`` computes it once and
returns it with the pair, dominating ideal first, as an ``OrientedPair``;
every entry point on a comparable pair takes that one value.  Maps are
stored on the active region only.  Outside it any valid map is the
identity: an order-decreasing bijection of a finite chain onto itself is
the identity, and the members a differing class shares above and below its
stretch are forced to themselves from the top and the bottom.  Distance
bounds propagating from there are zero, which the checkers and the search
both encode; the checkers reject a move outside the region.

The search is one loop over an explicit stack.  The order in which it tries
sources and targets, fixed in ``_search``, decides which map it finds first;
every map it finds is checked again, independently, before it is returned.

Every function here works on the x-smaller side, where the larger monomial of
a class is the one with the larger y-exponent.  The y-smaller side of a pair
is the x-smaller side of the pair with x and y exchanged: orient
``M.swap()``, ``N.swap()`` under ``g.swap()`` and pass that pair on.
"""
from __future__ import annotations

from dataclasses import dataclass

from .monomial import (Grading, MonomialIdeal2, colon_box, format_monomial,
                       minimal_box)

# The version of every JSON payload the package writes, and of the edge-cache
# key; this is the lowest module that writes one.
SCHEMA_VERSION = "1"


def active_classes(M, N, g):
    """The stretches of the degree classes where the two staircases disagree.

    Yields (weight, members of M sorted descending, members of N likewise),
    ascending weight, with descending taken in the x-smaller sense (largest
    y-exponent first).  A cell x^a*y^b is in one ideal only when row b has
    two different thresholds and a lies between them; one pass over those
    rows records, per weight, the lowest and the highest such row.  Each
    class is then stepped through from its highest disagreeing cell down to
    its lowest, and both ideals' membership is read off their rows.  The
    members cut off lie in both lists, and every arrow map fixes them: the
    top common member can only be hit from itself, the bottom one can only
    go to itself.  Raises ValueError when the two ideals have different
    Hilbert functions, i.e. when some stretch differs in size.
    """
    rows_m, rows_n = M.rows, N.rows
    be_m, be_n = len(rows_m), len(rows_n)
    alpha, beta = g.alpha, g.beta
    lowest = {}
    highest = {}
    for b in range(max(be_m, be_n)):
        lo = rows_m[b] if b < be_m else 0
        hi = rows_n[b] if b < be_n else 0
        if lo != hi:
            if lo > hi:
                lo, hi = hi, lo
            row = beta * b
            for w in range(row + alpha * lo, row + alpha * hi, alpha):
                if w not in highest:
                    lowest[w] = b
                highest[w] = b
    out = []
    for w in sorted(highest):
        b = highest[w]
        a = (w - beta * b) // alpha
        low = lowest[w]
        in_m = []
        in_n = []
        while b >= low:
            if b >= be_m or a >= rows_m[b]:
                in_m.append((a, b))
            if b >= be_n or a >= rows_n[b]:
                in_n.append((a, b))
            a += beta
            b -= alpha
        if len(in_m) != len(in_n):
            raise ValueError(
                f"{M} and {N} have different Hilbert functions for {g}")
        out.append((w, tuple(in_m), tuple(in_n)))
    return out


def _dominates(classes):
    """Each class of M, largest first, lies above N's member for member."""
    return all(a[1] >= b[1] for _, mons_m, mons_n in classes
               for a, b in zip(mons_m, mons_n))


@dataclass(frozen=True)
class OrientedPair:
    """A comparable pair, dominating ideal first; built by oriented_pair."""

    big: MonomialIdeal2
    small: MonomialIdeal2
    grading: Grading
    classes: tuple  # active_classes(big, small, grading)


def oriented_pair(M, N, g):
    """The pair with the dominating ideal first, or None if incomparable.

    Both directions are read off one list of the pair's active classes,
    which the result keeps; ValueError if the Hilbert functions differ.
    """
    classes = tuple(active_classes(M, N, g))
    if not _dominates(classes):
        M, N = N, M
        classes = tuple((w, in_n, in_m) for w, in_m, in_n in classes)
        if not _dominates(classes):
            return None
    return OrientedPair(M, N, g, classes)


@dataclass(frozen=True)
class ArrowMap:
    """A witness map, stored on the active region (identity elsewhere)."""

    source: MonomialIdeal2
    target: MonomialIdeal2
    grading: Grading
    # ((m, f(m)), ...) over the stretches of the active classes, sorted; the
    # members cut off around a stretch are fixed by every map, so two maps of
    # one pair differ exactly where their moved pairs do
    pairs: tuple

    def moved_pairs(self):
        return tuple((m, v) for m, v in self.pairs if m != v)

    def to_json(self):
        return {
            "schema": f"tgraph.arrow-map/{SCHEMA_VERSION}",
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


def _divisor_bound(m, rows, be, dist):
    """Tightest shift bound inherited from the in-ideal divisors of m.

    ``rows`` are the staircase rows of the ideal the divisors must lie in,
    and ``be`` their count: x^a*y^b lies in it when b >= be or a reaches
    rows[b].
    """
    a, b = m
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
    without moving a monomial up, or moves a monomial outside the region,
    where every arrow map is the identity.
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
    if any(v != m and m not in dist_m for m, v in assignment.items()):
        return None
    return dist_m, dist_n


def _bounded(ideal, dist):
    """Whether no distance exceeds the bound inherited from its divisors."""
    rows = ideal.rows
    be = len(rows)
    for m, d in dist.items():
        bound = _divisor_bound(m, rows, be, dist)
        if bound is not None and d > bound:
            return False
    return True


def _is_arrow_map(M, N, g, classes, assignment):
    dist = _distances(classes, g, assignment)
    return dist is not None and _bounded(M, dist[0]) and _bounded(N, dist[1])


def is_arrow_map(M, N, g, assignment):
    """Literal check of the three conditions on the active region.

    Entries outside the region must map a monomial to itself."""
    return _is_arrow_map(M, N, g, active_classes(M, N, g), assignment)


def is_system_of_arrows(M, N, g, assignment):
    """Weaker check: the bijective-decreasing and target-side conditions only.

    Entries outside the region must map a monomial to itself, as above."""
    dist = _distances(active_classes(M, N, g), g, assignment)
    return dist is not None and _bounded(N, dist[1])


def _search(pair, limit):
    """Backtracking enumeration of arrow maps, as one loop over a stack.

    The pair's active region is flattened into slots (m, the small ideal's
    members of m's class): class by class in increasing weight, each class
    of the big ideal largest first.  Each slot tries its candidates largest
    first.  Those two orders fix the order in which the maps come out.
    ``stack[i]`` is the index of the next candidate slot i tries,
    ``chosen[i]`` its current target and ``caps[i]`` the shift bound its
    source inherits; a target is taken exactly when it is a key of
    ``dist_n``.  The divisors of a monomial lie in lighter classes, so their
    shifts are already fixed when its slot is reached; the checks at a slot
    are exactly the three defining conditions.
    """
    if limit == 0:
        return
    slots = [(m, mons_n) for _, mons_m, mons_n in pair.classes
             for m in mons_m]
    if not slots:
        yield {}
        return
    sources = [m for m, _ in slots]
    last = len(slots) - 1
    alpha = pair.grading.alpha
    rows_m, rows_n = pair.big.rows, pair.small.rows
    be_m, be_n = len(rows_m), len(rows_n)
    dist_m = {}
    dist_n = {}
    chosen = []
    stack = [0]
    caps = [_divisor_bound(sources[0], rows_m, be_m, dist_m)]
    found = 0
    while stack:
        i = len(stack) - 1
        m, cands = slots[i]
        if len(chosen) > i:
            # back at slot i: release its current target
            del dist_n[chosen.pop()]
            del dist_m[m]
        cap_m = caps[i]
        for k in range(stack[i], len(cands)):
            v = cands[k]
            if v in dist_n or v[1] > m[1]:
                continue
            # one class, v[1] <= m[1]: each shift lowers y by alpha
            d = (m[1] - v[1]) // alpha
            if cap_m is not None and d > cap_m:
                continue
            cap_n = _divisor_bound(v, rows_n, be_n, dist_n)
            if cap_n is not None and d > cap_n:
                continue
            break
        else:
            stack.pop()
            caps.pop()
            continue
        stack[i] = k + 1
        chosen.append(v)
        dist_m[m] = dist_n[v] = d
        if i < last:
            stack.append(0)
            caps.append(_divisor_bound(sources[i + 1], rows_m, be_m, dist_m))
            continue
        found += 1
        yield dict(zip(sources, chosen))
        if found == limit:
            return


def enumerate_arrow_maps(pair, limit=None):
    """Up to `limit` arrow maps from big onto small (None for all), validated
    and sorted by their targets' y-exponents.

    The search's first `limit` maps are kept.  A pair's maps list the same
    sources, and a target's class and y-exponent fix it, so that order is
    canonical.  Raises RuntimeError when the search yields a map that fails
    the literal check, which would be a bug in the search.
    """
    M, N, g = pair.big, pair.small, pair.grading
    maps = []
    for assignment in _search(pair, limit):
        if not _is_arrow_map(M, N, g, pair.classes, assignment):
            raise RuntimeError(
                f"the search produced a non-map from {M} to {N} for {g}")
        maps.append(ArrowMap(M, N, g, _completed(pair.classes, assignment)))
    if len(maps) > 1:  # arrow_map_exists asks for one map per call
        maps.sort(key=lambda f: tuple(v[1] for _, v in f.pairs))
    return maps


def arrow_map_exists(pair):
    """Some arrow map from the pair's big ideal onto its small one, or None."""
    maps = enumerate_arrow_maps(pair, 1)
    return maps[0] if maps else None


def dual_condition(pair, box=None):
    """Arrow-map test between the box quotients; returns (map or None, box).

    The default box uses the least pure powers lying in both ideals; a caller
    may pass a larger one to probe dependence on that choice.

    The quotients are the pair reflected in the box.  With W the weight of
    the box's corner x^(r1-1)*y^(r2-1), the quotient q of M has
    HF_q(w) = HF_box(W - w) - HF_M(W - w), so the two quotients share a
    Hilbert function.  The reflection turns each class's members in the box
    into the standard monomials of the reflected class, read bottom up, so
    the quotient of the big ideal dominates the other; RuntimeError if it
    does not.
    """
    M, N, g = pair.big, pair.small, pair.grading
    if box is None:
        box = minimal_box(M, N)
    qm = colon_box(box, M)
    quotients = oriented_pair(qm, colon_box(box, N), g)
    if quotients is None or quotients.big is not qm:
        raise RuntimeError(f"{M} over {N} lost its order in the box {box}")
    return arrow_map_exists(quotients), box
