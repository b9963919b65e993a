"""Dominance order on monomial ideals and arrow maps between them.

An arrow map from M to N is a degree-preserving bijection of their monomial
sets that never moves a monomial up, and whose shift distances can only
shrink along multiplication, on both the source and the target side.  Maps
are stored on the active region only: the finitely many degree classes where
the two monomial sets differ.  Outside it any valid map is the identity,
because an order-decreasing bijection of a finite chain onto itself is the
identity; distance bounds propagating from there are zero, which the checker
and the search both encode.
"""
from __future__ import annotations

from dataclasses import dataclass

from .monomial import (Grading, MonomialIdeal2, TermSide, colon_box,
                       format_monomial, hilbert_function, minimal_box,
                       parse_monomial, side_key)


def _require_equal_hf(M, N, g):
    if hilbert_function(M, g) != hilbert_function(N, g):
        raise ValueError(
            f"{M} and {N} have different Hilbert functions for {g}")


def active_classes(M, N, g):
    """Degree classes where the two monomial sets differ, ascending weight.

    Yields (weight, members of M sorted descending, members of N likewise),
    with descending taken in the x-smaller sense (largest y-exponent first).
    """
    support = sorted({g.weight(s) for s in M.standard_monomials()}
                     | {g.weight(s) for s in N.standard_monomials()})
    out = []
    for w in support:
        in_m = []
        in_n = []
        for m in g.monomials_of_weight(w):
            if M.contains(m):
                in_m.append(m)
            if N.contains(m):
                in_n.append(m)
        if in_m != in_n:
            out.append((w, tuple(reversed(in_m)), tuple(reversed(in_n))))
    return out


def dominates(M, N, g, side=TermSide.X_SMALL):
    """Whether M is greater than or equal to N in the dominance order."""
    _require_equal_hf(M, N, g)
    if side is TermSide.Y_SMALL:
        return dominates(M.swap(), N.swap(), g.swap(), TermSide.X_SMALL)
    for _, mons_m, mons_n in active_classes(M, N, g):
        if len(mons_m) != len(mons_n):
            return False
        for a, b in zip(mons_m, mons_n):
            if a[1] < b[1]:
                return False
    return True


@dataclass(frozen=True)
class ArrowMap:
    """A witness map, stored on the active region (identity elsewhere)."""

    source: MonomialIdeal2
    target: MonomialIdeal2
    grading: Grading
    side: TermSide
    pairs: tuple  # ((m, f(m)), ...) covering the active classes, sorted

    def as_dict(self):
        return dict(self.pairs)

    def apply(self, m):
        return self.as_dict().get(m, m)

    def moved_pairs(self):
        return tuple((m, v) for m, v in self.pairs if m != v)

    def to_json(self):
        return {
            "schema": "tgraph.arrow-map/1",
            "source": str(self.source),
            "target": str(self.target),
            "grading": {"alpha": self.grading.alpha, "beta": self.grading.beta},
            "side": self.side.value,
            "pairs": [[format_monomial(m), format_monomial(v)]
                      for m, v in self.moved_pairs()],
        }

    @classmethod
    def from_json(cls, data):
        from .monomial import parse_ideal

        side = TermSide(data["side"])
        g = Grading(data["grading"]["alpha"], data["grading"]["beta"])
        M = parse_ideal(data["source"])
        N = parse_ideal(data["target"])
        assign = {parse_monomial(a): parse_monomial(b)
                  for a, b in data["pairs"]}
        return build_arrow_map(M, N, g, side, assign)


def build_arrow_map(M, N, g, side, assignment):
    """Complete a partial assignment with identities on the active region."""
    full = []
    for w, mons_m, mons_n in active_classes(M, N, g):
        for m in mons_m:
            v = assignment.get(m, m)
            full.append((m, v))
    return ArrowMap(M, N, g, side, tuple(sorted(full)))


def _divisor_bound(m, ideal, dist):
    """Tightest shift bound inherited from the in-ideal divisors of m."""
    bound = None
    for u in ((m[0] - 1, m[1]), (m[0], m[1] - 1)):
        if u[0] < 0 or u[1] < 0 or not ideal.contains(u):
            continue
        d = dist.get(u, 0)
        if bound is None or d < bound:
            bound = d
    return bound


def is_arrow_map(M, N, g, side, assignment):
    """Literal check of the three conditions on the active region."""
    _require_equal_hf(M, N, g)
    if side is TermSide.Y_SMALL:
        swapped = {(m[1], m[0]): (v[1], v[0]) for m, v in assignment.items()}
        return is_arrow_map(M.swap(), N.swap(), g.swap(), TermSide.X_SMALL,
                            swapped)
    dist_m = {}
    dist_n = {}
    for w, mons_m, mons_n in active_classes(M, N, g):
        if len(mons_m) != len(mons_n):
            return False
        images = []
        for m in mons_m:
            v = assignment.get(m, m)
            if v not in mons_n:
                return False
            if side_key(v, TermSide.X_SMALL) > side_key(m, TermSide.X_SMALL):
                return False
            images.append(v)
            dist_m[m] = dist_n[v] = g.distance(m, v)
        if len(set(images)) != len(images):
            return False
    for m, d in list(dist_m.items()):
        bound = _divisor_bound(m, M, dist_m)
        if bound is not None and d > bound:
            return False
    for v, d in list(dist_n.items()):
        bound = _divisor_bound(v, N, dist_n)
        if bound is not None and d > bound:
            return False
    return True


def is_system_of_arrows(M, N, g, side, assignment):
    """Weaker check: the bijective-decreasing and target-side conditions only."""
    _require_equal_hf(M, N, g)
    if side is TermSide.Y_SMALL:
        swapped = {(m[1], m[0]): (v[1], v[0]) for m, v in assignment.items()}
        return is_system_of_arrows(M.swap(), N.swap(), g.swap(),
                                   TermSide.X_SMALL, swapped)
    dist_n = {}
    for w, mons_m, mons_n in active_classes(M, N, g):
        if len(mons_m) != len(mons_n):
            return False
        images = []
        for m in mons_m:
            v = assignment.get(m, m)
            if v not in mons_n:
                return False
            if side_key(v, TermSide.X_SMALL) > side_key(m, TermSide.X_SMALL):
                return False
            images.append(v)
            dist_n[v] = g.distance(m, v)
        if len(set(images)) != len(images):
            return False
    for v, d in list(dist_n.items()):
        bound = _divisor_bound(v, N, dist_n)
        if bound is not None and d > bound:
            return False
    return True


def _search(M, N, g, limit):
    """Backtracking enumeration of arrow maps, x-smaller side.

    Classes are processed by increasing weight; the shift bounds flow from
    divisors already assigned, so the per-class constraints are exactly the
    three defining conditions.
    """
    classes = active_classes(M, N, g)
    for _, mons_m, mons_n in classes:
        if len(mons_m) != len(mons_n):
            return
    dist_m = {}
    dist_n = {}
    chosen = []
    found = 0

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
            cap_m = _divisor_bound(m, M, dist_m)
            for v in mons_n:
                if v in used:
                    continue
                if side_key(v, TermSide.X_SMALL) > side_key(m, TermSide.X_SMALL):
                    continue
                d = g.distance(m, v)
                if cap_m is not None and d > cap_m:
                    continue
                cap_n = _divisor_bound(v, N, dist_n)
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


def find_arrow_maps(M, N, g, side=TermSide.X_SMALL, limit=1):
    """Up to `limit` arrow maps from M onto N (None for all), validated."""
    _require_equal_hf(M, N, g)
    if side is TermSide.Y_SMALL:
        out = []
        for f in find_arrow_maps(M.swap(), N.swap(), g.swap(),
                                 TermSide.X_SMALL, limit):
            assign = {(m[1], m[0]): (v[1], v[0]) for m, v in f.pairs}
            out.append(build_arrow_map(M, N, g, side, assign))
        return out
    if not dominates(M, N, g, TermSide.X_SMALL):
        return []
    maps = []
    for assignment in _search(M, N, g, limit):
        assert is_arrow_map(M, N, g, TermSide.X_SMALL, assignment)
        maps.append(build_arrow_map(M, N, g, TermSide.X_SMALL, assignment))
    return maps


def arrow_map_exists(M, N, g, side=TermSide.X_SMALL):
    """Some arrow map M -> N, or None; requires equal Hilbert functions."""
    maps = find_arrow_maps(M, N, g, side, limit=1)
    return maps[0] if maps else None


def enumerate_arrow_maps(M, N, g, side=TermSide.X_SMALL, limit=None):
    """All arrow maps (up to `limit`), in a canonical deterministic order."""
    maps = find_arrow_maps(M, N, g, side, limit=limit)

    def order_key(f):
        return tuple(
            (g.weight(m), side_key(m, side), side_key(v, side))
            for m, v in f.pairs
        )

    return sorted(maps, key=order_key)


def dual_condition(M, N, g, side=TermSide.X_SMALL, box=None):
    """Arrow-map test between the box quotients; returns (map or None, box).

    The default box uses the least pure powers lying in both ideals; a caller
    may pass a larger one to probe dependence on that choice.
    """
    _require_equal_hf(M, N, g)
    if box is None:
        box = minimal_box(M, N)
    qm = colon_box(box, M)
    qn = colon_box(box, N)
    witness = arrow_map_exists(qm, qn, g, side)
    return witness, box
