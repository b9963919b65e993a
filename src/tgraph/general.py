"""Edge schemes in more than two variables, on a declared degree window.

The two-variable machinery does not carry over verbatim (cells need not be
affine), so here a candidate ideal is parametrized degree by degree with
generic coefficients: each minimal generator m of M picks up free
coefficients on the standard monomials of its degree class that sit strictly
below m, and the requirements "initial ideal is M, opposite initial ideal is
N" become polynomial constraints: every syzygy-degree S-pair must reduce to
zero against the family, and each generator of the N-side family must reduce
to zero as well.  Everything happens inside a finite degree window, declared
by the caller.

Each equation carries its degree: the syzygy degree of its S-pair, or the
degree of its N-side generator.  Cutting the window off above a degree that
still covers the generators keeps exactly the equations tagged at most that
degree, in the same order, so one build serves every window inside it; a
verdict is re-checked one degree higher from the same build, and solved a
second time only when that degree adds equations.

A direction's chains on a window are built once per direction to orient
the pairs, and again inside each edge-scheme computation on its own window;
each ideal is described by its positions on those chains, and dominance is
read off two such position lists.  An ideal stores each membership answer it
gives, so the same question costs one dict lookup the next time.

Every solve, the window check's too, runs on the equations presolved by
``groebner.presolve`` in the printed variable order, and a dimension counts
the variables that remain.

This is enough for the Hilbert scheme of two points in the projective plane,
and for colength-d ideals in two variables it must agree with the staircase
route, which the test suite uses as a cross-engine oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from operator import add, le, sub

from .groebner import (DEFAULT_BUDGET, buchberger, presolve,
                       quotient_dimension)
from .poly import ArrowVar, Ring, add_into


def _monomials_of_degree(nvars, weights, t):
    """All exponent tuples of weighted degree t, lexicographic order."""
    out = []

    def rec(prefix, rest):
        i = len(prefix)
        if i == nvars - 1:
            q, r = divmod(rest, weights[i])
            if r == 0:
                out.append(tuple(prefix) + (q,))
            return
        for e in range(rest // weights[i] + 1):
            rec(prefix + [e], rest - e * weights[i])

    rec([], t)
    return out


def _divides(u, v):
    return all(map(le, u, v))


def _format_monomial(m):
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class NMonomialIdeal:
    """Monomial ideal given by minimal generators inside a degree window."""

    nvars: int
    gens: tuple
    weights: tuple

    def __post_init__(self):
        nvars, weights = self.nvars, tuple(self.weights)
        gens = tuple(sorted(tuple(g) for g in self.gens))
        if not isinstance(nvars, int) or nvars < 1:
            raise ValueError("nvars must be a positive int")
        if len(weights) != nvars:
            raise ValueError("weights must have nvars entries")
        if not all(isinstance(w, int) and w > 0 for w in weights):
            raise ValueError("weights must be positive ints")
        if not all(len(g) == nvars and all(isinstance(e, int) and e >= 0
                                           for e in g) for g in gens):
            raise ValueError("generators must have nvars nonnegative int "
                             "entries")
        for u, v in combinations(gens, 2):
            if _divides(u, v) or _divides(v, u):
                raise ValueError("generators are not minimal")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "weights", weights)
        # membership answers; not a field, so ==, hash and repr ignore it
        object.__setattr__(self, "_member", {})

    def contains(self, m):
        """Whether the exponent tuple m lies in the ideal.

        The answer is decided once by a generator test and stored on the
        instance, so asking again is a dict lookup.
        """
        try:
            return self._member[m]
        except KeyError:
            found = self._member[m] = self._generated(m)
            return found

    def _generated(self, m):
        return any(_divides(g, m) for g in self.gens)

    def degree(self, m):
        return sum(w * e for w, e in zip(self.weights, m))

    def hilbert_values(self, degrees):
        """Quotient dimensions on the window, by monomial counting."""
        out = {}
        for t in degrees:
            mons = _monomials_of_degree(self.nvars, self.weights, t)
            out[t] = sum(1 for m in mons if not self.contains(m))
        return out

    def __str__(self):
        return "<" + ", ".join(map(_format_monomial, self.gens)) + ">"


def degree_classes(nvars, weights, c, degrees):
    """Partition each window degree's monomials into chains under adding c.

    Chains come in degree order.  Each is listed from the large end downward:
    index 0 is the monomial with the most room to move against c, and each
    later entry adds one copy of c.  Raises ValueError unless c has `nvars`
    entries of both signs.
    """
    if len(c) != nvars:
        raise ValueError(f"direction {c} does not have {nvars} entries")
    if not (any(x > 0 for x in c) and any(x < 0 for x in c)):
        raise ValueError("direction must have entries of both signs")
    classes = []
    for t in degrees:
        mons = _monomials_of_degree(nvars, weights, t)
        # a shift with a negative entry is never in the set
        present = set(mons)
        seen = set()
        for m in mons:
            if m in seen:
                continue
            top = m
            while (up := tuple(map(sub, top, c))) in present:
                top = up
            chain = [top]
            while (down := tuple(map(add, chain[-1], c))) in present:
                chain.append(down)
            seen.update(chain)
            classes.append(tuple(chain))
    return classes


def candidate_refinements(nvars, weights, degrees):
    """Primitive direction vectors from same-degree exponent differences."""
    seen = set()
    out = []
    for t in degrees:
        mons = _monomials_of_degree(nvars, weights, t)
        for u, v in combinations(mons, 2):
            c = tuple(a - b for a, b in zip(u, v))
            g = gcd(*c)
            c = tuple(x // g for x in c)
            canon = max(c, tuple(-x for x in c))
            if canon not in seen:
                seen.add(canon)
                out.append(canon)
    out.sort()
    return out


def chain_positions(ideal, chains):
    """For each chain, the indices of its members that lie in the ideal."""
    return [tuple(k for k, m in enumerate(chain) if ideal.contains(m))
            for chain in chains]


def class_dominates(pos_m, pos_n):
    """Chain-wise dominance of M over N, read off their chain positions.

    On every chain both ideals hold the same number of members, and M's k-th
    member sits no lower on the chain than N's k-th.
    """
    for a, b in zip(pos_m, pos_n):
        if len(a) != len(b) or not all(map(le, a, b)):
            return False
    return True


def _tails(ideal, chains, var_side, opposite):
    """Where the generic coefficients of each generator sit.

    A generator m picks up one variable per standard monomial strictly after
    it on its chain (strictly before it when `opposite`).  Returns a list of
    (m, ((variable, monomial), ...)).
    """
    where = {m: (chain, k) for chain in chains for k, m in enumerate(chain)}
    out = []
    for gi, gen in enumerate(ideal.gens):
        if gen not in where:
            raise ValueError(f"generator {gen} falls outside the window")
        chain, k = where[gen]
        tail = chain[:k][::-1] if opposite else chain[k + 1:]
        out.append((gen, tuple((ArrowVar(var_side, gi, step), u)
                               for step, u in enumerate(tail, start=1)
                               if not ideal.contains(u))))
    return out


def _family(tails, ring):
    """Generic-coefficient deformations: dicts exponent tuple -> Poly."""
    return [{gen: ring.one(), **{u: ring.var(v) for v, u in tail}}
            for gen, tail in tails]


def _reduce_against(poly_row, M, families_by_gen):
    """Eliminate every in-M monomial of a row using the generic family.

    Reduction strictly descends each chain, so it terminates; the remainder
    is supported on standard monomials.
    """
    work = dict(poly_row)
    while True:
        inside = [m for m in work if M.contains(m)]
        if not inside:
            break
        m = min(inside)
        coeff = work.pop(m)
        gen = next(g for g in M.gens if _divides(g, m))
        shift = tuple(a - b for a, b in zip(m, gen))
        for u, cpoly in families_by_gen[gen].items():
            if u == gen:
                continue
            add_into(work, tuple(a + b for a, b in zip(u, shift)),
                     coeff * cpoly)
    return work


def edge_scheme_general(M, N, c, window_degrees):
    """Constraint ideal for "initial ideal M, opposite initial ideal N".

    Returns (ring, equations), where equations is a list of (degree, poly):
    the syzygy (lcm) degree of an S-pair row, or the generator's degree for
    a row of the N-side family.  `window_degrees` must cover the generators
    of both ideals, and every syzygy degree up to its largest one is
    imposed.  Raises when the window misses a needed lcm degree, rather than
    guessing.  The polys tagged at most t are, in order, the equations of
    the window cut off above t (when that still covers the generators), so
    one build serves every window inside it.
    """
    if M == N:
        raise ValueError("the two ideals must differ")
    if (M.nvars, M.weights) != (N.nvars, N.weights):
        raise ValueError("the two ideals must share variables and weights")
    # Equal counts on every chain also mean equal Hilbert values on the window.
    chains = degree_classes(M.nvars, M.weights, c, window_degrees)
    if not class_dominates(chain_positions(M, chains),
                           chain_positions(N, chains)):
        raise ValueError("first ideal must dominate the second on the window")

    tails_m = _tails(M, chains, 0, False)
    tails_n = _tails(N, chains, 1, True)
    # Sorted, the M-side variables (side 0) come before the N-side ones.
    ring = Ring(sorted(v for tails in (tails_m, tails_n)
                       for _, tail in tails for v, _ in tail))
    fam_m = _family(tails_m, ring)
    fam_n = _family(tails_n, ring)
    by_gen = {gen: row for gen, row in zip(M.gens, fam_m)}

    equations = []

    def emit(t, remainder):
        for m, poly in sorted(remainder.items()):
            if M.contains(m):
                raise RuntimeError("reduction left an in-ideal monomial")
            equations.append((t, poly))

    max_window = max(window_degrees)
    for (g1, r1), (g2, r2) in combinations(zip(M.gens, fam_m), 2):
        lcm = tuple(max(a, b) for a, b in zip(g1, g2))
        t = M.degree(lcm)
        if t > max_window:
            continue
        if t not in window_degrees:
            raise ValueError(
                f"syzygy degree {t} falls outside the declared window")
        s1 = tuple(a - b for a, b in zip(lcm, g1))
        s2 = tuple(a - b for a, b in zip(lcm, g2))
        row = {}
        for u, poly in r1.items():
            add_into(row, tuple(a + b for a, b in zip(u, s1)), poly)
        for u, poly in r2.items():
            add_into(row, tuple(a + b for a, b in zip(u, s2)), -poly)
        emit(t, _reduce_against(row, M, by_gen))

    for gen, row in zip(N.gens, fam_n):
        emit(N.degree(gen), _reduce_against(dict(row), M, by_gen))

    return ring, equations


TWO_POINTS_WINDOW = (0, 1, 2, 3)


def fixed_points_two_points_p2():
    """The monomial ideals with the two-points Hilbert values (1, 3, 2, 2).

    Ideals are generated by four quadrics; the label pairs each with the
    generators of its saturation (a linear form and one more monomial).
    """
    deg2 = _monomials_of_degree(3, (1, 1, 1), 2)
    out = []
    for quad in combinations(deg2, 4):
        M = NMonomialIdeal(3, quad, (1, 1, 1))
        values = M.hilbert_values(TWO_POINTS_WINDOW)
        if values == {0: 1, 1: 3, 2: 2, 3: 2}:
            out.append(M)
    return out


def saturation_label(M):
    """Generators of the saturation: the linear variable plus one monomial."""
    for i in range(3):
        covered = [g for g in M.gens if g[i] >= 1]
        if len(covered) == 3:
            extra = next(g for g in M.gens if g[i] == 0)
            return f"<x{i}, {_format_monomial(extra)}>"
    raise ValueError("not a two-points fixed ideal")


def two_points_graph(budget=DEFAULT_BUDGET, verify_window=False):
    """Vertices, edges, and edge dimensions for two points in the plane.

    Returns (vertices, edges, dims) where edges maps a vertex index pair to
    the list of directions carrying a nonempty edge scheme and dims holds the
    corresponding quotient dimensions.  One Groebner basis per scheme and
    window, of its presolved equations, gives both the verdict and the
    dimension.  Each pair is oriented per direction, both ways, from the
    vertices' chain positions.  Each oriented scheme is built once, one
    degree higher when `verify_window`, and the window's equations are read
    off the degree tags.  The check solves a second time only when the
    higher degree adds equations; with none added the verdict cannot change.
    Raises BudgetExceeded when the budget runs out, RuntimeError when
    `verify_window` finds a verdict that changes one degree higher, and
    ValueError when the window misses a syzygy degree of an oriented pair.
    """
    vertices = fixed_points_two_points_p2()
    degrees = TWO_POINTS_WINDOW
    top = max(degrees)
    built = degrees + (top + 1,) if verify_window else degrees
    directions = candidate_refinements(3, (1, 1, 1), (1, 2))
    positions = {}
    for c in directions:
        chains = degree_classes(3, (1, 1, 1), c, degrees)
        positions[c] = [chain_positions(v, chains) for v in vertices]
    edges = {}
    dims = {}
    for i, j in combinations(range(len(vertices)), 2):
        M, N = vertices[i], vertices[j]
        for c in directions:
            pos_i, pos_j = positions[c][i], positions[c][j]
            if class_dominates(pos_i, pos_j):
                big, small = M, N
            elif class_dominates(pos_j, pos_i):
                big, small = N, M
            else:
                continue
            ring, eqs = edge_scheme_general(big, small, c, built)
            narrow = [p for t, p in eqs if t <= top]
            left, gens = presolve(narrow, ring)
            gb = buchberger(gens, budget=budget)
            if len(eqs) > len(narrow):
                _, gens = presolve([p for _, p in eqs], ring)
                gb4 = buchberger(gens, budget=budget)
                if gb4.is_trivial() != gb.is_trivial():
                    raise RuntimeError(
                        f"{big} over {small} along {c}: the verdict "
                        "changes one degree above the window")
            if not gb.is_trivial():
                dim = quotient_dimension(gb, nvars=left.nvars)
                key = (i + 1, j + 1)
                edges.setdefault(key, []).append(c)
                dims[key] = max(dims.get(key, 0), dim)
    return vertices, edges, dims
