"""Edge schemes in more than two variables, on a declared degree window.

The two-variable machinery does not carry over verbatim (cells need not be
affine), so here a candidate ideal is parametrized degree by degree with
generic coefficients: each minimal generator m of M picks up free
coefficients on the standard monomials of its degree class that sit strictly
below m, and the requirements "initial ideal is M, opposite initial ideal is
N" become polynomial constraints: every syzygy-degree S-pair must reduce to
zero against the family, and each generator of the N-side family must reduce
to zero as well.  Both reductions are ``poly.reduce_row``, the package's one
row division.  Everything happens inside a finite degree window, declared by
the caller.

Each equation carries its degree: the syzygy degree of its S-pair, or the
degree of its N-side generator.  Cutting the window off above a degree that
still covers the generators keeps exactly the equations tagged at most that
degree, in the same order, so one build serves every window inside it; a
verdict is re-checked one degree higher from the same build, and solved a
second time only when that degree adds equations.

A ``ChainWindow`` holds one direction's chains on the built window, their
index and the chain positions of the ideals placed on it; it is built once
per direction, and orientation and every edge scheme along that direction
read it.  Dominance is read off two position lists, once their per-chain
counts agree.  An ideal stores each membership answer it gives, so the same
question costs one dict lookup the next time.

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
from .poly import ArrowVar, Ring, add_into, reduce_row


def _monomials_of_degree(nvars, weights, t):
    """All exponent tuples of weighted degree t, lexicographic order."""
    parts = [((), t)]
    for w in weights[:nvars - 1]:
        parts = [(p + (e,), rest - e * w) for p, rest in parts
                 for e in range(rest // w + 1)]
    last = weights[nvars - 1]
    return [p + (rest // last,) for p, rest in parts if rest % last == 0]


def _divides(u, v):
    return all(map(le, u, v))


def _format_monomial(m):
    return "*".join(f"x{i}" + (f"^{e}" if e > 1 else "")
                    for i, e in enumerate(m) if e) or "1"


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

    def j_index(self, m):
        """Index of the least generator dividing m."""
        for j, g in enumerate(self.gens):
            if _divides(g, m):
                return j
        raise ValueError(f"{_format_monomial(m)} is not in the ideal")

    def _generated(self, m):
        return any(_divides(g, m) for g in self.gens)

    def degree(self, m):
        return sum(w * e for w, e in zip(self.weights, m))

    def hilbert_values(self, window):
        """Quotient dimensions on a window that maps degree -> monomials."""
        return {t: sum(1 for m in mons if not self.contains(m))
                for t, mons in window.items()}

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
    for t in degrees:
        for u, v in combinations(_monomials_of_degree(nvars, weights, t), 2):
            c = tuple(map(sub, u, v))
            g = gcd(*c)
            c = tuple(x // g for x in c)
            seen.add(max(c, tuple(-x for x in c)))
    return sorted(seen)


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


class ChainWindow:
    """One direction's chains on a degree window, built once.

    Holds the chains as ``degree_classes`` gives them, their index
    monomial -> (chain, position) and each given ideal's chain positions.
    Raises ValueError unless the ideals share variables and weights, or as
    ``degree_classes`` does.
    """

    def __init__(self, ideals, c, degrees):
        nvars, weights = ideals[0].nvars, ideals[0].weights
        if any((I.nvars, I.weights) != (nvars, weights) for I in ideals):
            raise ValueError("the ideals must share variables and weights")
        self.c, self.degrees = c, tuple(degrees)
        self.chains = degree_classes(nvars, weights, c, self.degrees)
        self.where = {m: (chain, k) for chain in self.chains
                      for k, m in enumerate(chain)}
        self.positions = {I: chain_positions(I, self.chains) for I in ideals}


def _tails(ideal, window, side):
    """Where the generic coefficients of each generator sit.

    A generator m picks up one variable per standard monomial strictly after
    it on its chain for side 0, the M side, and strictly before it for side
    1, the N side.  Returns a list of (m, ((variable, monomial), ...)).
    """
    out = []
    for gi, gen in enumerate(ideal.gens):
        if gen not in window.where:
            raise ValueError(f"generator {gen} falls outside the window")
        chain, k = window.where[gen]
        tail = chain[:k][::-1] if side else chain[k + 1:]
        out.append((gen, tuple((ArrowVar(side, gi, step), u)
                               for step, u in enumerate(tail, start=1)
                               if not ideal.contains(u))))
    return out


def _family(tails, ring):
    """Generic-coefficient deformations: dicts exponent tuple -> Poly."""
    return [{gen: ring.one(), **{u: ring.var(v) for v, u in tail}}
            for gen, tail in tails]


def edge_scheme_general(M, N, window):
    """Constraint ideal for "initial ideal M, opposite initial ideal N".

    `window` is a ``ChainWindow`` with both ideals placed on it.  Returns
    (ring, equations), where equations is a list of (degree, poly): the
    syzygy (lcm) degree of an S-pair row, or the generator's degree for a
    row of the N-side family.  The window's degrees must cover the
    generators of both ideals, and every syzygy degree up to its largest one
    is imposed.  Raises when the window misses a needed lcm degree, rather
    than guessing.  The polys tagged at most t are, in order, the equations
    of the window cut off above t (when that still covers the generators),
    so one build serves every window inside it.
    """
    if M == N:
        raise ValueError("the two ideals must differ")
    if not (M in window.positions and N in window.positions):
        raise ValueError("both ideals must be placed on the window")
    # Equal counts on every chain also mean equal Hilbert values on the window.
    if not class_dominates(window.positions[M], window.positions[N]):
        raise ValueError("first ideal must dominate the second on the window")

    tails_m = _tails(M, window, 0)
    tails_n = _tails(N, window, 1)
    # Sorted, the M-side variables (side 0) come before the N-side ones.
    ring = Ring(sorted(v for tails in (tails_m, tails_n)
                       for _, tail in tails for v, _ in tail))
    fam_m, fam_n = _family(tails_m, ring), _family(tails_n, ring)
    # divide by gen - tail: its S-pair rows are minus these, so the equations
    # cut out the same scheme with M's variables negated
    divisors = [{u: p if u == gen else -p for u, p in row.items()}
                for gen, row in zip(M.gens, fam_m)]

    equations = []

    def emit(t, remainder):
        for m, poly in sorted(remainder.items()):
            if M.contains(m):
                raise RuntimeError("reduction left an in-ideal monomial")
            equations.append((t, poly))

    max_window = max(window.degrees)
    for (g1, r1), (g2, r2) in combinations(zip(M.gens, fam_m), 2):
        lcm = tuple(max(a, b) for a, b in zip(g1, g2))
        t = M.degree(lcm)
        if t > max_window:
            continue
        if t not in window.degrees:
            raise ValueError(
                f"syzygy degree {t} falls outside the declared window")
        s1 = tuple(a - b for a, b in zip(lcm, g1))
        s2 = tuple(a - b for a, b in zip(lcm, g2))
        row = {}
        for u, poly in r1.items():
            add_into(row, tuple(a + b for a, b in zip(u, s1)), poly)
        for u, poly in r2.items():
            add_into(row, tuple(a + b for a, b in zip(u, s2)), -poly)
        emit(t, reduce_row(row, M, divisors))

    for gen, row in zip(N.gens, fam_n):
        emit(N.degree(gen), reduce_row(row, M, divisors))

    return ring, equations


TWO_POINTS_WINDOW = (0, 1, 2, 3)


def fixed_points_two_points_p2():
    """The monomial ideals with the two-points Hilbert values (1, 3, 2, 2).

    Ideals are generated by four quadrics; the label pairs each with the
    generators of its saturation (a linear form and one more monomial).
    """
    window = {t: _monomials_of_degree(3, (1, 1, 1), t)
              for t in TWO_POINTS_WINDOW}
    ideals = (NMonomialIdeal(3, quad, (1, 1, 1))
              for quad in combinations(window[2], 4))
    return [M for M in ideals
            if M.hilbert_values(window) == {0: 1, 1: 3, 2: 2, 3: 2}]


def saturation_label(M):
    """Generators of the saturation: the linear variable plus one monomial."""
    for i in range(3):
        if sum(g[i] >= 1 for g in M.gens) == 3:
            extra = next(g for g in M.gens if g[i] == 0)
            return f"<x{i}, {_format_monomial(extra)}>"
    raise ValueError("not a two-points fixed ideal")


def two_points_graph(budget=DEFAULT_BUDGET, verify_window=False):
    """Vertices, edges, and edge dimensions for two points in the plane.

    Returns (vertices, edges, dims) where edges maps a vertex index pair to
    the list of directions carrying a nonempty edge scheme and dims holds the
    corresponding quotient dimensions.  One Groebner basis per scheme and
    window, of its presolved equations, gives both the verdict and the
    dimension.  Each direction's ``ChainWindow`` is built once, one degree
    above the window when `verify_window`, and serves both the orientation
    (on the chains of degree at most 3, a prefix of its list, comparing
    positions both ways only where the two per-chain counts agree) and
    every oriented scheme along that direction, each built once; the
    window's equations are read off the degree tags.  The check solves a
    second time only when the higher degree adds equations; with none added
    the verdict cannot change.
    Raises BudgetExceeded when the budget runs out, RuntimeError when
    `verify_window` finds a verdict that changes one degree higher, and
    ValueError when the window misses a syzygy degree of an oriented pair.
    """
    vertices = fixed_points_two_points_p2()
    degrees = TWO_POINTS_WINDOW
    top = max(degrees)
    built = degrees + (top + 1,) if verify_window else degrees
    directions = candidate_refinements(3, (1, 1, 1), (1, 2))
    windows, positions, counts = {}, {}, {}
    for c in directions:
        window = windows[c] = ChainWindow(vertices, c, built)
        # chains come in degree order, so the window's are a prefix
        cut = sum(vertices[0].degree(ch[0]) <= top for ch in window.chains)
        positions[c] = [window.positions[v][:cut] for v in vertices]
        counts[c] = [tuple(map(len, pos)) for pos in positions[c]]
    edges, dims = {}, {}
    for i, j in combinations(range(len(vertices)), 2):
        M, N = vertices[i], vertices[j]
        for c in directions:
            if counts[c][i] != counts[c][j]:  # so neither dominates
                continue
            pos_i, pos_j = positions[c][i], positions[c][j]
            if class_dominates(pos_i, pos_j):
                big, small = M, N
            elif class_dominates(pos_j, pos_i):
                big, small = N, M
            else:
                continue
            ring, eqs = edge_scheme_general(big, small, windows[c])
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
