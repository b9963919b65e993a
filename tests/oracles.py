"""Independent oracles used to validate the package from the outside.

Nothing here calls the code paths it checks: arrow-map conditions are tested
literally over a padded box, tangent weights come from arm/leg statistics of
the partition, ideal membership is certified by explicit cofactors, and small
fields are implemented from scratch for the slice computations.  The helpers
at the end are the exception: they build test inputs from the package, or
reach the solver's private kernel, and say so.
"""
from __future__ import annotations

import json
import pathlib
import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

from tgraph.monomial import Grading, MonomialIdeal2


def box_monomials(amax, bmax):
    return [(a, b) for a in range(amax + 1) for b in range(bmax + 1)]


def brute_arrow_check(M, N, g, assignment, pad=3):
    """Literal check of all three arrow-map conditions over a padded box."""
    amax = max(M.a0, N.a0) + pad * g.beta
    bmax = max(M.be, N.be) + pad * g.alpha

    def f(m):
        return assignment.get(m, m)

    mons_m = [m for m in box_monomials(amax, bmax) if M.contains(m)]
    mons_n = [m for m in box_monomials(amax, bmax) if N.contains(m)]
    images = {}
    for m in mons_m:
        v = f(m)
        if not N.contains(v):
            return False
        if g.weight(v) != g.weight(m):
            return False
        if v[1] > m[1]:  # moved up its class
            return False
        images.setdefault(g.weight(m), []).append(v)
    for w, vs in images.items():
        if len(set(vs)) != len(vs):
            return False
    inv = {}
    for m in mons_m:
        inv[f(m)] = m
    for m in mons_m:
        dm = g.distance(m, f(m))
        for u in box_monomials(amax - m[0], bmax - m[1]):
            m2 = (m[0] + u[0], m[1] + u[1])
            if g.distance(m2, f(m2)) > dm:
                return False
    for v in mons_n:
        if v not in inv:
            continue
        dv = g.distance(inv[v], v)
        for u in box_monomials(amax - v[0], bmax - v[1]):
            v2 = (v[0] + u[0], v[1] + u[1])
            if v2 in inv and g.distance(inv[v2], v2) > dv:
                return False
    return True


def brute_rows(M):
    """Staircase rows as the least x-exponent among generators at or below
    each row."""
    return tuple(min(a for a, bb in M.gens if bb <= b) for b in range(M.be))


def brute_hilbert_function(M, g):
    """Weight-indexed counts taken over the listed standard monomials."""
    counts = {}
    for m in M.standard_monomials():
        w = g.weight(m)
        counts[w] = counts.get(w, 0) + 1
    return tuple(sorted(counts.items()))


def brute_colon_box(box, M):
    """Row thresholds of the box quotient, scanning the generators per row."""
    r1, r2 = box
    thr = []
    for b in range(r2):
        need = [r1 - ga for ga, gb in M.gens if gb + b < r2]
        thr.append(max(0, max(need, default=0)))
    while thr and thr[-1] == 0:
        thr.pop()
    return tuple(thr)


def scanning_parse_monomial(text):
    """Read "x^a*y^b" text left to right, one factor or '*' at a time."""
    s = text.strip()
    if s == "1":
        return (0, 0)
    factor = re.compile(r"(x|y)(?:\^(\d+))?")
    a = b = 0
    pos = 0
    expect_factor = True
    while pos < len(s):
        if not expect_factor:
            if s[pos] != "*":
                raise ValueError(f"expected '*' at position {pos} in {text!r}")
            pos += 1
            expect_factor = True
            continue
        m = factor.match(s, pos)
        if not m:
            raise ValueError(f"expected variable at position {pos} in {text!r}")
        e = int(m.group(2)) if m.group(2) else 1
        if m.group(1) == "x":
            a += e
        else:
            b += e
        pos = m.end()
        expect_factor = False
    if expect_factor:
        raise ValueError(f"dangling '*' at end of {text!r}")
    return (a, b)


def successor_partitions(d):
    """Partitions of d in decreasing lexicographic order, each one computed
    from the one before: the last part above 1 drops by one and the rest is
    refilled greedily."""
    if d == 0:
        yield ()
        return
    parts = [d]
    while True:
        yield tuple(parts)
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        head = parts[i] - 1
        rest = len(parts) - i - 1 + parts[i]
        parts = parts[:i]
        while rest > 0:
            take = min(head, rest)
            parts.append(take)
            rest -= take


def sorting_swap(M):
    """M with x and y exchanged, through its generators and the validating
    constructor."""
    return MonomialIdeal2(tuple(sorted(((b, a) for a, b in M.gens),
                                       key=lambda m: m[1])))


def brute_monomials_of_weight(g, w):
    """Monomials of weight w, testing every y-exponent up to w // beta."""
    out = []
    for b in range(w // g.beta + 1):
        rest = w - g.beta * b
        if rest % g.alpha == 0:
            out.append((rest // g.alpha, b))
    return out


def hf_bucket_jobs(vertices, bound):
    """(pair, grading) jobs by bucketing every ideal on its Hilbert
    function, counted over its listed standard monomials."""
    jobs = []
    for a in range(1, bound + 1):
        for b in range(1, bound + 1):
            if gcd(a, b) != 1:
                continue
            g = Grading(a, b)
            buckets = {}
            for idx, M in enumerate(vertices, start=1):
                buckets.setdefault(brute_hilbert_function(M, g),
                                   []).append(idx)
            for members in buckets.values():
                jobs.extend(((i, j), g) for i in members for j in members
                            if i < j)
    return sorted(jobs, key=lambda job: (job[0], (job[1].alpha,
                                                  job[1].beta)))


def brute_active_classes(M, N, g):
    """Differing degree classes, by walking every class of the support."""
    support = sorted({g.weight(s) for s in M.standard_monomials()}
                     | {g.weight(s) for s in N.standard_monomials()})
    out = []
    for w in support:
        chain = brute_monomials_of_weight(g, w)
        in_m = [m for m in chain if M.contains(m)]
        in_n = [m for m in chain if N.contains(m)]
        if in_m != in_n:
            out.append((w, tuple(reversed(in_m)), tuple(reversed(in_n))))
    return out


def trimmed_active_classes(M, N, g):
    """``brute_active_classes`` with the members the two lists share at the
    top and at the bottom of each class stripped off."""
    out = []
    for w, mm, nn in brute_active_classes(M, N, g):
        top = 0
        while top < min(len(mm), len(nn)) and mm[top] == nn[top]:
            top += 1
        mm, nn = mm[top:], nn[top:]
        bottom = 0
        while (bottom < min(len(mm), len(nn))
               and mm[-1 - bottom] == nn[-1 - bottom]):
            bottom += 1
        out.append((w, mm[:len(mm) - bottom], nn[:len(nn) - bottom]))
    return out


def brute_dominates(M, N, g):
    """Dominance via exhaustive per-class matchings."""
    for _, mm, nn in brute_active_classes(M, N, g):
        if len(mm) != len(nn):
            return False
        if not any(
            all(mm[i][1] >= nn[p[i]][1] for i in range(len(mm)))
            for p in permutations(range(len(nn)))
        ):
            return False
    return True


def brute_arrow_maps(M, N, g):
    """Every arrow map from M onto N, by trying each per-class bijection.

    Walks all permutations of every differing class, found by
    ``brute_active_classes``, and keeps the assignments that pass the
    literal check over a padded box.  The two ideals must share a Hilbert
    function.
    """
    classes = brute_active_classes(M, N, g)
    maps = []

    def rec(i, assignment):
        if i == len(classes):
            if brute_arrow_check(M, N, g, dict(assignment)):
                maps.append(dict(assignment))
            return
        _, mm, nn = classes[i]
        for perm in permutations(range(len(nn))):
            rec(i + 1, assignment + [(m, nn[k]) for m, k in zip(mm, perm)])

    rec(0, [])
    return maps


def _recursive_divisor_bound(m, rows, dist):
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


def recursive_arrow_search(M, N, g, classes, limit):
    """The arrow-map search as nested generators, one frame per monomial.

    The reference for the enumeration order of ``arrows._search``: classes
    by increasing weight, each class of M largest first, each candidate of
    N largest first.
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
            cap_m = _recursive_divisor_bound(m, rows_m, dist_m)
            for v in mons_n:
                if v in used:
                    continue
                if v[1] > m[1]:
                    continue
                # one class, v[1] <= m[1]: each shift lowers y by alpha
                d = (m[1] - v[1]) // g.alpha
                if cap_m is not None and d > cap_m:
                    continue
                cap_n = _recursive_divisor_bound(v, rows_n, dist_n)
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


def grevlex_key(exps):
    """Grevlex sort key written out afresh: degree, then the reversed
    exponents negated, so the smaller last exponent wins a tie."""
    return (sum(exps), [-e for e in reversed(exps)])


def lead_term(p):
    """(exponents, coefficient) of the grevlex-largest term of nonzero p,
    found by scanning its terms with ``grevlex_key``."""
    e = max(p.terms, key=grevlex_key)
    return e, p.terms[e]


def monic(p):
    """p divided by its lead coefficient; p itself when that is 1."""
    c = lead_term(p)[1]
    if c == 1:
        return p
    return p.scale(1 / Fraction(c))


def total_degree(p):
    """The largest degree of a term of p; -1 for the zero polynomial."""
    return max((sum(e) for e in p.terms), default=-1)


def brute_normal_form(f, basis, char=0):
    """The plain division loop: each step scans the work dict with ``max``.

    Reducer leads are found by scanning their terms too.  With a prime
    ``char`` every coefficient is taken mod char, and the basis must be
    monic mod char.  Returns the remainder, the number of reduction steps,
    and how many times a term that had cancelled out of the work dict
    entered it again.
    """
    def coeff(c):
        if char:
            return c.numerator * pow(c.denominator, -1, char) % char
        return c

    ring = f.ring
    leads = [max(g.terms, key=grevlex_key) for g in basis]
    work = {e: r for e, c in f.terms.items() if (r := coeff(c))}
    rem = {}
    steps = recreated = 0
    cancelled = set()
    while work:
        e = max(work, key=grevlex_key)
        c = work.pop(e)
        for lead, g in zip(leads, basis):
            if all(a <= b for a, b in zip(lead, e)):
                steps += 1
                shift = [a - b for a, b in zip(e, lead)]
                for e2, c2 in g.terms.items():
                    if e2 == lead:
                        continue
                    e3 = tuple(a + b for a, b in zip(e2, shift))
                    c3 = coeff(work.get(e3, 0) - c * coeff(c2))
                    if c3:
                        recreated += e3 in cancelled and e3 not in work
                        work[e3] = c3
                    elif e3 in work:
                        del work[e3]
                        cancelled.add(e3)
                break
        else:
            rem[e] = c
    return ring.poly(rem), steps, recreated


def mirrored_significant_arrows(M, g):
    """Significant arrows as two loops, the negative one mirroring the other.

    Returns (positive, negative), ordered by generator index, then by step
    1, 2, ... or -1, -2, ....
    """
    gens = M.gens
    e = len(gens) - 1
    positive = []
    for i in range(1, e + 1):
        ai, bi = gens[i]
        wi = (gens[i - 1][0], bi)
        for l in range(1, bi // g.alpha + 1):
            target = g.shift((ai, bi), l)
            hop = g.shift(wi, l)
            if target is None or hop is None:
                continue
            if not M.contains(target) and M.contains(hop):
                positive.append((i, l))
    negative = []
    for i in range(0, e):
        ai, bi = gens[i]
        w_next = (ai, gens[i + 1][1])
        for k in range(1, ai // g.beta + 1):
            target = g.shift((ai, bi), -k)
            hop = g.shift(w_next, -k)
            if target is None or hop is None:
                continue
            if not M.contains(target) and M.contains(hop):
                negative.append((i, -k))
    return tuple(positive), tuple(negative)


def hook_tangent_weights(M):
    """Tangent weight vectors at a partition ideal, from arm/leg statistics.

    Calibrated against the explicit module maps on <x^3, y>: the deformation
    sending the y generator to x^i has weight (i, -1) and the one sending
    x^3 to x^i has weight (i-3, 0), which per cell reads (arm, -(leg+1)) and
    (-(arm+1), leg).
    """
    parts = M.rows
    weights = []
    for j, length in enumerate(parts):
        for i in range(length):
            arm = length - 1 - i
            leg = sum(1 for jj in range(j + 1, len(parts)) if parts[jj] > i)
            weights.append((arm, -(leg + 1)))
            weights.append((-(arm + 1), leg))
    return weights


def hook_count_for_grading(M, g, positive):
    """How many tangent weights are parallel to the grading direction."""
    count = 0
    for (wx, wy) in hook_tangent_weights(M):
        # positive arrows have weight l*(beta, -alpha) with l > 0
        if wx * g.alpha + wy * g.beta != 0:
            continue
        if positive and wx > 0:
            count += 1
        if not positive and wx < 0:
            count += 1
    return count


def partition_count(d):
    """Euler recurrence for the number of partitions."""
    table = [1] + [0] * d
    for part in range(1, d + 1):
        for total in range(part, d + 1):
            table[total] += table[total - part]
    return table[d]


def trial_division_is_prime(n):
    """Primality by trial division up to the square root."""
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def membership_certificate(f, gens, max_degree):
    """Cofactors h_i with f = sum h_i g_i and deg(h_i g_i) <= max_degree.

    Returns the cofactor list, re-verified by direct expansion, or None when
    no certificate exists up to the degree cap.
    """
    ring = f.ring
    columns = []
    tags = []
    for gi, gen in enumerate(gens):
        room = max_degree - total_degree(gen)
        if room < 0:
            continue
        for u in _monomials_up_to(ring.nvars, room):
            columns.append(gen * ring.poly({u: 1}))
            tags.append((gi, u))
    mono_index = {}
    for col in columns + [f]:
        for e in col.terms:
            mono_index.setdefault(e, len(mono_index))
    rows = len(mono_index)
    matrix = [[Fraction(0)] * (len(columns) + 1) for _ in range(rows)]
    for ci, col in enumerate(columns):
        for e, c in col.terms.items():
            matrix[mono_index[e]][ci] = Fraction(c)
    for e, c in f.terms.items():
        matrix[mono_index[e]][-1] = Fraction(c)
    solution = _solve(matrix, len(columns))
    if solution is None:
        return None
    cofactors = [ring.zero() for _ in gens]
    for (gi, u), value in zip(tags, solution):
        if value:
            cofactors[gi] = cofactors[gi] + ring.poly({u: value})
    total = ring.zero()
    for h, gen in zip(cofactors, gens):
        total = total + h * gen
    assert total == f, "certificate failed to expand back"
    return cofactors


def _monomials_up_to(nvars, degree):
    if nvars == 0:
        return [()]
    out = []

    def rec(prefix, rest):
        if len(prefix) == nvars - 1:
            for e in range(rest + 1):
                out.append(tuple(prefix) + (e,))
            return
        for e in range(rest + 1):
            rec(prefix + [e], rest - e)

    rec([], degree)
    return out


def _solve(matrix, ncols):
    """Gaussian elimination for Ax = b given as rows [A | b]."""
    rows = [row[:] for row in matrix]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][-1]:
            return None
    solution = [Fraction(0)] * ncols
    for row, c in zip(rows, pivots):
        solution[c] = row[-1]
    return solution


class QuadExt:
    """The field extending the rationals by a square root of D."""

    D = 5

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def _lift(self, other):
        return other if isinstance(other, QuadExt) else QuadExt(other)

    def __add__(self, other):
        o = self._lift(other)
        return QuadExt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return QuadExt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return QuadExt(self.a * o.a + self.D * self.b * o.b,
                       self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        norm = o.a * o.a - self.D * o.b * o.b
        return self * QuadExt(o.a / norm, -o.b / norm)

    def __pow__(self, k):
        out = QuadExt(1)
        for _ in range(k):
            out = out * self
        return out

    def __neg__(self):
        return QuadExt(-self.a, -self.b)

    def __eq__(self, other):
        o = self._lift(other)
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return bool(self.a or self.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"({self.a}+{self.b}*sqrt{self.D})"


def gf(p):
    """A tiny prime field with operator syntax, for slice computations."""

    class Fp:
        modulus = p

        def __init__(self, value):
            self.value = value % p

        def _lift(self, other):
            return other if isinstance(other, Fp) else Fp(other)

        def __add__(self, other):
            return Fp(self.value + self._lift(other).value)

        __radd__ = __add__

        def __sub__(self, other):
            return Fp(self.value - self._lift(other).value)

        def __rsub__(self, other):
            return self._lift(other) - self

        def __mul__(self, other):
            return Fp(self.value * self._lift(other).value)

        __rmul__ = __mul__

        def __truediv__(self, other):
            o = self._lift(other)
            return Fp(self.value * pow(o.value, -1, p))

        def __pow__(self, k):
            return Fp(pow(self.value, k, p))

        def __neg__(self):
            return Fp(-self.value)

        def __eq__(self, other):
            return self.value == self._lift(other).value

        def __bool__(self):
            return self.value != 0

        def __hash__(self):
            return hash((p, self.value))

        def __repr__(self):
            return f"{self.value} (mod {p})"

    return Fp


def random_ideal(d, rng):
    from tgraph.monomial import enumerate_ideals

    pool = enumerate_ideals(d)
    return pool[rng.randrange(len(pool))]


def random_grading(rng, bound=5):
    from math import gcd

    while True:
        a, b = rng.randint(1, bound), rng.randint(1, bound)
        if gcd(a, b) == 1:
            return Grading(a, b)


def sample_two_sided_edges(d, seed=20240811):
    """Edges found by specializing cell coordinates and taking both limits.

    Every reported pair is a genuine edge (a witness ideal with the two
    prescribed limits was exhibited); coverage comes from exhausting zero
    patterns of the cell coordinates with randomized nonzero values.
    """
    from tgraph.assembly import coprime_gradings
    from tgraph.cells import cell_generators_f, significant_arrows
    from tgraph.induced import cell_point, initial_ideal
    from tgraph.monomial import enumerate_ideals

    rng = random.Random(seed)
    vertices = enumerate_ideals(d)
    index = {M: i + 1 for i, M in enumerate(vertices)}
    edges = set()
    for g in coprime_gradings(d):
        for M in vertices:
            arrows = significant_arrows(M, g).positive
            if not arrows:
                continue
            for mask in range(1, 2 ** len(arrows)):
                values = {}
                for k, arrow in enumerate(arrows):
                    if mask >> k & 1:
                        values[arrow] = Fraction(rng.randint(1, 7),
                                                 rng.randint(1, 3))
                rows = cell_point(M, g, values)
                top = initial_ideal(rows, g, d)
                assert top == M
                # the y-smaller limit: exchange x and y, then exchange back
                swapped = [{(b, a): c for (a, b), c in row.items()}
                           for row in rows]
                other = initial_ideal(swapped, g.swap(), d).swap()
                if other != M:
                    pair = tuple(sorted((index[M], index[other])))
                    edges.add(pair)
    return edges


def kernel_normal_form(f, basis, stats=None, char=0):
    """Full remainder of f on division by basis, through the solver's kernel.

    Packs f and the basis, mod a prime ``char`` if given (the basis must then
    be monic mod char), divides with ``groebner._reduce`` and unpacks the
    remainder, adding the reduction steps to ``stats``.  A degree past the
    packed field cap raises BudgetExceeded.
    """
    from tgraph import groebner
    from tgraph.poly import Packing

    ring = f.ring
    packing = Packing(ring.nvars, groebner.FIELD_BITS)
    guards = packing.guards
    reducers = [groebner._reducer(groebner._pack(g, packing, char), guards)
                for g in basis]
    rem, steps = groebner._reduce(groebner._pack(f, packing, char), reducers,
                                  char, guards)
    if steps and stats is not None:
        stats["reduction_steps"] = stats.get("reduction_steps", 0) + steps
    return groebner._unpack(rem, ring, packing)


def top_first(A, B, g):
    """The package's oriented pair when A dominates B, else None."""
    from tgraph.arrows import oriented_pair

    pair = oriented_pair(A, B, g)
    return pair if pair is not None and pair.big is A else None


def extremal_ideals(H, g):
    """Unique top and bottom monomial ideals with Hilbert function H.

    Found by exhaustive comparison, through the package's dominance order,
    among all monomial ideals of the right colength; raises when H is not
    realized.
    """
    from tgraph.monomial import enumerate_ideals, hilbert_function

    d = sum(c for _, c in H)
    pool = [M for M in enumerate_ideals(d) if hilbert_function(M, g) == H]
    if not pool:
        raise ValueError("Hilbert function is not realized by a monomial ideal")
    tops = [M for M in pool
            if all(top_first(M, other, g) for other in pool)]
    bottoms = [M for M in pool
               if all(top_first(other, M, g) for other in pool)]
    if len(tops) != 1 or len(bottoms) != 1:
        raise ValueError("poset of ideals lacks a unique top or bottom")
    return tops[0], bottoms[0]


def _weighted_monomials(weights, t):
    """Exponent tuples of weighted degree t, by a search over a box."""
    return [m for m in product(*(range(t // w + 1) for w in weights))
            if sum(w * e for w, e in zip(weights, m)) == t]


def sorted_degree_classes(nvars, weights, c, degrees):
    """The chain partition as first written, one sorted pass per degree.

    The reference for the chains and their order in
    ``general.degree_classes``.  The body is that function's earlier one,
    with this module's box search in place of the package's monomial list.
    It never returns on a zero direction.
    """
    classes = []
    for t in degrees:
        mons = set(_weighted_monomials(weights, t))
        seen = set()
        for m in sorted(mons):
            if m in seen:
                continue
            top = m
            while True:
                up = tuple(a - b for a, b in zip(top, c))
                if any(x < 0 for x in up) or up not in mons:
                    break
                top = up
            chain = [top]
            while True:
                down = tuple(a + b for a, b in zip(chain[-1], c))
                if any(x < 0 for x in down) or down not in mons:
                    break
                chain.append(down)
            seen.update(chain)
            classes.append(tuple(chain))
    return classes


def from_saturation(linear, quad):
    """Degree-two truncation of <x_linear, quad>: a two-points fixed ideal."""
    from tgraph.general import NMonomialIdeal

    gens = []
    for i in range(3):
        e = [0, 0, 0]
        e[linear] += 1
        e[i] += 1
        gens.append(tuple(e))
    gens.append(tuple(quad))
    gens = [g for g in gens
            if not any(h != g and all(a <= b for a, b in zip(h, g))
                       for h in gens)]
    return NMonomialIdeal(3, tuple(sorted(set(gens))), (1, 1, 1))


def permute(ideal, perm):
    """Relabel variables: position i receives old variable perm[i]."""
    from tgraph.general import NMonomialIdeal

    gens = tuple(tuple(g[perm[i]] for i in range(ideal.nvars))
                 for g in ideal.gens)
    weights = tuple(ideal.weights[perm[i]] for i in range(ideal.nvars))
    return NMonomialIdeal(ideal.nvars, gens, weights)


def both_ways_orientation(vertices, directions, degrees):
    """Every vertex pair along every direction, positions compared both ways.

    The two-points graph's orientation as first written, with no count
    filter: pairs in ``combinations`` order, then directions, each asking
    ``general.class_dominates`` one way and then the other, on the chain
    positions a ``general.ChainWindow`` on `degrees` gives.  Returns the
    oriented cases as (i, j, c, big), big the dominating vertex's index.
    """
    from tgraph.general import ChainWindow, class_dominates

    positions = {c: ChainWindow(vertices, c, degrees).positions
                 for c in directions}
    out = []
    for i, j in combinations(range(len(vertices)), 2):
        for c in directions:
            pos_i = positions[c][vertices[i]]
            pos_j = positions[c][vertices[j]]
            if class_dominates(pos_i, pos_j):
                out.append((i, j, c, i))
            elif class_dominates(pos_j, pos_i):
                out.append((i, j, c, j))
    return out


def journal_lines(directory):
    """Every line of the edge-cache journals in ``directory``, as bytes.

    Journals (``*.jsonl``) are read in name order, each line with its
    newline if it has one; the format is read here from the outside, not
    through ``EdgeCache``.
    """
    return [line for path in sorted(pathlib.Path(directory).glob("*.jsonl"))
            for line in path.read_bytes().splitlines(keepends=True)]


def journal_record(line):
    """The record JSON of one journal line ``<digest>\\t<json>\\n``."""
    return json.loads(line.partition(b"\t")[2])


def rewrite_journal(directory, edit):
    """Replace the one journal's lines by ``edit(lines)``; return the old."""
    (path,) = pathlib.Path(directory).glob("*.jsonl")
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(edit(lines)))
    return lines
