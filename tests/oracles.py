"""Independent oracles used to validate the package from the outside.

Nothing here calls the code paths it checks: arrow-map conditions are tested
literally over a padded box, tangent weights come from arm/leg statistics of
the partition, ideal membership is certified by explicit cofactors, and small
fields are implemented from scratch for the slice computations.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
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


def grevlex_key(exps):
    """Grevlex sort key written out afresh: degree, then the reversed
    exponents negated, so the smaller last exponent wins a tie."""
    return (sum(exps), [-e for e in reversed(exps)])


def brute_normal_form(f, basis):
    """The plain division loop: each step scans the work dict with ``max``.

    Reducer leads are found by scanning their terms too.  Returns the
    remainder, the number of reduction steps, and how many times a term
    that had cancelled out of the work dict entered it again.
    """
    ring = f.ring
    leads = [max(g.terms, key=grevlex_key) for g in basis]
    work = dict(f.terms)
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
                    c3 = ring.coeff(work.get(e3, 0) - c * c2)
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


def hook_tangent_weights(M):
    """Tangent weight vectors at a partition ideal, from arm/leg statistics.

    Calibrated against the explicit module maps on <x^3, y>: the deformation
    sending the y generator to x^i has weight (i, -1) and the one sending
    x^3 to x^i has weight (i-3, 0), which per cell reads (arm, -(leg+1)) and
    (-(arm+1), leg).
    """
    parts = M.to_partition()
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
        room = max_degree - gen.total_degree()
        if room < 0:
            continue
        for u in _monomials_up_to(ring.nvars, room):
            columns.append(gen.mul_term(u, 1))
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
