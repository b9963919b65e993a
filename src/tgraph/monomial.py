"""Monomials, gradings, and finite-colength monomial ideals in k[x,y].

Monomials are bare exponent pairs ``(a, b)`` standing for x^a*y^b.  A grading
is a coprime positive pair (alpha, beta) with deg x = alpha and deg y = beta.
Two monomials lie in the same degree class exactly when their weights
alpha*a + beta*b agree, and each class is a finite chain under the shift
r = x^beta * y^-alpha.

An ideal is represented by its staircase rows, ``MonomialIdeal2.rows``: row b
holds the standard monomials x^a*y^b with a < rows[b], and every row from
``be`` on is empty.  Membership, the Hilbert function, the box quotient and
the arrow layer's active classes all read these thresholds instead of
building the set of standard monomials.  Derived ideals (enumerated, box
quotients, swaps) are built from rows; the validating constructor runs only
on outside input, in ``generated_ideal``, and outside text is read by one
grammar: ``1``, or factors ``x^a`` and ``y^b`` joined by ``*``.

Every layer of the package orders a class the x-smaller way: of two
monomials in one class, the larger is the one with the larger y-exponent.
The y-smaller order is that order after exchanging x and y, which is what
``MonomialIdeal2.swap`` and ``Grading.swap`` do.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd

Mono = tuple  # (a, b) exponent pair


@dataclass(frozen=True)
class Grading:
    """Coprime positive weights (alpha, beta) for deg x, deg y."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha < 1 or self.beta < 1:
            raise ValueError("grading weights must be positive")
        if gcd(self.alpha, self.beta) != 1:
            raise ValueError("grading weights must be coprime")

    def weight(self, m):
        return self.alpha * m[0] + self.beta * m[1]

    def shift(self, m, steps):
        """m * r^steps, or None when the result is not a monomial."""
        a = m[0] + steps * self.beta
        b = m[1] - steps * self.alpha
        if a < 0 or b < 0:
            return None
        return (a, b)

    def distance(self, m, m2):
        """Number of r-shifts between two monomials of equal weight.

        Equal weights give alpha*(a - a2) = beta*(b2 - b), and alpha is prime
        to beta, so beta divides the difference of the x-exponents exactly.
        """
        if self.alpha * (m[0] - m2[0]) != self.beta * (m2[1] - m[1]):
            raise ValueError(f"monomials {m} and {m2} are not in one degree class")
        return abs(m[0] - m2[0]) // self.beta

    def monomials_of_weight(self, w):
        """All monomials of weight w, ordered by increasing y-exponent.

        alpha divides w - beta*b exactly when b is w/beta mod alpha, so the
        y-exponents form one residue class, stepped through directly.
        """
        alpha, beta = self.alpha, self.beta
        first = w * pow(beta, -1, alpha) % alpha
        return [((w - beta * b) // alpha, b)
                for b in range(first, w // beta + 1, alpha)]

    def swap(self):
        return Grading(self.beta, self.alpha)


@dataclass(frozen=True)
class MonomialIdeal2:
    """Finite-colength monomial ideal in k[x,y], by sorted minimal generators.

    Generators are stored with strictly increasing y-exponent and strictly
    decreasing x-exponent; the first is a pure x power and the last a pure
    y power, so the quotient is finite dimensional.

    ``rows`` is the representation every layer reads: a weakly decreasing
    tuple of length ``be`` whose entry b is the least x-exponent in the
    ideal on row b, so x^a*y^b is standard exactly when b < be and
    a < rows[b].  It is the partition of the ideal, and its sum is
    ``colength``.
    """

    gens: tuple

    def __post_init__(self):
        gens = tuple((int(a), int(b)) for a, b in self.gens)
        object.__setattr__(self, "gens", gens)
        if not gens:
            raise ValueError("empty generator list")
        for (a, b), (a2, b2) in zip(gens, gens[1:]):
            if not (a > a2 and b < b2):
                raise ValueError(f"generators not a sorted minimal staircase: {gens}")
        if any(a < 0 or b < 0 for a, b in gens):
            raise ValueError("negative exponent in generator")
        if gens[0][1] != 0 or gens[-1][0] != 0:
            raise ValueError("infinite colength: pure powers of x and y required")
        rows = []
        for (a, b), (_, b2) in zip(gens, gens[1:]):
            rows.extend([a] * (b2 - b))
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "colength", sum(rows))

    @classmethod
    def _from_rows(cls, rows):
        """Build from rows already known to be a partition, without checks.

        The generators sit at the corners of the staircase: x^t*y^b for
        each row b whose threshold t drops below the row before, and y^be.
        Empty rows give the unit ideal, generated by 1.
        """
        gens = [(t, b) for b, t in enumerate(rows)
                if b == 0 or t < rows[b - 1]]
        gens.append((0, len(rows)))
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "gens", tuple(gens))
        object.__setattr__(ideal, "rows", rows)
        object.__setattr__(ideal, "colength", sum(rows))
        return ideal

    @property
    def a0(self):
        return self.gens[0][0]

    @property
    def be(self):
        return self.gens[-1][1]

    def contains(self, m):
        a, b = m
        if a < 0 or b < 0:
            return False
        if b >= self.be:
            return True
        return a >= self.rows[b]

    def standard_monomials(self):
        """All monomials outside the ideal; their count is the colength."""
        return tuple(
            (a, b) for b, t in enumerate(self.rows) for a in range(t)
        )

    def j_index(self, m):
        """Largest generator index dividing m."""
        a, b = m
        for j in range(len(self.gens) - 1, -1, -1):
            ga, gb = self.gens[j]
            if ga <= a and gb <= b:
                return j
        raise ValueError(f"{format_monomial(m)} is not in the ideal")

    def swap(self):
        """The image under exchanging x and y: the conjugate partition."""
        return self._from_rows(
            tuple(sum(t > a for t in self.rows) for a in range(self.a0)))

    def __str__(self):
        return format_ideal(self)

    def __repr__(self):
        return f"MonomialIdeal2({self.gens!r})"


def hilbert_function(M, g):
    """Count standard monomials of M per degree class, row by row.

    Row b contributes the weights beta*b + alpha*a for a < rows[b].  Returns
    the nonzero counts as a sorted tuple ``((weight, count), ...)``.
    """
    counts = {}
    for b, t in enumerate(M.rows):
        w = g.beta * b
        for x in range(w, w + g.alpha * t, g.alpha):
            counts[x] = counts.get(x, 0) + 1
    return tuple(sorted(counts.items()))


def colon_box(box, M):
    """Quotient of the complete-intersection box ideal <x^r1, y^r2> by M.

    The box exponents must satisfy x^r1, y^r2 in M.  The result is again a
    finite-colength monomial ideal, of colength r1*r2 - colength(M).  Its
    rows are M's rows reflected in the box: row b of the quotient has
    threshold r1 - rows[r2 - 1 - b], where M's rows from ``be`` on are 0.
    """
    r1, r2 = box
    if r1 < M.a0 or r2 < M.be:
        raise ValueError(f"box ({r1},{r2}) does not contain the pure powers of {M}")
    thr = [r1] * (r2 - M.be) + [r1 - t for t in reversed(M.rows)]
    while thr and thr[-1] == 0:
        thr.pop()
    return MonomialIdeal2._from_rows(tuple(thr))


def minimal_box(M, N):
    """Smallest box ideal containing the pure-power generators of both."""
    return (max(M.a0, N.a0), max(M.be, N.be))


def partitions(d):
    """All partitions of d, in decreasing lexicographic order of parts."""
    def below(n, largest):
        if n == 0:
            yield ()
        for first in range(min(n, largest), 0, -1):
            for rest in below(n - first, first):
                yield (first, *rest)
    return below(d, d)


def enumerate_ideals(d):
    """All monomial ideals of colength d, one per partition, deterministic."""
    if d < 1:
        raise ValueError("colength must be at least 1")
    return [MonomialIdeal2._from_rows(p) for p in partitions(d)]


_FACTOR = re.compile(r"([xy])(?:\^(\d+))?")
_MONOMIAL = re.compile(rf"1|{_FACTOR.pattern}(?:\*{_FACTOR.pattern})*")


def parse_monomial(text):
    """Parse "x^a*y^b" style text ("1" for the unit monomial)."""
    s = text.strip()
    if not _MONOMIAL.fullmatch(s):
        raise ValueError(f"not a monomial: {text!r}")
    factors = _FACTOR.findall(s)
    return tuple(sum(int(e or 1) for v, e in factors if v == w) for w in "xy")


def format_monomial(m):
    a, b = m
    parts = []
    if a == 1:
        parts.append("x")
    elif a > 1:
        parts.append(f"x^{a}")
    if b == 1:
        parts.append("y")
    elif b > 1:
        parts.append(f"y^{b}")
    return "*".join(parts) if parts else "1"


def parse_ideal(text):
    """Parse "<x^5, x^3*y^2, y^4>" into a MonomialIdeal2."""
    s = text.strip()
    if not (s.startswith("<") and s.endswith(">")):
        raise ValueError(f"ideal text must be wrapped in <...>: {text!r}")
    body = s[1:-1].strip()
    if not body:
        raise ValueError("empty ideal text")
    return generated_ideal({parse_monomial(part) for part in body.split(",")})


def generated_ideal(monomials):
    """The ideal a set of monomials generates, by its minimal generators.

    Sorted by decreasing x-exponent they form a staircase; the validating
    constructor raises ValueError unless its colength is finite.
    """
    minimal = [m for m in monomials
               if not any(u != m and u[0] <= m[0] and u[1] <= m[1]
                          for u in monomials)]
    return MonomialIdeal2(tuple(sorted(minimal, reverse=True)))


def format_ideal(M):
    return "<" + ", ".join(format_monomial(m) for m in M.gens) + ">"
