"""Sparse multivariate polynomials over exact coefficients in arrow variables.

Coefficients are Python ints, or Fractions, which the package makes only
when the Groebner solver divides a reduced basis element by a lead
coefficient that is not 1: the arithmetic is exact, over the rationals.  A
ring has no characteristic; the solver takes one as an argument and reduces
coefficients mod p as it packs its generators.  Exponent vectors are tuples
indexed by the ring's fixed variable list; the monomial order is graded
reverse lexicographic over that list, with ``Ring.key`` its one definition,
which printing reads.  ``Packing`` derives the solver's form from that key:
each exponent vector becomes one int whose fields, from the top, are the
degree and then ``cap - e_i`` for the last variable down to the first, so
integer order is the order of ``Ring.key``.  Lead terms exist only in that
packed form, inside the solver.

``add_into`` is the package's one sparse-row update: a row is a dict from
monomials or columns to polynomials or field values, and adding into an entry
drops the entry when it cancels.  ``Poly``'s own sum, difference and product
build their terms through it, as does ``reduce_row``, the one row division,
which gives both edge engines their equations.  A ``Poly`` compares
equal only to a ``Poly`` of the same ring, and is not hashable.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from operator import add, neg, sub


@dataclass(frozen=True, order=True)
class ArrowVar:
    """A cell coordinate: side 0 tracks the first ideal, side 1 the second.

    The natural sort order (side, index, step) is the ring's variable order.
    """

    side: int
    index: int
    step: int

    def label(self):
        prefix = "c" if self.side == 0 else "ct"
        return f"{prefix}{self.index}^{self.step}"


class Ring:
    """A fixed variable list; orders and prints terms."""

    __slots__ = ("vars", "index")

    def __init__(self, variables):
        self.vars = tuple(variables)
        self.index = {v: i for i, v in enumerate(self.vars)}
        if len(self.index) != len(self.vars):
            raise ValueError("duplicate variables")

    @property
    def nvars(self):
        return len(self.vars)

    @staticmethod
    def key(exps):
        """Grevlex sort key; larger key means larger monomial.

        The key determines the exponents, so distinct monomials never tie.
        """
        return (sum(exps), *map(neg, reversed(exps)))

    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        if not c:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, v):
        exps = [0] * self.nvars
        exps[self.index[v]] = 1
        return Poly(self, {tuple(exps): 1})

    def poly(self, terms):
        out = {}
        for exps, c in terms.items():
            if c:
                out[tuple(exps)] = c
        return Poly(self, out)

    def term_label(self, exps):
        factors = []
        for v, e in zip(self.vars, exps):
            if e == 1:
                factors.append(v.label())
            elif e > 1:
                factors.append(f"{v.label()}**{e}")
        return "*".join(factors)


class Packing:
    """Exponent vectors of one length as single ints, for monomials of degree
    at most ``cap``.

    From the top, the fields are the degree, unbounded, and then, last
    variable first, one field of ``width`` bits per variable holding
    ``cap - e_i``, each under a guard bit that a packed monomial keeps clear.
    Integer order is then the order of ``Ring.key``: degree first, then the
    smaller last exponent.  Within the degree cap, a product is
    ``a + b - zero``, with ``zero`` the packed exponent vector 0, and ``a``
    divides ``b`` exactly when ``((a | guards) - b) & guards == guards``: a
    field of ``b`` larger than that of ``a``, i.e. a smaller exponent,
    borrows its guard, and no field borrows from the next.  ``a <= b`` is a
    cheaper necessary test.
    """

    __slots__ = ("nvars", "width", "cap", "shift", "guards", "zero")

    def __init__(self, nvars, width):
        self.nvars = nvars
        self.width = width
        self.cap = (1 << width) - 1
        self.shift = nvars * (width + 1)
        self.guards = sum(1 << (i * (width + 1) + width) for i in range(nvars))
        self.zero = self.pack((0,) * nvars)

    def pack(self, exps):
        m = sum(exps)
        step, cap = self.width + 1, self.cap
        for e in reversed(exps):
            m = (m << step) | (cap - e)
        return m

    def unpack(self, m):
        step, cap = self.width + 1, self.cap
        exps = []
        for _ in range(self.nvars):
            exps.append(cap - (m & cap))
            m >>= step
        return tuple(exps)

    def degree(self, m):
        return m >> self.shift

    def lcm(self, a, b):
        """The packed lcm of two packed monomials; its degree may pass the cap.

        Each field takes the smaller of the two, picked through the guards.
        The fields sit at powers of 2**(width + 1), which are 1 modulo
        2 * cap + 1, so the field sum, and with it the degree, is known
        modulo 2 * cap + 1; the degree is at most 2 * cap.
        """
        guards, width = self.guards, self.width
        low = (1 << self.shift) - 1
        a &= low
        b &= low
        smaller = ((a | guards) - b) & guards
        fields = a ^ ((a ^ b) & (smaller - (smaller >> width)))
        m = 2 * self.cap + 1
        return ((self.nvars * self.cap - fields % m) % m) << self.shift | fields


class Poly:
    """Immutable sparse polynomial bound to a Ring.

    Nothing mutates ``terms`` after construction: every operation builds a
    new dict.  Coefficients are exact: ints, or Fractions from the caller or
    from the solver's monic basis.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring is other.ring and self.terms == other.terms
        return NotImplemented

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            add_into(out, e, c)
        return Poly(self.ring, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            add_into(out, e, -c)
        return Poly(self.ring, out)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, Poly):
            ring = self.ring
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    add_into(out, tuple(map(add, e1, e2)), c1 * c2)
            return Poly(ring, out)
        return self.scale(other)

    def scale(self, c):
        if not c:
            return Poly(self.ring, {})
        return Poly(self.ring, {e: c0 * c for e, c0 in self.terms.items()})

    def sorted_terms(self):
        key = self.ring.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = self.ring.term_label(e)
            if not mono:
                body = str(c if c > 0 else -c)
            else:
                mag = c if c > 0 else -c
                body = mono if mag == 1 else f"{mag}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def add_into(row, key, value):
    """Add value into row[key], dropping the entry when the sum cancels."""
    merged = row[key] + value if key in row else value
    if merged:
        row[key] = merged
    else:
        row.pop(key, None)


def reduce_row(row, ideal, elements):
    """The remainder of a row on division by a family with leads ideal.gens.

    In-ideal monomials go least first, off a heap (a sorted list to start)
    that skips one which has left the row.  Dividing out c*m adds -c times
    x^(m - lead) times the other terms, all larger, of element
    ``ideal.j_index(m)``, whose lead has coefficient one.  Neither the row
    nor the elements change.
    """
    work = dict(row)
    contains = ideal.contains
    inside = sorted(m for m in work if contains(m))
    while inside:
        m = heappop(inside)
        if m not in work:
            continue
        c = -work.pop(m)
        j = ideal.j_index(m)
        lead = ideal.gens[j]
        shift = tuple(map(sub, m, lead))
        for u, p in elements[j].items():
            if u != lead:
                v = tuple(map(add, u, shift))
                if v not in work and contains(v):
                    heappush(inside, v)
                add_into(work, v, c * p)
    return work


def arrow_ring(m_arrows, n_arrows=()):
    """Ring over the joint arrow coordinates, first ideal's variables first."""
    variables = [ArrowVar(0, i, l) for i, l in sorted(m_arrows)]
    variables += [ArrowVar(1, i, l) for i, l in sorted(n_arrows)]
    return Ring(variables)
