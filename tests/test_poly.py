import random
from fractions import Fraction

import pytest

from tgraph import groebner
from tgraph.groebner import buchberger
from tgraph.poly import ArrowVar, Packing, Poly, Ring, arrow_ring

from oracles import grevlex_key, trial_division_is_prime

A = ArrowVar(0, 1, 1)
B = ArrowVar(0, 2, 1)
C = ArrowVar(1, 1, 2)


def ring():
    return Ring((A, B, C))


def test_add_negate_cancels():
    r = ring()
    p = r.var(A) * r.var(B) + r.constant(3)
    assert not p + (-p)
    assert p - p == r.zero()


def test_onto_reorders_the_variables():
    r = ring()
    p = r.var(A) * r.var(C) * r.var(C) - r.var(B).scale(3)
    back = Ring((C, B, A))
    q = p.onto(back)
    assert q == back.var(A) * back.var(C) * back.var(C) - back.var(B).scale(3)
    assert q.onto(r) == p
    for other in (Ring((A, B)), Ring((A, B, ArrowVar(1, 2, 1)))):
        with pytest.raises(ValueError):
            p.onto(other)


def test_difference_of_squares():
    r = ring()
    a, b = r.var(A), r.var(B)
    assert (a + b) * (a - b) == a * a - b * b


def test_scale_and_mul_term():
    r = ring()
    p = r.var(A) + r.constant(2)
    assert not p.scale(0)
    q = p * r.poly({(0, 1, 0): 3})
    assert q == r.poly({(1, 1, 0): 3, (0, 1, 0): 6})


def test_lead_and_monic_grevlex():
    # leads exist only in the solver: a single generator is its own reduced
    # basis, made monic by its lead coefficient
    r = ring()
    p = r.poly({(2, 0, 0): 2, (1, 1, 0): 5, (0, 0, 0): 1})
    gb = buchberger([p])
    # same total degree: the smaller last exponent wins under grevlex
    assert gb.leads == [(2, 0, 0)]
    (g,) = gb.generators
    assert g.terms[(2, 0, 0)] == 1
    assert g.terms[(0, 0, 0)] == Fraction(1, 2)


def test_str_canonical():
    r = ring()
    p = r.var(A) * r.var(A) - r.var(B).scale(3) + r.constant(1)
    assert str(p) == "c1^1**2 - 3*c2^1 + 1"
    assert str(r.zero()) == "0"
    assert str(-r.var(C)) == "-ct1^2"


def test_evaluation_order_deterministic():
    r = ring()
    p = r.var(A) + r.var(B) + r.var(C)
    assert [r.term_label(e) for e, _ in p.sorted_terms()] == [
        "c1^1", "c2^1", "ct1^2"]


def test_charp_ring():
    # a ring has no characteristic: the solver reduces coefficients mod p
    # as it packs the generators
    r = Ring((A, B))
    a, b = r.var(A), r.var(B)
    p = r.poly({(1, 0): 7, (0, 1): 5})
    assert buchberger([p], char=5).generators == [a]
    assert not buchberger([r.constant(Fraction(1, 2)) - r.constant(3)],
                          char=5).generators
    with pytest.raises(ZeroDivisionError):
        buchberger([r.constant(Fraction(1, 5))], char=5)
    # a term, or a whole generator, that vanishes mod p is dropped
    assert buchberger([a.scale(2) + b], char=2).generators == [b]
    assert buchberger([a.scale(2)], char=2).generators == []
    with pytest.raises(ZeroDivisionError):
        buchberger([a.scale(Fraction(1, 2)) + b], char=2)


def test_composite_characteristic_is_rejected(monkeypatch):
    gens = [Ring((A, B)).var(A)]
    for char in (-3, 1, 4, 6, 8, 9):
        with pytest.raises(ValueError):
            buchberger(gens, char=char)
    assert buchberger(gens, char=2).generators == gens
    # characteristic zero, the solver's hot case, runs no primality test
    monkeypatch.setattr(groebner, "_is_prime", None)
    assert buchberger(gens).generators == gens


def test_primality_matches_trial_division():
    assert [n for n in range(-5, 20000) if groebner._is_prime(n)] == [
        n for n in range(-5, 20000) if trial_division_is_prime(n)]
    assert groebner._is_prime(2 ** 31 - 1) and groebner._is_prime(2 ** 61 - 1)
    # a Carmichael number and strong pseudoprimes to the bases 2, 3, 5, 7
    # (3215031751) and 2 to 23 (3825123056546413051)
    for n in (561, 3215031751, 3825123056546413051):
        assert not groebner._is_prime(n)
    assert groebner._is_prime(2 ** 64 - 59)
    with pytest.raises(ValueError, match=r"2\*\*64"):
        buchberger([], char=2 ** 64 + 13)


def test_arrow_ring_order():
    r = arrow_ring(((2, 1), (1, 1)), ((1, 2),))
    assert [v.label() for v in r.vars] == ["c1^1", "c2^1", "ct1^2"]


def random_exponents(rng, nvars, degree):
    """An exponent vector of the given degree; often all of it sits on one
    variable, so exponents at the field cap come up."""
    if rng.random() < 0.3:
        exps = [0] * nvars
        exps[rng.randrange(nvars)] = degree
        return tuple(exps)
    cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))


@pytest.mark.parametrize("width", [1, 2, 3, 5, groebner.FIELD_BITS])
def test_packing_matches_the_grevlex_key(width):
    rng = random.Random(20261018 + width)
    for nvars in range(1, 11):
        packing = Packing(nvars, width)
        cap, guards = packing.cap, packing.guards
        pack = packing.pack
        zero = pack((0,) * nvars)
        for _ in range(60):
            a = random_exponents(rng, nvars, rng.choice((0, cap,
                                                         rng.randint(0, cap))))
            b = random_exponents(rng, nvars, rng.randint(0, cap - sum(a)))
            c = random_exponents(rng, nvars, rng.randint(0, cap))
            ab = tuple(x + y for x, y in zip(a, b))
            pa, pb, pc, pab = pack(a), pack(b), pack(c), pack(ab)
            assert packing.unpack(pa) == a
            assert packing.unpack(pab) == ab
            assert pa + pb - zero == pab and packing.zero == zero
            for u, v, pu, pv in ((a, ab, pa, pab), (b, ab, pb, pab),
                                 (a, c, pa, pc), (c, a, pc, pa),
                                 (ab, a, pab, pa)):
                assert (pu < pv) == (Ring.key(u) < Ring.key(v))
                assert (pu == pv) == (u == v)
                divides = ((pu | guards) - pv) & guards == guards
                assert divides == all(x <= y for x, y in zip(u, v))
                assert not divides or pu <= pv
                # the lcm's degree may pass the cap, up to twice it
                assert packing.lcm(pu, pv) == pack(tuple(map(max, u, v)))
