from fractions import Fraction

import pytest

from tgraph.induced import (cell_point, induced_arrow_map, initial_ideal,
                            rref, specialize)
from tgraph.monomial import (Grading, format_ideal, format_monomial,
                             parse_ideal, parse_monomial)

from oracles import QuadExt, gf

G11 = Grading(1, 1)


def quartic_pencil():
    return [{(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(2)},
            {(0, 4): Fraction(1)}]


@pytest.fixture
def rref_calls(monkeypatch):
    """A list that grows by one entry per ``induced.rref`` call."""
    import tgraph.induced

    calls = []
    real = tgraph.induced.rref

    def counted(rows, columns):
        calls.append(1)
        return real(rows, columns)

    monkeypatch.setattr(tgraph.induced, "rref", counted)
    return calls


def test_two_limits_of_the_quartic_pencil():
    M, N, witness = induced_arrow_map(quartic_pencil(), G11, 8)
    assert format_ideal(M) == "<x^4, y^2>"
    assert format_ideal(N) == "<x^2, y^4>"
    moved = {format_monomial(a): format_monomial(b)
             for a, b in witness.moved_pairs()}
    assert moved == {"y^2": "x^2", "y^3": "x^2*y", "x*y^2": "x^3",
                     "x*y^3": "x^2*y^2", "x^2*y^2": "x^3*y"}


def test_initial_ideal_reduces_each_weight_once(rref_calls):
    M = initial_ideal(quartic_pencil(), G11, 8)
    assert format_ideal(M) == "<x^4, y^2>"
    # one slice per weight 0 .. (alpha + beta) * colength bound
    assert len(rref_calls) == (G11.alpha + G11.beta) * 8 + 1


def test_induced_map_reuses_the_initial_slices(rref_calls):
    induced_arrow_map(quartic_pencil(), G11, 8)
    # 17 slices for each initial ideal, then one opposite-side reduction
    # per member of an active class (7 of them); no slice is reduced twice
    assert len(rref_calls) == 2 * 17 + 7


def test_quartic_pencil_slice_content():
    # the slice member x*y^3 + x^2*y^2/2 pins the image of x*y^3 one step
    # down the chain (no slice member leads with x*y^3 and ends lower)
    from tgraph.induced import _desc, _slice_rows

    rows = _slice_rows(quartic_pencil(), G11, 4)
    columns = _desc(G11.monomials_of_weight(4))
    piv = rref(rows, columns)
    assert piv[parse_monomial("x*y^3")] == {
        parse_monomial("x*y^3"): 1, parse_monomial("x^3*y"): Fraction(-1, 2)}
    assert piv[parse_monomial("x^2*y^2")] == {
        parse_monomial("x^2*y^2"): 1, parse_monomial("x^3*y"): 1}
    combined = dict(piv[parse_monomial("x*y^3")])
    for m, c in piv[parse_monomial("x^2*y^2")].items():
        combined[m] = combined.get(m, Fraction(0)) + Fraction(1, 2) * c
    combined = {m: c for m, c in combined.items() if c}
    assert combined == {parse_monomial("x*y^3"): Fraction(1),
                        parse_monomial("x^2*y^2"): Fraction(1, 2)}


def test_monomial_ideal_induces_identity():
    gens = [{(4, 0): Fraction(1)}, {(0, 2): Fraction(1)}]
    M, N, witness = induced_arrow_map(gens, G11, 8)
    assert M == N == parse_ideal("<x^4, y^2>")
    assert witness.moved_pairs() == ()


def test_edge_points_induce_the_chained_map():
    # points on the edge equations for the colength-10 pair live over the
    # field extending the rationals by sqrt(5); both roots give one map
    for sign in (1, -1):
        root = QuadExt(Fraction(3, 2), Fraction(sign, 2))  # (3 +- sqrt5)/2
        a = QuadExt(1)
        b = root
        d = QuadExt(1) / b
        c = a * d
        assert a ** 4 - a * a * b * 3 + b * b == QuadExt(0)
        gens = [{(0, 2): QuadExt(1), (1, 1): a, (2, 0): b},
                {(5, 0): QuadExt(1)}]
        M, N, witness = induced_arrow_map(gens, G11, 10)
        assert format_ideal(M) == "<x^5, y^2>"
        assert format_ideal(N) == "<x^2, y^5>"
        moved = {format_monomial(x): format_monomial(y)
                 for x, y in witness.moved_pairs()}
        assert moved["x*y^4"] == "x^2*y^3"
        assert moved["x^2*y^3"] == "x^3*y^2"
        assert moved["x^3*y^2"] == "x^4*y"
        # consistency: the second family of generators gives the same ideal
        gens2 = [{(0, 5): QuadExt(1)},
                 {(2, 0): QuadExt(1), (1, 1): c, (0, 2): d}]
        M2, N2, witness2 = induced_arrow_map(gens2, G11, 10)
        assert (M2, N2) == (M, N)
        assert witness2.moved_pairs() == witness.moved_pairs()


def test_edge_points_over_a_prime_field():
    # 5 is a square mod 11, so the same point exists over that field
    Fp = gf(11)
    b = Fp((3 + 4) * pow(2, -1, 11))
    a = Fp(1)
    d = Fp(1) / b
    assert a ** 4 - a * a * b * 3 + b * b == Fp(0)
    gens = [{(0, 2): Fp(1), (1, 1): a, (2, 0): b}, {(5, 0): Fp(1)}]
    M, N, witness = induced_arrow_map(gens, G11, 10)
    assert format_ideal(M) == "<x^5, y^2>"
    assert format_ideal(N) == "<x^2, y^5>"
    moved = {format_monomial(x): format_monomial(y)
             for x, y in witness.moved_pairs()}
    assert moved["x^2*y^3"] == "x^3*y^2"


def test_rejects_non_cell_points():
    # inhomogeneous generators are refused
    gens = [{(2, 0): Fraction(1), (1, 0): Fraction(1)}]
    with pytest.raises(ValueError):
        initial_ideal(gens, G11, 4)
    # rank patterns that match no finite-colength staircase are refused
    gens = [{(1, 1): Fraction(1)}]
    with pytest.raises(ValueError):
        initial_ideal(gens, G11, 4)


def test_specialize_and_cell_point_agree():
    from tgraph.cells import cell_generators_f, significant_arrows

    M = parse_ideal("<x^3, x*y, y^2>")
    basis = cell_generators_f(M, G11)
    arrows = significant_arrows(M, G11).positive
    values = {(i, l): Fraction(k + 1, 2) for k, (i, l) in enumerate(arrows)}
    rows = cell_point(M, G11, values)
    by_var = {}
    for (i, l), val in values.items():
        from tgraph.poly import ArrowVar

        by_var[ArrowVar(0, i, l)] = val
    assert rows == specialize(basis, by_var)
    assert initial_ideal(rows, G11, 4) == M
