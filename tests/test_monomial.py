from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from tgraph.monomial import (Grading, MonomialIdeal2, colon_box,
                             enumerate_ideals, format_ideal, format_monomial,
                             hilbert_function, minimal_box, parse_ideal,
                             parse_monomial, partitions)

from oracles import (box_monomials, brute_colon_box, brute_hilbert_function,
                     brute_monomials_of_weight, brute_rows, partition_count,
                     scanning_parse_monomial, sorting_swap,
                     successor_partitions)

G11 = Grading(1, 1)
G12 = Grading(1, 2)
G23 = Grading(2, 3)


def test_weight_examples():
    assert G11.weight((5, 1)) == 6
    assert G12.weight((8, 0)) == 8
    assert G12.weight((0, 4)) == 8
    assert G23.weight((3, 2)) == 12


def test_distance_examples():
    assert G11.distance((0, 2), (2, 0)) == 2
    assert G11.distance((3, 1), (3, 1)) == 0
    assert G12.distance((0, 4), (8, 0)) == 4
    with pytest.raises(ValueError):
        G11.distance((1, 0), (0, 2))


def test_compare_examples():
    # both pairs share a degree class: weight 8 for (1, 3), 4 for (1, 2);
    # a class ascends with the y-exponent, and exchanging x and y reverses it
    for g, small, large in ((Grading(1, 3), (8, 0), (5, 1)),
                            (G12, (4, 0), (0, 2))):
        w = g.weight(small)
        assert g.weight(large) == w
        chain = g.monomials_of_weight(w)
        assert chain.index(small) < chain.index(large)
        swapped = g.swap().monomials_of_weight(w)
        assert swapped.index(small[::-1]) > swapped.index(large[::-1])


def test_grading_validation():
    with pytest.raises(ValueError):
        Grading(2, 4)
    with pytest.raises(ValueError):
        Grading(0, 1)


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12),
       st.integers(0, 12), st.integers(1, 6), st.integers(1, 6))
def test_weight_equality_is_shift_equivalence(a, b, a2, b2, alpha, beta):
    if gcd(alpha, beta) != 1:
        alpha, beta = 1, 1
    g = Grading(alpha, beta)
    equal = g.weight((a, b)) == g.weight((a2, b2))
    diff = (a - a2, b - b2)
    multiple = (diff[0] % beta == 0 and diff[1] % alpha == 0
                and diff[0] * alpha == -diff[1] * beta)
    assert equal == multiple


def test_staircase_invariants():
    M = parse_ideal("<x^5, x^3*y^2, y^4>")
    assert M.gens == ((5, 0), (3, 2), (0, 4))
    assert M.colength == 16
    assert len(M.standard_monomials()) == 16
    with pytest.raises(ValueError):
        MonomialIdeal2(((2, 0), (1, 1)))  # no pure power of y
    with pytest.raises(ValueError):
        MonomialIdeal2(((2, 1), (0, 3)))  # no pure power of x


def test_standard_monomials_examples():
    assert parse_ideal("<x, y>").standard_monomials() == ((0, 0),)
    assert set(parse_ideal("<x^2, y^2>").standard_monomials()) == {
        (0, 0), (1, 0), (0, 1), (1, 1)}
    box = parse_ideal("<x^5, x^3*y^2, y^4>")
    brute = {(a, b) for a in range(6) for b in range(5)
             if not box.contains((a, b))}
    assert set(box.standard_monomials()) == brute


def test_contains_against_divisibility():
    M = parse_ideal("<x^5, x^3*y^2, y^4>")
    for a in range(9):
        for b in range(7):
            divisor = any(a >= ga and b >= gb for ga, gb in M.gens)
            assert M.contains((a, b)) == divisor


def test_hilbert_function_examples():
    h1 = hilbert_function(parse_ideal("<y^5, x^2>"), G11)
    h2 = hilbert_function(parse_ideal("<y^2, x^5>"), G11)
    assert h1 == h2
    assert [dict(h1).get(w, 0) for w in range(7)] == [
        1, 2, 2, 2, 2, 1, 0]
    assert hilbert_function(parse_ideal("<x, y>"), G11) == ((0, 1),)
    g14 = Grading(1, 4)
    assert (hilbert_function(parse_ideal("<x^8, y>"), g14)
            == hilbert_function(parse_ideal("<x^4, y^2>"), g14))


def test_colon_examples():
    M = parse_ideal("<x^5, x^3*y^2, y^4>")
    N = parse_ideal("<x^4, x^3*y^3, x*y^4, y^5>")
    assert format_ideal(colon_box((5, 5), M)) == "<x^5, x^2*y, y^3>"
    assert format_ideal(colon_box((5, 5), N)) == "<x^4, x^2*y, x*y^2, y^5>"
    Q = parse_ideal("<x^5, y^5>")
    assert colon_box((5, 5), Q) == parse_ideal("<1>")
    with pytest.raises(ValueError):
        colon_box((4, 5), M)


def test_rows_match_the_generator_formulas_through_colength_10():
    # rows, Hilbert functions and box quotients against the formulas that
    # scan generators and standard monomials, under every coprime grading
    # with weights up to the colength and every box up to 3 past the least
    for d in range(1, 11):
        gradings = [Grading(a, b) for a in range(1, d + 1)
                    for b in range(1, d + 1) if gcd(a, b) == 1]
        for M in enumerate_ideals(d):
            assert M.rows == brute_rows(M)
            assert MonomialIdeal2(M.gens).rows == M.rows
            std = {m for m in box_monomials(M.a0, M.be)
                   if not any(m[0] >= a and m[1] >= b for a, b in M.gens)}
            assert set(M.standard_monomials()) == std
            for g in gradings:
                assert hilbert_function(M, g) == brute_hilbert_function(M, g)
            for r1 in range(M.a0, M.a0 + 4):
                for r2 in range(M.be, M.be + 4):
                    Q = colon_box((r1, r2), M)
                    assert Q.rows == brute_colon_box((r1, r2), M)
                    assert Q.rows == brute_rows(Q)
                    # the generators read off the corners pass the checks
                    # of the generator constructor and give the same ideal
                    checked = MonomialIdeal2(Q.gens)
                    assert (checked.gens, checked.rows, checked.colength) == (
                        Q.gens, Q.rows, Q.colength)


def test_colon_duality_random():
    import random

    rng = random.Random(7)
    pool = [M for d in range(1, 9) for M in enumerate_ideals(d)]
    for _ in range(200):
        M = pool[rng.randrange(len(pool))]
        r1 = M.a0 + rng.randrange(0, 3)
        r2 = M.be + rng.randrange(0, 3)
        Q = colon_box((r1, r2), M)
        assert Q.colength == r1 * r2 - M.colength
        assert colon_box((r1, r2), Q) == M


def test_partition_enumeration_order_and_counts():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                   (1, 1, 1, 1)]
    listed = [format_ideal(M) for M in enumerate_ideals(4)]
    assert listed == ["<x^4, y>", "<x^3, x*y, y^2>", "<x^2, y^2>",
                      "<x^2, x*y, y^3>", "<x, y^4>"]
    assert enumerate_ideals(1) == [parse_ideal("<x, y>")]
    expected = [5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231]
    for d, count in zip(range(4, 17), expected):
        assert len(enumerate_ideals(d)) == count == partition_count(d)
    for d in range(1, 10):
        for M in enumerate_ideals(d):
            assert M.colength == d


def test_partitions_match_the_successor_walk():
    for d in range(25):
        assert list(partitions(d)) == list(successor_partitions(d))


def test_enumerated_ideals_pass_the_validating_constructor():
    # enumerate_ideals builds from its own partitions without checks
    for d in range(1, 11):
        ideals = enumerate_ideals(d)
        assert len(ideals) == partition_count(d)
        for M in ideals:
            checked = MonomialIdeal2(M.gens)
            assert M == checked
            assert (M.rows, M.colength) == (checked.rows, checked.colength)


def test_swap_involution():
    for d in range(1, 8):
        for M in enumerate_ideals(d):
            assert M.swap().swap() == M
            assert M.swap().colength == M.colength


def test_swap_is_the_conjugate_partition():
    # the conjugate rows give the ideal that exchanging x and y in the
    # generators gives, unit ideal included
    unit = MonomialIdeal2._from_rows(())
    ideals = [unit] + [M for d in range(1, 14) for M in enumerate_ideals(d)]
    for M in ideals:
        swapped, checked = M.swap(), sorting_swap(M)
        assert swapped == checked
        assert ((swapped.gens, swapped.rows, swapped.colength)
                == (checked.gens, checked.rows, checked.colength))


def test_empty_rows_are_the_unit_ideal():
    unit, checked = MonomialIdeal2._from_rows(()), MonomialIdeal2(((0, 0),))
    assert (unit.gens, unit.rows, unit.colength) == (((0, 0),), (), 0)
    assert ((checked.gens, checked.rows, checked.colength)
            == (unit.gens, unit.rows, unit.colength))
    assert unit == checked and hash(unit) == hash(checked)
    assert colon_box((3, 2), parse_ideal("<x^3, y^2>")) == unit


def _parsed(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


@given(st.text(alphabet="xyz^*0123456789 ", max_size=16))
@example(" x^3*y ")
@example("y*x^02*x*y^10")
@example(" 1")
@example("1*x")
@example("x^2y")
@example("x**y")
@example("x^")
@example("")
def test_parse_monomial_matches_the_scanner(text):
    assert (_parsed(parse_monomial, text)
            == _parsed(scanning_parse_monomial, text))


def test_parse_and_format_round_trip():
    for text in ("<x^5, x^3*y^2, y^4>", "<x, y>", "<1>", "<x^2, y^2>"):
        assert format_ideal(parse_ideal(text)) == text
    assert parse_monomial("1") == (0, 0)
    assert parse_monomial("x^3*y") == (3, 1)
    assert format_monomial((0, 0)) == "1"
    assert parse_ideal("<x^2, x^3, y>") == parse_ideal("<x^2, y>")
    with pytest.raises(ValueError):
        parse_ideal("x^2, y")
    with pytest.raises(ValueError):
        parse_monomial("x^2*z")
    with pytest.raises(ValueError):
        parse_monomial("x^2*")


@given(st.sampled_from([(1, 1), (1, 2), (2, 3), (3, 1)]), st.integers(0, 24))
def test_compare_total_order_within_class(weights, w):
    g = Grading(*weights)
    mons = g.monomials_of_weight(w)
    # each class is a strict chain in the y-exponent
    assert all(m[1] < m2[1] for m, m2 in zip(mons, mons[1:]))
    # and exchanging x and y orders it in the opposite direction
    assert [m[::-1] for m in mons] == g.swap().monomials_of_weight(w)[::-1]


def test_monomials_of_weight_matches_the_walk_over_every_y_exponent():
    for alpha in range(1, 17):
        for beta in range(1, 17):
            if gcd(alpha, beta) != 1:
                continue
            g = Grading(alpha, beta)
            for w in range(61):
                assert (g.monomials_of_weight(w)
                        == brute_monomials_of_weight(g, w))


def test_minimal_box():
    M = parse_ideal("<x^5, x^3*y^2, y^4>")
    N = parse_ideal("<x^4, x^3*y^3, x*y^4, y^5>")
    assert minimal_box(M, N) == (5, 5)
