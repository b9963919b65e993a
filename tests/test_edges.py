import pytest

from tgraph import groebner
from tgraph.arrows import oriented_pair
from tgraph.assembly import PipelineDepth, build_tgraph
from tgraph.cells import edge_ideal
from tgraph.edges import EdgeRecord, EdgeStatus, decide_edge
from tgraph.groebner import BudgetExceeded, buchberger, quotient_dimension
from tgraph.monomial import Grading, enumerate_ideals, parse_ideal

G11 = Grading(1, 1)


def test_small_pair_is_an_edge():
    record = decide_edge(parse_ideal("<y^5, x^2>"), parse_ideal("<y^2, x^5>"),
                         G11)
    assert record.status is EdgeStatus.EDGE
    assert record.generator_count == 3


def test_edge_scheme_has_no_rational_points_here():
    # the first equation factors only over a real quadratic extension: any
    # rational zero of t^2 - 3t + 1 would be an integer dividing 1
    assert all(t * t - 3 * t + 1 != 0 for t in (1, -1))
    # yet real points exist, since the discriminant 5 is positive
    assert 3 * 3 - 4 > 0


def test_discriminating_pair_is_not_an_edge():
    record = decide_edge(parse_ideal("<x^5, x^3*y^2, y^4>"),
                         parse_ideal("<x^4, x^3*y^3, x*y^4, y^5>"), G11)
    assert record.status is EdgeStatus.NO_EDGE
    assert record.generator_count > 0  # settled by the solver, not the order


def test_identical_ideals_rejected():
    M = parse_ideal("<x^2, y^2>")
    with pytest.raises(ValueError):
        decide_edge(M, M, G11)


def test_incomparable_pairs_cost_nothing():
    record = decide_edge(parse_ideal("<x^4, x*y, y^3>"),
                         parse_ideal("<x^3, y^2>"), G11)
    assert record.status is EdgeStatus.NO_EDGE
    assert record.s_pairs == 0 and record.generator_count == 0


def test_unequal_hilbert_functions_rejected():
    with pytest.raises(ValueError):
        decide_edge(parse_ideal("<x^2, y^2>"), parse_ideal("<x^4, y>"), G11)


def test_dimensions_for_four_points():
    two_four = decide_edge(parse_ideal("<x^3, x*y, y^2>"),
                           parse_ideal("<x^2, x*y, y^3>"), G11,
                           with_dimension=True)
    assert two_four.status is EdgeStatus.EDGE and two_four.dimension == 2
    one_two = decide_edge(parse_ideal("<x^4, y>"),
                          parse_ideal("<x^3, x*y, y^2>"), Grading(1, 3),
                          with_dimension=True)
    assert one_two.status is EdgeStatus.EDGE and one_two.dimension == 1


def test_dimension_requires_an_edge():
    record = decide_edge(parse_ideal("<x^5, x^3*y^2, y^4>"),
                         parse_ideal("<x^4, x^3*y^3, x*y^4, y^5>"), G11,
                         with_dimension=True)
    assert record.status is EdgeStatus.NO_EDGE
    assert record.dimension is None


def test_zero_equation_edge_has_full_dimension():
    # a dominating pair whose equations all vanish would have the whole
    # coordinate space as its scheme; simulate via the solver contract
    from tgraph.groebner import buchberger, quotient_dimension

    gb = buchberger([])
    assert quotient_dimension(gb, nvars=5) == 5


def test_swap_symmetry_of_the_verdict():
    for d in (3, 4, 5):
        pool = enumerate_ideals(d)
        for i, M in enumerate(pool):
            for N in pool[i + 1:]:
                for g in (Grading(1, 1), Grading(1, 2)):
                    from tgraph.monomial import hilbert_function

                    if hilbert_function(M, g) != hilbert_function(N, g):
                        continue
                    rec = decide_edge(M, N, g, with_dimension=True)
                    mirrored = decide_edge(M.swap(), N.swap(), g.swap(),
                                           with_dimension=True)
                    assert rec.status is mirrored.status
                    assert rec.dimension == mirrored.dimension


def test_budget_exhaustion_gives_unknown():
    record = decide_edge(parse_ideal("<y^5, x^2>"), parse_ideal("<y^2, x^5>"),
                         G11, budget=1)
    assert record.status is EdgeStatus.UNKNOWN


def test_record_round_trip():
    record = decide_edge(parse_ideal("<y^5, x^2>"), parse_ideal("<y^2, x^5>"),
                         G11, with_dimension=True)
    back = EdgeRecord.from_json(record.to_json())
    assert back.status is record.status
    assert back.pair == record.pair
    assert back.dimension == record.dimension == 1


def test_prime_field_prescreen_is_labeled():
    record = decide_edge(parse_ideal("<y^5, x^2>"), parse_ideal("<y^2, x^5>"),
                         G11, char=7)
    assert record.characteristic == 7
    assert record.status is EdgeStatus.EDGE


def test_determinism_of_records():
    a = decide_edge(parse_ideal("<x^3, x*y, y^2>"),
                    parse_ideal("<x^2, x*y, y^3>"), G11, with_dimension=True)
    b = decide_edge(parse_ideal("<x^3, x*y, y^2>"),
                    parse_ideal("<x^2, x*y, y^3>"), G11, with_dimension=True)
    assert a.to_json() == b.to_json()


def test_composite_characteristic_is_rejected():
    # one pair that forms equations, one settled by the order alone
    pairs = [(parse_ideal("<y^5, x^2>"), parse_ideal("<y^2, x^5>")),
             (parse_ideal("<x^4, x*y, y^3>"), parse_ideal("<x^3, y^2>"))]
    assert decide_edge(*pairs[1], G11).generator_count == 0
    for M, N in pairs:
        for char in (4, 6):
            with pytest.raises(ValueError):
                decide_edge(M, N, G11, char=char)


def test_one_primality_test_per_decision(monkeypatch):
    calls = []
    is_prime = groebner._is_prime
    monkeypatch.setattr(groebner, "_is_prime",
                        lambda n: calls.append(n) or is_prime(n))
    p = 2 ** 31 - 1
    settled = (parse_ideal("<x^4, x*y, y^3>"), parse_ideal("<x^3, y^2>"))
    assert decide_edge(*settled, G11, char=p).generator_count == 0
    assert calls == [p]
    calls.clear()
    solved = (parse_ideal("<y^5, x^2>"), parse_ideal("<y^2, x^5>"))
    assert decide_edge(*solved, G11, char=p).generator_count > 0
    assert calls == [p]


def test_solver_order_keeps_every_verdict_and_dimension():
    # a direct buchberger run in the printed variable order is the oracle
    # for the records decided in the solver's reversed order
    compared = 0
    for d in range(2, 9):
        for rec in build_tgraph(d, PipelineDepth.FULL,
                                with_dimension=True).records:
            oriented = oriented_pair(*rec.pair, rec.grading)
            if oriented is None:
                continue
            ideal = edge_ideal(oriented)
            gb = buchberger(ideal.nonzero_generators())
            if gb.is_trivial():
                assert rec.status is EdgeStatus.NO_EDGE
            else:
                assert rec.status is EdgeStatus.EDGE
                assert rec.dimension == quotient_dimension(gb,
                                                           ideal.ring.nvars)
            compared += 1
    assert compared == 217


def test_colength_ten_tail_fits_a_budget_the_printed_order_exceeds():
    # the slowest colength-10 job in the printed order, 1122 S-pairs there
    M = parse_ideal("<x^5, x^3*y, x^2*y^2, y^3>")
    N = parse_ideal("<x^3, x^2*y^2, x*y^3, y^5>")
    record = decide_edge(M, N, G11, budget=420)
    assert record.status is EdgeStatus.EDGE and record.s_pairs == 420
    ideal = edge_ideal(oriented_pair(M, N, G11))
    with pytest.raises(BudgetExceeded):
        buchberger(ideal.nonzero_generators(), budget=420)
