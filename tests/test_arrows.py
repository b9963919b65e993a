import hashlib
import json
import random
from math import gcd

import pytest

from tgraph.arrows import (active_classes, arrow_map_exists, dominates,
                           dual_condition, enumerate_arrow_maps, is_arrow_map,
                           is_system_of_arrows, oriented_pair)
from tgraph.assembly import pair_grading_jobs
from tgraph.monomial import (Grading, colon_box, enumerate_ideals,
                             hilbert_function, minimal_box, parse_ideal,
                             parse_monomial)

from oracles import brute_active_classes, brute_arrow_check, brute_dominates

G11 = Grading(1, 1)


def moved(witness):
    return dict(witness.moved_pairs())


def test_partial_order_small_pair():
    M = parse_ideal("<y^5, x^2>")
    N = parse_ideal("<y^2, x^5>")
    # the ideal generated by <y^2, x^5> dominates under the x-smaller side,
    # and the other one after exchanging x and y
    assert dominates(N, M, G11)
    assert not dominates(M, N, G11)
    assert dominates(M.swap(), N.swap(), G11.swap())
    assert dominates(M, M, G11) and dominates(N, N, G11)


@pytest.mark.parametrize("swapped", [False, True],
                         ids=["x_small", "y_small"])
@pytest.mark.parametrize("call", [
    dominates,
    lambda M, N, g: is_arrow_map(M, N, g, {}),
    lambda M, N, g: is_system_of_arrows(M, N, g, {}),
    arrow_map_exists,
    enumerate_arrow_maps,
    dual_condition,
], ids=["dominates", "is_arrow_map", "is_system_of_arrows",
        "arrow_map_exists", "enumerate_arrow_maps", "dual_condition"])
def test_partial_order_requires_equal_hilbert_functions(call, swapped):
    # the y-smaller side is the same call on the pair with x and y exchanged
    M, N, g = parse_ideal("<x^2, y^2>"), parse_ideal("<x^4, y>"), G11
    if swapped:
        M, N, g = M.swap(), N.swap(), g.swap()
    with pytest.raises(ValueError):
        call(M, N, g)


def test_active_classes_match_the_walk_over_every_class():
    # every pair, and the box quotients of every comparable pair, whose
    # active region is only as large as the pair's own
    boxes = 0
    for d in range(1, 8):
        pool = enumerate_ideals(d)
        gradings = [Grading(a, b) for a in range(1, d + 1)
                    for b in range(1, d + 1) if gcd(a, b) == 1]
        for M in pool:
            for N in pool:
                for g in gradings:
                    if hilbert_function(M, g) != hilbert_function(N, g):
                        with pytest.raises(ValueError):
                            active_classes(M, N, g)
                        continue
                    assert (active_classes(M, N, g)
                            == brute_active_classes(M, N, g))
                    if not dominates(M, N, g):
                        continue
                    box = minimal_box(M, N)
                    qm, qn = colon_box(box, M), colon_box(box, N)
                    assert (active_classes(qm, qn, g)
                            == brute_active_classes(qm, qn, g))
                    boxes += 1
    assert boxes == 1111


def test_box_quotients_share_a_hilbert_function_exactly_when_the_pair_does():
    # dual_condition relies on this instead of checking the pair itself
    for d in range(1, 9):
        pool = enumerate_ideals(d)
        gradings = [Grading(a, b) for a in range(1, d + 1)
                    for b in range(1, d + 1) if gcd(a, b) == 1]
        for x, M in enumerate(pool):
            for N in pool[x + 1:]:
                box = minimal_box(M, N)
                qm, qn = colon_box(box, M), colon_box(box, N)
                for g in gradings:
                    assert ((hilbert_function(M, g) == hilbert_function(N, g))
                            == (hilbert_function(qm, g)
                                == hilbert_function(qn, g)))


def test_order_is_antisymmetric_and_transitive():
    rng = random.Random(5)
    for d in (4, 5, 6):
        pool = enumerate_ideals(d)
        for _ in range(200):
            A, B, C = (pool[rng.randrange(len(pool))] for _ in range(3))
            g = G11
            if hilbert_function(A, g) != hilbert_function(B, g):
                continue
            if dominates(A, B, g) and dominates(B, A, g):
                assert A == B
            if hilbert_function(B, g) == hilbert_function(C, g):
                if dominates(A, B, g) and dominates(B, C, g):
                    assert dominates(A, C, g)


def test_dominance_matches_brute_force():
    rng = random.Random(9)
    for d in (4, 5, 6, 7):
        pool = enumerate_ideals(d)
        for _ in range(60):
            A = pool[rng.randrange(len(pool))]
            B = pool[rng.randrange(len(pool))]
            g = Grading(1, 1) if rng.random() < 0.5 else Grading(2, 1)
            if hilbert_function(A, g) != hilbert_function(B, g):
                continue
            assert dominates(A, B, g) == brute_dominates(A, B, g)


def test_arrow_map_beta4():
    g = Grading(1, 4)
    M = parse_ideal("<x^8, y>")
    N = parse_ideal("<x^4, y^2>")
    witness = arrow_map_exists(M, N, g)
    assert moved(witness) == {(0, 1): (4, 0), (1, 1): (5, 0),
                              (2, 1): (6, 0), (3, 1): (7, 0)}
    assert brute_arrow_check(M, N, g, moved(witness))


def test_arrow_map_discriminating_pair():
    M = parse_ideal("<x^5, x^3*y^2, y^4>")
    N = parse_ideal("<x^4, x^3*y^3, x*y^4, y^5>")
    witness = arrow_map_exists(M, N, G11)
    assert moved(witness) == {(0, 4): (4, 0), (3, 2): (4, 1)}
    qm = colon_box((5, 5), M)
    qn = colon_box((5, 5), N)
    assert arrow_map_exists(qm, qn, G11) is None
    dual, box = dual_condition(M, N, G11)
    assert dual is None and box == (5, 5)


def test_identity_map_between_equal_ideals():
    M = parse_ideal("<x^3, x*y, y^2>")
    witness = arrow_map_exists(M, M, G11)
    assert witness is not None and witness.moved_pairs() == ()
    assert enumerate_arrow_maps(M, M, G11) == [witness]


def test_enumerate_three_maps():
    M = parse_ideal("<x^5, y^2>")
    N = parse_ideal("<x^2, y^5>")
    maps = enumerate_arrow_maps(M, N, G11)
    assert len(maps) == 3
    degree5 = [sorted((a, b) for a, b in f.moved_pairs()
                      if G11.weight(a) == 5) for f in maps]
    assert [(parse_monomial("x*y^4"), parse_monomial("x^2*y^3")),
            (parse_monomial("x^2*y^3"), parse_monomial("x^3*y^2")),
            (parse_monomial("x^3*y^2"), parse_monomial("x^4*y"))] in degree5
    for f in maps:
        assert brute_arrow_check(M, N, G11, moved(f))


def test_enumerate_matches_exhaustive_bijection_search():
    from itertools import permutations

    g = Grading(1, 2)
    M = parse_ideal("<x^8, y>")
    N = parse_ideal("<x^4, y^2>")
    if hilbert_function(M, g) != hilbert_function(N, g):
        g = Grading(1, 4)
    classes = active_classes(M, N, g)
    counts = 1
    choices = []
    for _, mm, nn in classes:
        choices.append((mm, nn))
    total = 0

    def rec(i, assignment):
        nonlocal total
        if i == len(choices):
            if brute_arrow_check(M, N, g, dict(assignment)):
                total += 1
            return
        mm, nn = choices[i]
        for perm in permutations(range(len(nn))):
            rec(i + 1, assignment + [(m, nn[k]) for m, k in
                                     zip(mm, perm)])

    rec(0, [])
    assert total == len(enumerate_arrow_maps(M, N, g, limit=None))


def test_search_agrees_with_brute_force_on_random_pairs():
    rng = random.Random(23)
    for d in (4, 5, 6):
        pool = enumerate_ideals(d)
        for _ in range(40):
            A = pool[rng.randrange(len(pool))]
            B = pool[rng.randrange(len(pool))]
            g = Grading(1, 1)
            if A == B or hilbert_function(A, g) != hilbert_function(B, g):
                continue
            if not dominates(A, B, g):
                continue
            witness = arrow_map_exists(A, B, g)
            if witness is not None:
                assert brute_arrow_check(A, B, g, moved(witness))
            else:
                # no candidate assignment may pass the literal check
                maps = enumerate_arrow_maps(A, B, g, limit=None)
                assert maps == []


def test_arrow_map_implies_order():
    rng = random.Random(31)
    pool = enumerate_ideals(6)
    for _ in range(80):
        A = pool[rng.randrange(len(pool))]
        B = pool[rng.randrange(len(pool))]
        if A == B:
            continue
        if hilbert_function(A, G11) != hilbert_function(B, G11):
            continue
        if arrow_map_exists(A, B, G11) is not None:
            assert dominates(A, B, G11)


def test_forced_identity_outside_active_region():
    M = parse_ideal("<x^5, y^2>")
    N = parse_ideal("<x^2, y^5>")
    for f in enumerate_arrow_maps(M, N, G11):
        actives = {w for w, _, _ in active_classes(M, N, G11)}
        for m, v in f.pairs:
            assert G11.weight(m) in actives
        # identity forced on every class outside the stored region is
        # exactly what the padded literal check verifies
        assert brute_arrow_check(M, N, G11, moved(f), pad=4)


def test_system_of_arrows_is_weaker():
    g = G11
    qm = parse_ideal("<x^5, x^2*y, y^3>")
    qn = parse_ideal("<x^4, x^2*y, x*y^2, y^5>")
    system = {parse_monomial("y^3"): parse_monomial("x*y^2"),
              parse_monomial("x^2*y"): parse_monomial("x^2*y"),
              parse_monomial("y^4"): parse_monomial("x*y^3"),
              parse_monomial("x*y^3"): parse_monomial("x^4")}
    assert is_system_of_arrows(qm, qn, g, system)
    assert not is_arrow_map(qm, qn, g, system)


def test_dual_box_choice_probe():
    # the verdict with the least box is compared against enlarged boxes
    rng = random.Random(17)
    for d in (4, 5, 6):
        pool = enumerate_ideals(d)
        for _ in range(25):
            A = pool[rng.randrange(len(pool))]
            B = pool[rng.randrange(len(pool))]
            if A == B:
                continue
            if hilbert_function(A, G11) != hilbert_function(B, G11):
                continue
            if not dominates(A, B, G11):
                continue
            base, box = dual_condition(A, B, G11)
            for bump in ((1, 0), (0, 1), (2, 2)):
                bigger = (box[0] + bump[0], box[1] + bump[1])
                other, _ = dual_condition(A, B, G11, box=bigger)
                assert (other is None) == (base is None), (A, B, box, bigger)


@pytest.mark.slow
def test_dual_box_choice_probe_deeper():
    rng = random.Random(41)
    for d in (7, 8, 9):
        pool = enumerate_ideals(d)
        for _ in range(40):
            A = pool[rng.randrange(len(pool))]
            B = pool[rng.randrange(len(pool))]
            if A == B:
                continue
            if hilbert_function(A, G11) != hilbert_function(B, G11):
                continue
            if not dominates(A, B, G11):
                continue
            base, box = dual_condition(A, B, G11)
            for bump in ((1, 0), (0, 1), (2, 2), (3, 1)):
                bigger = (box[0] + bump[0], box[1] + bump[1])
                other, _ = dual_condition(A, B, G11, box=bigger)
                assert (other is None) == (base is None), (A, B, box, bigger)


def test_witness_json_schema():
    M = parse_ideal("<x^5, y^2>")
    N = parse_ideal("<x^2, y^5>")
    data = arrow_map_exists(M, N, G11).to_json()
    assert data == {
        "schema": "tgraph.arrow-map/1",
        "source": "<x^5, y^2>", "target": "<x^2, y^5>",
        "grading": {"alpha": 1, "beta": 1}, "side": "x_small",
        "pairs": [["y^2", "x^2"], ["y^3", "x^2*y"], ["y^4", "x^2*y^2"],
                  ["x*y^2", "x^3"], ["x*y^3", "x^3*y"],
                  ["x*y^4", "x^2*y^3"], ["x^2*y^2", "x^4"],
                  ["x^2*y^3", "x^3*y^2"], ["x^3*y^2", "x^4*y"]]}


def test_witnesses_through_colength_9_are_pinned():
    # which map the search returns, for the pair and for its box quotients,
    # under every oriented job a graph of its colength examines; recorded
    # before the search's divisor bounds read the staircase rows
    def printed(witness):
        return None if witness is None else witness.to_json()

    digest = hashlib.sha256()
    count = found = 0
    for d in range(2, 10):
        vertices = enumerate_ideals(d)
        for (i, j), g in pair_grading_jobs(vertices):
            pair = oriented_pair(vertices[i - 1], vertices[j - 1], g)
            if pair is None:
                continue
            witness = arrow_map_exists(*pair, g)
            dual, box = dual_condition(*pair, g)
            count += 1
            found += witness is not None
            digest.update(json.dumps(
                [printed(witness), printed(dual), box]).encode())
    assert (count, found) == (387, 381)
    assert digest.hexdigest() == (
        "03c3f0b307a9a03d86ade637d6220c561a68f4f1089029889f4cc975402786b4")
