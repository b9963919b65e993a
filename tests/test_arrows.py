import hashlib
import json
import random
from math import gcd

import pytest

from tgraph.arrows import (_search, active_classes, arrow_map_exists,
                           dual_condition, enumerate_arrow_maps, is_arrow_map,
                           is_system_of_arrows, oriented_pair)
from tgraph.assembly import pair_grading_jobs
from tgraph.monomial import (Grading, colon_box, enumerate_ideals,
                             hilbert_function, minimal_box, parse_ideal,
                             parse_monomial)

from oracles import (brute_active_classes, brute_arrow_check, brute_arrow_maps,
                     brute_dominates, recursive_arrow_search, top_first,
                     trimmed_active_classes)

G11 = Grading(1, 1)


def moved(witness):
    return dict(witness.moved_pairs())


def test_partial_order_small_pair():
    M = parse_ideal("<y^5, x^2>")
    N = parse_ideal("<y^2, x^5>")
    # the ideal generated by <y^2, x^5> dominates under the x-smaller side,
    # and the other one after exchanging x and y
    pair = oriented_pair(M, N, G11)
    assert (pair.big, pair.small, pair.grading) == (N, M, G11)
    # the region is kept in the pair's order, the big ideal's members first
    assert pair.classes == tuple(active_classes(N, M, G11))
    assert top_first(M.swap(), N.swap(), G11.swap()) is not None
    assert top_first(M, M, G11) and top_first(N, N, G11)


@pytest.mark.parametrize("swapped", [False, True],
                         ids=["x_small", "y_small"])
@pytest.mark.parametrize("call", [
    oriented_pair,
    lambda M, N, g: is_arrow_map(M, N, g, {}),
    lambda M, N, g: is_system_of_arrows(M, N, g, {}),
    lambda M, N, g: arrow_map_exists(oriented_pair(M, N, g)),
    lambda M, N, g: enumerate_arrow_maps(oriented_pair(M, N, g)),
    lambda M, N, g: dual_condition(oriented_pair(M, N, g)),
], ids=["oriented_pair", "is_arrow_map", "is_system_of_arrows",
        "arrow_map_exists", "enumerate_arrow_maps", "dual_condition"])
def test_partial_order_requires_equal_hilbert_functions(call, swapped):
    # the y-smaller side is the same call on the pair with x and y exchanged;
    # the arrow-map tests take an oriented pair, and orienting raises
    M, N, g = parse_ideal("<x^2, y^2>"), parse_ideal("<x^4, y>"), G11
    if swapped:
        M, N, g = M.swap(), N.swap(), g.swap()
    with pytest.raises(ValueError):
        call(M, N, g)


def test_active_classes_match_the_walk_over_every_class():
    # every pair, and the box quotients of every comparable pair, whose
    # active region is only as large as the pair's own; each class keeps
    # only the stretch between its first and last disagreeing cell
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
                            == trimmed_active_classes(M, N, g))
                    if top_first(M, N, g) is None:
                        continue
                    box = minimal_box(M, N)
                    qm, qn = colon_box(box, M), colon_box(box, N)
                    assert (active_classes(qm, qn, g)
                            == trimmed_active_classes(qm, qn, g))
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
            if top_first(A, B, g) and top_first(B, A, g):
                assert A == B
            if hilbert_function(B, g) == hilbert_function(C, g):
                if top_first(A, B, g) and top_first(B, C, g):
                    assert top_first(A, C, g)


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
            # both directions, each read off one oriented pair
            for X, Y in ((A, B), (B, A)):
                assert ((top_first(X, Y, g) is not None)
                        == brute_dominates(X, Y, g))


def test_arrow_map_beta4():
    g = Grading(1, 4)
    M = parse_ideal("<x^8, y>")
    N = parse_ideal("<x^4, y^2>")
    witness = arrow_map_exists(top_first(M, N, g))
    assert moved(witness) == {(0, 1): (4, 0), (1, 1): (5, 0),
                              (2, 1): (6, 0), (3, 1): (7, 0)}
    assert brute_arrow_check(M, N, g, moved(witness))


def test_arrow_map_discriminating_pair():
    M = parse_ideal("<x^5, x^3*y^2, y^4>")
    N = parse_ideal("<x^4, x^3*y^3, x*y^4, y^5>")
    pair = top_first(M, N, G11)
    witness = arrow_map_exists(pair)
    assert moved(witness) == {(0, 4): (4, 0), (3, 2): (4, 1)}
    qm = colon_box((5, 5), M)
    qn = colon_box((5, 5), N)
    assert arrow_map_exists(top_first(qm, qn, G11)) is None
    dual, box = dual_condition(pair)
    assert dual is None and box == (5, 5)


def test_identity_map_between_equal_ideals():
    M = parse_ideal("<x^3, x*y, y^2>")
    pair = oriented_pair(M, M, G11)
    witness = arrow_map_exists(pair)
    assert witness is not None and witness.moved_pairs() == ()
    assert enumerate_arrow_maps(pair) == [witness]


def test_enumerate_three_maps():
    M = parse_ideal("<x^5, y^2>")
    N = parse_ideal("<x^2, y^5>")
    maps = enumerate_arrow_maps(top_first(M, N, G11))
    assert len(maps) == 3
    degree5 = [sorted((a, b) for a, b in f.moved_pairs()
                      if G11.weight(a) == 5) for f in maps]
    assert [(parse_monomial("x*y^4"), parse_monomial("x^2*y^3")),
            (parse_monomial("x^2*y^3"), parse_monomial("x^3*y^2")),
            (parse_monomial("x^3*y^2"), parse_monomial("x^4*y"))] in degree5
    for f in maps:
        assert brute_arrow_check(M, N, G11, moved(f))


def test_enumerate_matches_exhaustive_bijection_search():
    for M, N, g in (("<x^8, y>", "<x^4, y^2>", Grading(1, 4)),
                    ("<x^5, y^2>", "<x^2, y^5>", G11)):
        M, N = parse_ideal(M), parse_ideal(N)
        maps = enumerate_arrow_maps(top_first(M, N, g), limit=None)
        # the brute maps range over full classes; maps that agree off one
        # region are equal exactly when their moved pairs are
        assert (sorted(f.moved_pairs() for f in maps)
                == sorted(tuple((m, v) for m, v in sorted(a.items()) if m != v)
                          for a in brute_arrow_maps(M, N, g)))


def test_search_agrees_with_brute_force_on_random_pairs():
    # random comparable pairs, plus two comparable pairs with no arrow map:
    # the random ones all have one
    M = parse_ideal("<x^5, x^3*y^2, y^4>")
    N = parse_ideal("<x^4, x^3*y^3, x*y^4, y^5>")
    pairs = [(parse_ideal("<x^5, x*y, y^3>"), parse_ideal("<x^3, x*y, y^5>")),
             (colon_box((5, 5), M), colon_box((5, 5), N))]
    rng = random.Random(23)
    for d in (4, 5, 6):
        pool = enumerate_ideals(d)
        for _ in range(40):
            pairs.append((pool[rng.randrange(len(pool))],
                          pool[rng.randrange(len(pool))]))
    g = Grading(1, 1)
    misses = 0
    for A, B in pairs:
        if A == B or hilbert_function(A, g) != hilbert_function(B, g):
            continue
        pair = top_first(A, B, g)
        if pair is None:
            continue
        witness = arrow_map_exists(pair)
        if witness is not None:
            assert brute_arrow_check(A, B, g, moved(witness))
        else:
            # no per-class bijection may pass the literal check
            assert brute_arrow_maps(A, B, g) == []
            misses += 1
    assert misses == 2


def oriented_searches(top):
    """Each oriented job through colength `top`, followed by its box
    quotients, as oriented pairs."""
    for d in range(2, top + 1):
        vertices = enumerate_ideals(d)
        for (i, j), g in pair_grading_jobs(vertices):
            pair = oriented_pair(vertices[i - 1], vertices[j - 1], g)
            if pair is None:
                continue
            box = minimal_box(pair.big, pair.small)
            yield pair
            yield top_first(colon_box(box, pair.big),
                            colon_box(box, pair.small), g)


def test_search_order_matches_the_recursive_reference():
    # enumerate_arrow_maps sorts only the maps it found, so --limit output
    # depends on the order the search finds them in
    def assignments(maps):
        return [list(a.items()) for a in maps]

    searches = 0
    for pair in oriented_searches(8):
        every = assignments(recursive_arrow_search(
            pair.big, pair.small, pair.grading, pair.classes, None))
        for limit in (None, 0, 1, 2):
            assert assignments(_search(pair, limit)) == every[:limit]
        searches += 1
    assert searches == 434


def test_search_on_the_cut_region_matches_the_full_classes():
    # the members cut off above and below each stretch are fixed by every
    # map, so the search over full classes finds the same maps, in the same
    # order, with identity entries at the cut members
    searches = 0
    for pair in oriented_searches(8):
        M, N, g = pair.big, pair.small, pair.grading
        full = [[(m, v) for m, v in a.items() if m != v]
                for a in recursive_arrow_search(
                    M, N, g, brute_active_classes(M, N, g), None)]
        cut = [[(m, v) for m, v in a.items() if m != v]
               for a in _search(pair, None)]
        assert cut == full
        searches += 1
    assert searches == 434


def test_checkers_reject_moves_outside_the_region():
    M = parse_ideal("<x^5, y^2>")
    N = parse_ideal("<x^2, y^5>")
    found = dict(arrow_map_exists(top_first(M, N, G11)).pairs)
    assert is_arrow_map(M, N, G11, found)
    # identity entries anywhere are allowed, as in a map over full classes
    for full in brute_arrow_maps(M, N, G11):
        assert is_arrow_map(M, N, G11, {**full, (0, 9): (0, 9)})
        assert is_system_of_arrows(M, N, G11, full)
    # a move off the region, from a monomial of M or from one outside it
    for m, v in (("y^9", "x*y^8"), ("y", "x")):
        stray = {**found, parse_monomial(m): parse_monomial(v)}
        assert not is_arrow_map(M, N, G11, stray)
        assert not is_system_of_arrows(M, N, G11, stray)


def test_arrow_map_implies_order():
    # a map runs from the pair's big ideal, which the exhaustive matching
    # confirms dominates the small one
    rng = random.Random(31)
    pool = enumerate_ideals(6)
    for _ in range(80):
        A = pool[rng.randrange(len(pool))]
        B = pool[rng.randrange(len(pool))]
        if A == B:
            continue
        if hilbert_function(A, G11) != hilbert_function(B, G11):
            continue
        pair = oriented_pair(A, B, G11)
        witness = pair and arrow_map_exists(pair)
        if witness:
            assert brute_dominates(witness.source, witness.target, G11)


def test_forced_identity_outside_active_region():
    M = parse_ideal("<x^5, y^2>")
    N = parse_ideal("<x^2, y^5>")
    for f in enumerate_arrow_maps(top_first(M, N, G11)):
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
            pair = top_first(A, B, G11)
            if pair is None:
                continue
            base, box = dual_condition(pair)
            for bump in ((1, 0), (0, 1), (2, 2)):
                bigger = (box[0] + bump[0], box[1] + bump[1])
                other, _ = dual_condition(pair, box=bigger)
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
            pair = top_first(A, B, G11)
            if pair is None:
                continue
            base, box = dual_condition(pair)
            for bump in ((1, 0), (0, 1), (2, 2), (3, 1)):
                bigger = (box[0] + bump[0], box[1] + bump[1])
                other, _ = dual_condition(pair, box=bigger)
                assert (other is None) == (base is None), (A, B, box, bigger)


def test_witness_json_schema():
    M = parse_ideal("<x^5, y^2>")
    N = parse_ideal("<x^2, y^5>")
    data = arrow_map_exists(top_first(M, N, G11)).to_json()
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
            witness = arrow_map_exists(pair)
            dual, box = dual_condition(pair)
            count += 1
            found += witness is not None
            digest.update(json.dumps(
                [printed(witness), printed(dual), box]).encode())
    assert (count, found) == (387, 381)
    assert digest.hexdigest() == (
        "03c3f0b307a9a03d86ade637d6220c561a68f4f1089029889f4cc975402786b4")
