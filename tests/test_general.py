import hashlib
import os
import pickle
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations, product
from operator import mul

import pytest

import tgraph
from tgraph import general, poly
from tgraph.general import (ChainWindow, NMonomialIdeal, TWO_POINTS_WINDOW,
                            candidate_refinements, chain_positions,
                            class_dominates, degree_classes,
                            edge_scheme_general, fixed_points_two_points_p2,
                            saturation_label, two_points_graph)
from tgraph.groebner import buchberger, quotient_dimension

from oracles import (both_ways_orientation, from_saturation, permute,
                     sorted_degree_classes, top_first)


def test_nine_fixed_points():
    vertices = fixed_points_two_points_p2()
    assert len(vertices) == 9
    labels = sorted(saturation_label(v) for v in vertices)
    assert "<x0, x1*x2>" in labels
    assert "<x0, x1^2>" in labels
    linear_pairs = [l for l in labels if "^2" not in l]
    assert len(linear_pairs) == 3


def test_saturation_recovery_rule():
    vertices = set(fixed_points_two_points_p2())
    rebuilt = set()
    for linear in range(3):
        others = [k for k in range(3) if k != linear]
        i, j = others
        quad = [0, 0, 0]
        quad[i] += 1
        quad[j] += 1
        rebuilt.add(from_saturation(linear, tuple(quad)))
        for k in others:
            square = [0, 0, 0]
            square[k] = 2
            rebuilt.add(from_saturation(linear, tuple(square)))
    assert rebuilt == vertices
    window = {t: [m for m in product(range(t + 1), repeat=3) if sum(m) == t]
              for t in TWO_POINTS_WINDOW}
    for v in vertices:
        assert v.hilbert_values(window) == {0: 1, 1: 3, 2: 2, 3: 2}


def test_symmetry_permutes_the_vertex_set():
    vertices = set(fixed_points_two_points_p2())
    for perm in permutations(range(3)):
        assert {permute(v, perm) for v in vertices} == vertices


def test_degree_classes_are_chains():
    classes = degree_classes(3, (1, 1, 1), (1, -1, 0), (2,))
    for chain in classes:
        for u, v in zip(chain, chain[1:]):
            assert tuple(a - b for a, b in zip(v, u)) == (1, -1, 0)
    flattened = [m for chain in classes for m in chain]
    assert len(flattened) == len(set(flattened)) == 6


@pytest.mark.parametrize("weights, top", [((1, 1, 1), 5), ((1, 2), 5),
                                          ((2, 3), 12)])
def test_degree_classes_match_the_sorted_oracle(weights, top):
    # same chains in the same order, both orientations of every candidate
    # direction, on every window from degree 0 up to `top` and reversed;
    # (2, 3) has its first direction in degree 6, so its windows go further
    nvars = len(weights)
    directions = []
    for degrees in ((1, 2), range(1, top + 1)):
        directions += [c for c in candidate_refinements(nvars, weights,
                                                        degrees)
                       if c not in directions]
    assert directions
    windows = [tuple(range(k + 1)) for k in range(top + 1)]
    windows.append(tuple(range(top, -1, -1)))
    longest = 0
    for c in directions:
        for d in (c, tuple(-x for x in c)):
            for window in windows:
                got = degree_classes(nvars, weights, d, window)
                assert got == sorted_degree_classes(nvars, weights, d,
                                                    window), (d, window)
                longest = max(longest, *map(len, got))
    assert longest > 2


@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 1), (1, 2), (2, 3)])
def test_degree_classes_extend_by_a_higher_degree(weights):
    # adding a degree above the window appends that degree's chains after
    # the window's own, so the window's chains are a prefix of the list;
    # two_points_graph orients its pairs on that prefix
    nvars = len(weights)
    span = (1, 2) if nvars == 3 else range(1, 7)
    directions = candidate_refinements(nvars, weights, span)
    assert directions
    for c in directions:
        for d in (c, tuple(-x for x in c)):
            for top in range(6):
                window = tuple(range(top + 1))
                base = degree_classes(nvars, weights, d, window)
                for t in (top + 1, top + 3):
                    wider = degree_classes(nvars, weights, d, window + (t,))
                    assert wider[:len(base)] == base, (d, window, t)
                    assert all(sum(map(mul, weights, chain[0])) == t
                               for chain in wider[len(base):]), (d, t)


def test_degree_classes_rejects_a_zero_direction():
    # it looped forever once, so it runs in a child with a time limit
    src = os.path.dirname(os.path.dirname(os.path.abspath(tgraph.__file__)))
    done = subprocess.run(
        [sys.executable, "-c",
         "from tgraph.general import degree_classes\n"
         "try:\n"
         "    degree_classes(2, (1, 1), (0, 0), (1,))\n"
         "except ValueError as exc:\n"
         "    print('raised', exc)\n"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised"), done.stdout


@pytest.mark.parametrize("c", [(1, -1), (1, -1, 0, 0), (1, 1, 0),
                               (0, 0, -1)])
def test_degree_classes_rejects_bad_directions(c):
    with pytest.raises(ValueError, match="entries"):
        degree_classes(3, (1, 1, 1), c, (2,))


def test_candidate_refinements_are_primitive_two_signed():
    for c in candidate_refinements(3, (1, 1, 1), (1, 2)):
        assert any(x > 0 for x in c) and any(x < 0 for x in c)
        from math import gcd

        assert gcd(*(abs(x) for x in c)) == 1


def test_triangle_edge_has_two_parameters():
    # same linear form, the two squares of the other variables
    M = from_saturation(0, (0, 0, 2))
    N = from_saturation(0, (0, 2, 0))
    window = ChainWindow((M, N), (0, 1, -1), TWO_POINTS_WINDOW)
    if class_dominates(window.positions[M], window.positions[N]):
        big, small = M, N
    else:
        big, small = N, M
    ring, eqs = edge_scheme_general(big, small, window)
    assert [v.label() for v in ring.vars] == ["c0^1", "c0^2", "ct0^1", "ct0^2"]
    # both come from the N-side family, whose generators are quadrics
    assert [(t, str(e)) for t, e in eqs] == [(2, "c0^1*ct0^2 + ct0^1"),
                                             (2, "c0^2*ct0^2 + 1")]
    gb = buchberger([e for _, e in eqs])
    assert not gb.is_trivial()
    assert quotient_dimension(gb, nvars=ring.nvars) == 2


def test_two_points_graph_equations_are_pinned():
    # every scheme the verified-window run keeps, on the window and one
    # degree higher, folded into one digest
    vertices = fixed_points_two_points_p2()
    directions = candidate_refinements(3, (1, 1, 1), (1, 2))
    lines = []
    for i, j in combinations(range(len(vertices)), 2):
        for c in directions:
            for big, small in ((vertices[i], vertices[j]),
                               (vertices[j], vertices[i])):
                try:
                    edge_scheme_general(big, small, ChainWindow(
                        (big, small), c, TWO_POINTS_WINDOW))
                except ValueError:
                    continue
                for degrees in (TWO_POINTS_WINDOW, TWO_POINTS_WINDOW + (4,)):
                    ring, eqs = edge_scheme_general(big, small, ChainWindow(
                        (big, small), c, degrees))
                    lines.append(repr((i, j, c, degrees,
                                       [v.label() for v in ring.vars],
                                       [str(e) for _, e in eqs])))
                break
    assert len(lines) == 36
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "29af4a869f0c967962203fe4e5de7ad78ac5ad321a0b10887aac9b96ce7971c5")


def test_two_points_graph_output_is_pinned():
    _, edges, dims = two_points_graph(verify_window=True)
    text = repr((sorted(edges.items()), sorted(dims.items())))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bc3b8e6176c03bb816c4098ea35f062b68cc624a3a2143f4979fdb8ab277d8eb")


def test_two_points_graph_builds_each_chain_partition_once(monkeypatch):
    # one window per direction, built one degree above the window: its
    # partition, and each vertex's chain positions on it, serve the
    # orientation and every scheme along that direction; the fixed points
    # list each window degree's monomials once
    calls = {}

    def counted(name):
        real = getattr(general, name)

        def wrapped(*args):
            calls.setdefault(name, []).append(args)
            return real(*args)
        return wrapped

    for name in ("degree_classes", "chain_positions", "_monomials_of_degree"):
        monkeypatch.setattr(general, name, counted(name))
    two_points_graph(verify_window=True)
    assert {name: len(args) for name, args in calls.items()} == {
        "degree_classes": 6, "chain_positions": 54,
        "_monomials_of_degree": 4 + 2 + 6 * 5}
    assert all(args[-1] == TWO_POINTS_WINDOW + (4,)
               for args in calls["degree_classes"])


def test_one_build_serves_both_windows(monkeypatch):
    # the verified run builds each of its 18 oriented schemes once, one
    # degree above the window; the window's equations are the ones tagged
    # at most 3, exactly as a build on the window itself gives them
    builds = []
    rows = []
    real_build = general.edge_scheme_general
    real_reduce = general.reduce_row

    def reduced(*args):
        out = real_reduce(*args)
        rows.append(len(out))
        return out

    def built(M, N, window):
        rows.clear()
        ring, eqs = real_build(M, N, window)
        # the N-side family is reduced last, one row per generator of N
        builds.append((M, N, window, ring, eqs, rows[-len(N.gens):]))
        return ring, eqs

    monkeypatch.setattr(general, "reduce_row", reduced)
    monkeypatch.setattr(general, "edge_scheme_general", built)
    two_points_graph(verify_window=True)
    monkeypatch.undo()
    assert len(builds) == 18
    # the builds along one direction share its window
    shared = {window.c: window for _, _, window, *_ in builds}
    assert all(window is shared[window.c] for _, _, window, *_ in builds)
    wide = TWO_POINTS_WINDOW + (4,)
    for M, N, window, ring, eqs, n_rows in builds:
        assert window.degrees == wide
        assert all(t in wide for t, _ in eqs)
        n_tags = [t for t, _ in eqs[len(eqs) - sum(n_rows):]]
        assert n_tags == [N.degree(g) for g, k in zip(N.gens, n_rows)
                          for _ in range(k)]
        narrow_ring, narrow = edge_scheme_general(
            M, N, ChainWindow((M, N), window.c, TWO_POINTS_WINDOW))
        assert ([v.label() for v in narrow_ring.vars]
                == [v.label() for v in ring.vars])
        assert ([(t, str(e)) for t, e in narrow]
                == [(t, str(e)) for t, e in eqs if t <= 3])


def _leave_a_generator(real):
    def stray(row, M, elements):
        out = real(row, M, elements)
        gen = M.gens[0]
        out[gen] = elements[0][gen]
        return out
    return stray


def test_reduction_that_leaves_an_in_ideal_monomial_raises(monkeypatch):
    # a remainder must lie on standard monomials; the check raises in
    # process and under -O, which strips asserts
    M = from_saturation(0, (0, 0, 2))
    N = from_saturation(0, (0, 2, 0))
    monkeypatch.setattr(general, "reduce_row",
                        _leave_a_generator(general.reduce_row))
    with pytest.raises(RuntimeError, match="in-ideal monomial"):
        edge_scheme_general(M, N, ChainWindow((M, N), (0, 1, -1),
                                              TWO_POINTS_WINDOW))
    src = os.path.dirname(os.path.dirname(os.path.abspath(tgraph.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run(
        [sys.executable, "-O", "-c",
         "from oracles import from_saturation\n"
         "from test_general import _leave_a_generator\n"
         "from tgraph import general\n"
         "general.reduce_row = _leave_a_generator(general.reduce_row)\n"
         "M = from_saturation(0, (0, 0, 2))\n"
         "N = from_saturation(0, (0, 2, 0))\n"
         "window = general.ChainWindow((M, N), (0, 1, -1),\n"
         "                             general.TWO_POINTS_WINDOW)\n"
         "try:\n"
         "    general.edge_scheme_general(M, N, window)\n"
         "except RuntimeError as exc:\n"
         "    print('raised', exc)\n"
         "else:\n"
         "    print('returned')\n"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests))),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised reduction left an in-ideal monomial\n", (
        done.stdout)


def test_edge_scheme_errors_reach_the_caller(monkeypatch):
    # a window that misses a syzygy degree must not read as "no edge"
    def misdeclared(*args):
        raise ValueError("syzygy degree 4 falls outside the declared window")

    monkeypatch.setattr("tgraph.general.edge_scheme_general", misdeclared)
    with pytest.raises(ValueError, match="outside the declared window"):
        two_points_graph()


def test_window_that_skips_a_syzygy_degree_is_rejected():
    # the triangle pair's generators all lie in degree 2, inside the
    # window (0, 1, 2, 4), but two of them meet in degree 3, which it skips
    M = from_saturation(0, (0, 0, 2))
    N = from_saturation(0, (0, 2, 0))
    chains = degree_classes(3, (1, 1, 1), (0, 1, -1), TWO_POINTS_WINDOW)
    assert class_dominates(chain_positions(M, chains),
                           chain_positions(N, chains))
    window = ChainWindow((M, N), (0, 1, -1), (0, 1, 2, 4))
    with pytest.raises(ValueError, match="syzygy degree 3 falls outside "
                                         "the declared window"):
        edge_scheme_general(M, N, window)


def test_rejects_equal_ideals_and_bad_directions():
    M = from_saturation(0, (0, 0, 2))
    with pytest.raises(ValueError):
        edge_scheme_general(M, M, ChainWindow((M,), (0, 1, -1),
                                              TWO_POINTS_WINDOW))
    N = from_saturation(0, (0, 2, 0))
    for c in ((0, 1, 1), (0, 0, 0), (0, 1, -1, 0), (1, -1)):
        with pytest.raises(ValueError, match="entries"):
            edge_scheme_general(M, N, ChainWindow((M, N), c,
                                                  TWO_POINTS_WINDOW))
    # different Hilbert values on the window fail the chain counts
    line = NMonomialIdeal(3, ((1, 0, 0),), (1, 1, 1))
    with pytest.raises(ValueError, match="dominate"):
        edge_scheme_general(M, line, ChainWindow((M, line), (0, 1, -1),
                                                 TWO_POINTS_WINDOW))
    with pytest.raises(ValueError, match="outside the window"):
        edge_scheme_general(M, N, ChainWindow((M, N), (0, 1, -1), (0, 1)))
    # an ideal the window does not place has no chain positions to compare
    with pytest.raises(ValueError, match="placed on the window"):
        edge_scheme_general(M, N, ChainWindow((M,), (0, 1, -1),
                                              TWO_POINTS_WINDOW))
    # the same generators in two gradings are not a pair of one scheme
    gens = ((2, 0), (0, 1))
    A = NMonomialIdeal(2, gens, (1, 1))
    B = NMonomialIdeal(2, gens, (1, 2))
    with pytest.raises(ValueError, match="weights"):
        edge_scheme_general(A, B, ChainWindow((A, B), (1, -1), (0, 1, 2)))


def test_verifying_the_window_leaves_the_graph_unchanged(monkeypatch):
    # the check builds one degree higher, but the orientation reads only
    # the window's chains, a prefix of the built ones: both runs compare
    # the same positions and give the same graph.  Positions are compared
    # only where two vertices' per-chain counts agree: 18 of the 36 pairs
    # times 6 directions, each oriented by its first comparison
    real_dominates = general.class_dominates
    real_build = general.edge_scheme_general
    oriented = []
    building = []

    def dominates(pos_m, pos_n):
        if not building:
            oriented[-1].append((pos_m, pos_n))
        return real_dominates(pos_m, pos_n)

    def built(*args):
        building.append(args)
        try:
            return real_build(*args)
        finally:
            building.pop()

    monkeypatch.setattr(general, "class_dominates", dominates)
    monkeypatch.setattr(general, "edge_scheme_general", built)
    oriented.append([])
    plain = two_points_graph()
    oriented.append([])
    verified = two_points_graph(verify_window=True)
    assert plain == verified
    assert oriented[0] == oriented[1] and len(oriented[0]) == 18
    assert all(real_dominates(*pair) for pair in oriented[0])


@pytest.mark.parametrize("verify_window", [False, True])
def test_counts_first_orient_as_the_both_ways_loop(monkeypatch,
                                                   verify_window):
    # a pair whose per-chain counts differ is ordered neither way, so the
    # filter leaves the orientation of the all-pairs, both-ways loop, in
    # the same order: 6 schemes on each of three directions
    vertices = fixed_points_two_points_p2()
    real_build = general.edge_scheme_general
    oriented = []

    def built(M, N, window):
        i, j = vertices.index(M), vertices.index(N)
        oriented.append((min(i, j), max(i, j), window.c, i))
        return real_build(M, N, window)

    monkeypatch.setattr(general, "edge_scheme_general", built)
    two_points_graph(verify_window=verify_window)
    directions = candidate_refinements(3, (1, 1, 1), (1, 2))
    assert oriented == both_ways_orientation(vertices, directions,
                                             TWO_POINTS_WINDOW)
    assert Counter(c for _, _, c, _ in oriented) == {
        (0, 1, -1): 6, (1, -1, 0): 6, (1, 0, -1): 6}


def test_two_points_graph_matches_published_shape():
    vertices, edges, dims = two_points_graph(verify_window=True)
    assert len(vertices) == 9
    assert len(edges) == 18
    label = {i + 1: saturation_label(v) for i, v in enumerate(vertices)}
    dim2 = sorted(sorted((label[i], label[j]))
                  for (i, j), d in dims.items() if d == 2)
    assert dim2 == sorted([
        sorted(["<x0, x2^2>", "<x0, x1^2>"]),
        sorted(["<x1, x2^2>", "<x1, x0^2>"]),
        sorted(["<x2, x1^2>", "<x2, x0^2>"]),
    ])
    assert all(d in (1, 2) for d in dims.values())
    # edge orbit structure: five types times the symmetric group, minus
    # stabilizers, gives eighteen edges; check the degree sequence instead
    degree = {}
    for (i, j) in edges:
        degree[i] = degree.get(i, 0) + 1
        degree[j] = degree.get(j, 0) + 1
    assert sorted(degree.values()) == [4] * 9


def test_cross_engine_agreement_on_the_plane():
    # the windowed generic engine and the staircase engine must agree on
    # two-variable pairs
    from tgraph.arrows import oriented_pair
    from tgraph.cells import edge_ideal
    from tgraph.monomial import (Grading, enumerate_ideals, hilbert_function)

    for d in (3, 4):
        pool = enumerate_ideals(d)
        for gi in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1)):
            g = Grading(*gi)
            for A, B in combinations(pool, 2):
                if hilbert_function(A, g) != hilbert_function(B, g):
                    continue
                pair = oriented_pair(A, B, g)
                if pair is None:
                    continue
                big, small = pair.big, pair.small
                gens = edge_ideal(pair).nonzero_generators()
                verdict = buchberger(gens).is_trivial()

                weights = (g.alpha, g.beta)
                M2 = NMonomialIdeal(2, big.gens, weights)
                N2 = NMonomialIdeal(2, small.gens, weights)
                degrees = sorted({M2.degree(x) for x in M2.gens}
                                 | {N2.degree(x) for x in N2.gens}
                                 | {M2.degree(tuple(max(u, v) for u, v in
                                               zip(p, q)))
                                    for p, q in combinations(M2.gens, 2)})
                c = (g.beta, -g.alpha)
                ring, eqs = edge_scheme_general(
                    M2, N2, ChainWindow((M2, N2), c, degrees))
                assert all(t in degrees for t, _ in eqs)
                assert buchberger([e for _, e in eqs]).is_trivial() == (
                    verdict), (big, small, gi)


def test_chain_dominance_matches_the_plane_engine():
    # on two-variable pairs, dominance read off chain positions must agree
    # with the staircase engine's dominance, in both orders
    from tgraph.monomial import Grading, enumerate_ideals, hilbert_function

    compared = 0
    for d in range(1, 7):
        pool = enumerate_ideals(d)
        for gi in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3)):
            g = Grading(*gi)
            for A, B in combinations(pool, 2):
                if hilbert_function(A, g) != hilbert_function(B, g):
                    continue
                top = max(g.weight(s) for s in A.standard_monomials())
                chains = degree_classes(2, gi, (g.beta, -g.alpha),
                                        range(top + 1))
                pos_a = chain_positions(NMonomialIdeal(2, A.gens, gi), chains)
                pos_b = chain_positions(NMonomialIdeal(2, B.gens, gi), chains)
                for X, Y, pos_x, pos_y in ((A, B, pos_a, pos_b),
                                           (B, A, pos_b, pos_a)):
                    dominates = class_dominates(pos_x, pos_y)
                    assert dominates == (top_first(X, Y, g) is not None)
                    # the orientation's count filter skips no such pair
                    if dominates:
                        assert (list(map(len, pos_x))
                                == list(map(len, pos_y)))
                compared += 2
    assert compared == 120


@pytest.mark.parametrize("args, message", [
    ((3, ((1, 0),), (1, 1, 1)), "generators must have nvars nonnegative"),
    ((2, ((1, 0, 0),), (1, 1)), "generators must have nvars nonnegative"),
    ((2, ((0, -1),), (1, 1)), "generators must have nvars nonnegative"),
    ((2, ((1, 0), (0, 1)), (0, 1)), "weights must be positive"),
    ((2, ((1, 0),), (1, 1.5)), "weights must be positive"),
    ((2, ((1, 0),), (1, 1, 1)), "weights must have nvars entries"),
    ((0, (), ()), "nvars must be a positive int"),
    ((2, ((1, 0), (2, 0)), (1, 1)), "generators are not minimal"),
], ids=["short-generator", "long-generator", "negative-exponent",
        "zero-weight", "fractional-weight", "weights-length", "no-variables",
        "not-minimal"])
def test_malformed_ideals_are_rejected(args, message):
    # before the checks, a short generator read as a prefix, a zero weight
    # divided by zero and a negative exponent read as "not minimal"
    with pytest.raises(ValueError, match=message):
        NMonomialIdeal(*args)


def test_j_index_is_the_least_dividing_generator():
    # the divisor choice of poly.reduce_row on a window ideal, as
    # MonomialIdeal2.j_index's largest index is the lexicographically least
    M = from_saturation(0, (0, 0, 2))  # <x0^2, x0*x1, x0*x2, x2^2>
    assert M.gens == ((0, 0, 2), (1, 0, 1), (1, 1, 0), (2, 0, 0))
    assert [M.j_index(m) for m in ((2, 1, 1), (1, 1, 2), (0, 3, 2))] == [
        1, 0, 0]
    assert M.j_index((3, 0, 0)) == 3
    with pytest.raises(ValueError, match="not in the ideal"):
        M.j_index((0, 2, 1))


def test_each_membership_question_is_decided_once(monkeypatch):
    decided = []
    ideals = []
    real = NMonomialIdeal._generated

    def counted(self, m):
        ideals.append(self)  # keeps every id unique while the run lasts
        decided.append((id(self), m))
        return real(self, m)

    monkeypatch.setattr(NMonomialIdeal, "_generated", counted)
    two_points_graph(verify_window=True)
    assert len(decided) == len(set(decided)) == 435


def test_stored_answers_leave_equality_hash_repr_and_pickle():
    asked = from_saturation(0, (0, 0, 2))
    fresh = from_saturation(0, (0, 0, 2))
    for m in ((0, 0, 2), (0, 1, 1), (1, 0, 0), (0, 0, 0)):
        asked.contains(m)
    assert asked == fresh and hash(asked) == hash(fresh)
    assert repr(asked) == repr(fresh)
    copy = pickle.loads(pickle.dumps(asked))
    assert copy == fresh and hash(copy) == hash(fresh)
    assert repr(copy) == repr(fresh)
    assert [copy.contains(m) for m in ((0, 0, 2), (0, 1, 1), (0, 0, 0))] == [
        True, False, False]


def test_two_points_solver_work_is_pinned(monkeypatch):
    stats = []
    real = general.buchberger

    def recorded(*args, **kwargs):
        gb = real(*args, **kwargs)
        stats.append(gb.stats)
        return gb

    updates = []
    real_add = general.add_into
    division = poly.reduce_row.__code__

    def counted(*args):
        updates.append(args[1])
        return real_add(*args)

    def counted_in_division(*args):
        # poly's own arithmetic updates rows too; count only the division's
        if sys._getframe(1).f_code is division:
            updates.append(args[1])
        return real_add(*args)

    monkeypatch.setattr(general, "buchberger", recorded)
    monkeypatch.setattr(general, "add_into", counted)
    monkeypatch.setattr(poly, "add_into", counted_in_division)
    two_points_graph(verify_window=True)
    # one solve per oriented scheme: degree 4 adds no equation to any of
    # them, so the check has nothing new to solve; the presolve took the
    # totals from 95/92/66
    assert len(stats) == 18
    totals = {key: sum(s[key] for s in stats)
              for key in ("s_pairs", "reduction_steps", "basis_size")}
    assert totals == {"s_pairs": 51, "reduction_steps": 22,
                      "basis_size": 36}
    # the row updates of building the schemes, poly.reduce_row's included;
    # the same under every hash seed
    assert len(updates) == 365
    updates.clear()
    two_points_graph()
    assert len(updates) == 266


def _one_above(real):
    def built(*args):
        ring, eqs = real(*args)
        return ring, eqs + [(4, ring.one())]
    return built


def test_the_window_check_fires_when_degree_four_kills_an_edge(monkeypatch):
    # a unit equation tagged one degree above the window turns every edge
    # scheme empty there; the check must raise, in process and under -O
    monkeypatch.setattr(general, "edge_scheme_general",
                        _one_above(general.edge_scheme_general))
    with pytest.raises(RuntimeError,
                       match="changes one degree above the window"):
        two_points_graph(verify_window=True)
    src = os.path.dirname(os.path.dirname(os.path.abspath(tgraph.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run(
        [sys.executable, "-O", "-c",
         "from test_general import _one_above\n"
         "from tgraph import general\n"
         "general.edge_scheme_general = _one_above(\n"
         "    general.edge_scheme_general)\n"
         "try:\n"
         "    general.two_points_graph(verify_window=True)\n"
         "except RuntimeError as exc:\n"
         "    print('raised', exc)\n"
         "else:\n"
         "    print('returned')\n"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests))),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised "), done.stdout
    assert done.stdout.endswith(
        "the verdict changes one degree above the window\n"), done.stdout


def test_reversed_vertices_orient_each_pair_the_other_way(monkeypatch):
    # listing the vertices backwards puts every dominant ideal second, so
    # each scheme is built with its pair reversed and the graph is the same
    # one relabelled i -> 10 - i
    _, edges, dims = two_points_graph(verify_window=True)
    real_vertices = general.fixed_points_two_points_p2
    real_build = general.edge_scheme_general
    vertices = real_vertices()[::-1]
    later_first = []

    def built(M, N, *args):
        later_first.append(vertices.index(M) > vertices.index(N))
        return real_build(M, N, *args)

    monkeypatch.setattr(general, "fixed_points_two_points_p2",
                        lambda: list(vertices))
    monkeypatch.setattr(general, "edge_scheme_general", built)
    _, rev_edges, rev_dims = two_points_graph(verify_window=True)
    assert len(later_first) == 18 and all(later_first)

    def relabel(key):
        return (10 - key[1], 10 - key[0])

    assert {relabel(k): v for k, v in rev_edges.items()} == edges
    assert {relabel(k): v for k, v in rev_dims.items()} == dims
