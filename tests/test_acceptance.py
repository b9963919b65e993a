"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Two assertions in criterion groups 1 and 2 encode previously published
values that three independent computation routes in this package contradict
(division against the reduced basis, direct chain enumeration, and numeric
specialization).  They are kept as stated and fail; every surrounding
verified value is asserted separately.  See the failing tests' names.
"""
import json
import os
import random
import time
from fractions import Fraction

import pytest

from tgraph.arrows import arrow_map_exists, dual_condition
from tgraph.assembly import (PipelineDepth, build_tgraph, coprime_gradings,
                             count_table)
from tgraph.cells import (cell_generators_f, cell_generators_g, edge_ideal,
                          reduce_monomial, significant_arrows,
                          tangent_weight_count)
from tgraph.edges import EdgeStatus, decide_edge, oriented_pair
from tgraph.groebner import buchberger, quotient_dimension
from tgraph.induced import cell_point, initial_ideal
from tgraph.monomial import (Grading, colon_box, enumerate_ideals,
                             format_monomial, hilbert_function, parse_ideal,
                             parse_monomial)
from tgraph.strolls import edge_ideal_hikes

from oracles import sample_two_sided_edges

G11 = Grading(1, 1)
DATA = json.load(open(os.path.join(os.path.dirname(__file__), "data",
                                   "published_values.json")))


def report(tag, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {tag}: {status}{' ' + detail if detail else ''}")
    assert ok, f"{tag} {detail}"


def rows_as_lists(rows, full):
    out = {}
    for r in rows:
        cols = [r.ideals, r.pairs, r.ordered, r.arrowmap, r.dual]
        if full:
            cols.append(r.edges)
        out[str(r.d)] = cols
    return out


def published_poly(ring, terms):
    label_to_var = {v.label(): v for v in ring.vars}
    acc = {}
    for coeff, powers in terms:
        exps = [0] * ring.nvars
        for label, e in powers.items():
            exps[ring.index[label_to_var[label]]] += e
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + coeff
    return ring.poly(acc)


# --- criterion 1: table reproduction ---------------------------------------

def test_criterion_1_full_table_rows_4_8_except_published_erratum():
    start = time.time()
    rows = count_table(4, 8, PipelineDepth.FULL)
    elapsed = time.time() - start
    got = rows_as_lists(rows, full=True)
    expected = DATA["full_rows_4_8"]
    ok = all(got[d] == expected[d] for d in ("4", "5", "6", "8"))
    ok = ok and got["7"][:2] == expected["7"][:2]
    ok = ok and got["7"][3:] == expected["7"][3:]
    ok = ok and all(r.unknown == 0 for r in rows)
    ok = ok and elapsed < 600
    report("1 full table rows 4..8 (erratum cell excluded)", ok,
           f"{elapsed:.1f}s")


def test_criterion_1_published_row7_ordered_column():
    rows = count_table(7, 7, PipelineDepth.DUAL)
    got = rows_as_lists(rows, full=False)["7"]
    ok = got == DATA["dual_rows_4_12"]["7"]
    report("1 published row d=7 ordered column", ok,
           f"computed {got}, published {DATA['dual_rows_4_12']['7']}")


def test_criterion_1_verified_row7_recount():
    rows = count_table(7, 7, PipelineDepth.DUAL)
    got = rows_as_lists(rows, full=False)["7"]
    report("1 verified recount of row d=7", got == DATA["verified_row_7_dual"])


def test_criterion_1_dual_table_rows_4_12():
    start = time.time()
    rows = count_table(4, 12, PipelineDepth.DUAL)
    elapsed = time.time() - start
    got = rows_as_lists(rows, full=False)
    expected = DATA["dual_rows_4_12"]
    ok = all(got[str(d)] == expected[str(d)]
             for d in range(4, 13) if d != 7)
    ok = ok and elapsed < 1200
    report("1 combinatorial columns 4..12 (erratum cell excluded)", ok,
           f"{elapsed:.1f}s")


def test_criterion_1_dual_table_rows_13_16():
    start = time.time()
    rows = count_table(13, 16, PipelineDepth.DUAL)
    elapsed = time.time() - start
    got = rows_as_lists(rows, full=False)
    ok = got == DATA["dual_rows_13_16"] and elapsed < 600
    report("1 combinatorial columns 13..16", ok, f"{elapsed:.1f}s")


# --- criterion 2: golden symbolic examples ----------------------------------

M21 = parse_ideal("<x^8, x^5*y, x^3*y^3, y^4>")
N21 = parse_ideal("<x^8, x^5*y, x^2*y^2, y^6>")


def test_criterion_2_cell_generators():
    start = time.time()
    basis = cell_generators_f(M21, G11)
    shown = {format_monomial(m): str(p) for m, p in basis.elements[3].items()}
    ok = (
        {format_monomial(m): str(p)
         for m, p in basis.elements[0].items()} == {"x^8": "1"}
        and {format_monomial(m): str(p)
             for m, p in basis.elements[1].items()}
        == {"x^5*y": "1", "x^6": "c1^1"}
        and {format_monomial(m): str(p)
             for m, p in basis.elements[2].items()}
        == {"x^3*y^3": "1", "x^4*y^2": "c1^1 + c2^1",
            "x^5*y": "c1^1*c2^1", "x^6": "c2^3"}
        and shown == {
            "y^4": "1", "x*y^3": "c1^1 + c2^1 + c3^1",
            "x^2*y^2": "c1^1*c2^1 + c1^1*c3^1 + c2^1*c3^1 + c3^2",
            "x^3*y": "c1^1*c2^1*c3^1 + c1^1*c3^2 + c2^3 + c3^3",
            "x^4": "c2^3*c3^1 + c1^1*c3^3"}
    )
    report("2 recursive cell generators", ok and time.time() - start < 1)


def test_criterion_2_small_edge_ideal():
    start = time.time()
    E = edge_ideal(oriented_pair(parse_ideal("<x^5, y^2>"),
                                 parse_ideal("<x^2, y^5>"), G11))
    got = {(format_monomial(n), format_monomial(s)): str(p)
           for n, s, p in E.generators}
    ok = got == {
        ("y^5", "x^4*y"): "c1^1**4 - 3*c1^1**2*c1^2 + c1^2**2",
        ("x^2", "x*y"): "-c1^1*ct1^2 + ct1^1",
        ("x^2", "x^2"): "-c1^2*ct1^2 + 1",
    }
    report("2 small edge ideal under the dictionary a,b,c,d", ok and
           time.time() - start < 1)


def test_criterion_2_published_reduction_displays():
    gbasis = cell_generators_g(M21, G11)
    problems = []
    for mono, key in (((2, 4), "reduction_x2y4_to_x6"),
                      ((1, 5), "reduction_xy5_to_x6")):
        nf = reduce_monomial(mono, gbasis)
        got = nf.get((6, 0), gbasis.ring.zero())
        want = published_poly(gbasis.ring, DATA[key])
        if got != want:
            problems.append(f"{format_monomial(mono)}: computed {got}; "
                            f"published {want}")
    report("2 published reduction displays", not problems,
           "; ".join(problems))


def test_criterion_2_published_edge_polynomials():
    E = edge_ideal(oriented_pair(M21, N21, G11))
    problems = []
    for (n, s), key in ((((2, 2), (1, 3)), "edge_poly_x2y2_xy3"),
                        (((5, 1), (6, 0)), "edge_poly_x5y_x6")):
        got = E.generator(n, s)
        want = published_poly(E.ring, DATA[key])
        if got != want:
            problems.append(
                f"F[{format_monomial(n)}; {format_monomial(s)}]: "
                f"computed {got}; published {want}")
    report("2 published edge polynomial displays", not problems,
           "; ".join(problems))


def test_criterion_2_verified_edge_polynomials_cross_route():
    start = time.time()
    A = edge_ideal(oriented_pair(M21, N21, G11))
    B = edge_ideal_hikes(M21, N21, G11)
    ok = all((n1, s1) == (n2, s2) and p.terms == q.terms
             for (n1, s1, p), (n2, s2, q) in zip(A.generators, B.generators))
    report("2 verified edge polynomials, two independent routes",
           ok and time.time() - start < 5)


# --- criterion 3: the four-point graph --------------------------------------

def test_criterion_3_four_point_graph():
    start = time.time()
    graph = build_tgraph(4, PipelineDepth.FULL, with_dimension=True)
    elapsed = time.time() - start
    edges = {(1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)}
    gradings = {(1, 2): [(1, 3)], (1, 3): [(1, 2)], (1, 5): [(1, 1)],
                (2, 3): [(1, 1)], (2, 4): [(1, 1)], (3, 4): [(1, 1)],
                (3, 5): [(2, 1)], (4, 5): [(3, 1)]}
    ok = graph.simple_edges == edges
    for e, gs in gradings.items():
        ok = ok and [(g.alpha, g.beta) for g in graph.edge_gradings(*e)] == gs
    dims = {k[0]: r.dimension for k, r in zip(graph.keys, graph.records)
            if r.status is EdgeStatus.EDGE}
    ok = ok and dims[(2, 4)] == 2
    ok = ok and all(dims[e] == 1 for e in edges if e != (2, 4))
    ok = ok and elapsed < 30
    report("3 four-point graph with gradings and dimensions", ok,
           f"{elapsed:.1f}s")


# --- criterion 4: the discriminating pair -----------------------------------

def test_criterion_4_discriminating_pair_and_column_gap():
    start = time.time()
    M = parse_ideal("<x^5, x^3*y^2, y^4>")
    N = parse_ideal("<x^4, x^3*y^3, x*y^4, y^5>")
    pair = oriented_pair(M, N, G11)
    ok = pair.big is M and arrow_map_exists(pair) is not None
    ok = ok and dual_condition(pair)[0] is None
    # no map on the quotients' y-smaller side either, in the order there
    ok = ok and arrow_map_exists(oriented_pair(
        colon_box((5, 5), M).swap(), colon_box((5, 5), N).swap(), G11)) is None

    vertices = enumerate_ideals(16)
    index = {V: i + 1 for i, V in enumerate(vertices)}
    target_pairs = {
        tuple(sorted((index[M], index[N]))),
        tuple(sorted((index[M.swap()], index[N.swap()]))),
    }
    arrow_pairs = set()
    dual_pairs = set()
    for g in coprime_gradings(16):
        buckets = {}
        for V in vertices:
            buckets.setdefault(hilbert_function(V, g), []).append(V)
        for members in buckets.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    A, B = members[i], members[j]
                    key = tuple(sorted((index[A], index[B])))
                    if key in dual_pairs:
                        continue
                    oriented = oriented_pair(A, B, g)
                    if oriented is None:
                        continue
                    if key in arrow_pairs and key not in target_pairs:
                        continue
                    witness = arrow_map_exists(oriented)
                    if witness is None:
                        continue
                    arrow_pairs.add(key)
                    if dual_condition(oriented)[0] is not None:
                        dual_pairs.add(key)
    elapsed = time.time() - start
    gap = arrow_pairs - dual_pairs
    ok = ok and gap == target_pairs
    ok = ok and len(arrow_pairs) == 3033 and len(dual_pairs) == 3031
    ok = ok and elapsed < 600
    report("4 discriminating pair separates the two columns", ok,
           f"{elapsed:.1f}s gap={sorted(gap)}")


# --- criterion 5: property suites -------------------------------------------

def _comparable_pairs(d):
    out = []
    for g in coprime_gradings(d):
        pool = enumerate_ideals(d)
        buckets = {}
        for M in pool:
            buckets.setdefault(hilbert_function(M, g), []).append(M)
        for members in buckets.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    oriented = oriented_pair(members[i], members[j], g)
                    if oriented is not None:
                        out.append(oriented)
    return out


@pytest.mark.slow
def test_criterion_5a_route_equivalence_to_colength_7():
    start = time.time()
    bad = 0
    for d in range(2, 8):
        for pair in _comparable_pairs(d):
            A = edge_ideal(pair)
            B = edge_ideal_hikes(pair.big, pair.small, pair.grading)
            for (n1, s1, p), (n2, s2, q) in zip(A.generators, B.generators):
                if (n1, s1) != (n2, s2) or p.terms != q.terms:
                    bad += 1
    report("5a two routes to the edge equations agree through d=7", bad == 0,
           f"{time.time() - start:.1f}s")


def test_criterion_5a_route_equivalence_to_colength_5():
    bad = 0
    for d in range(2, 6):
        for pair in _comparable_pairs(d):
            A = edge_ideal(pair)
            B = edge_ideal_hikes(pair.big, pair.small, pair.grading)
            for (n1, s1, p), (n2, s2, q) in zip(A.generators, B.generators):
                if (n1, s1) != (n2, s2) or p.terms != q.terms:
                    bad += 1
    report("5a two routes to the edge equations agree through d=5", bad == 0)


def test_criterion_5b_specialization_suite():
    start = time.time()
    rng = random.Random(20240811)
    pool = [M for d in range(2, 9) for M in enumerate_ideals(d)]
    chosen = rng.sample(pool, 20)
    checked = 0
    for M in chosen:
        d = M.colength
        g = Grading(1, 1) if rng.random() < 0.5 else Grading(2, 1)
        arrows = significant_arrows(M, g).positive
        if not arrows:
            g = Grading(1, 1)
            arrows = significant_arrows(M, g).positive
        for _ in range(50):
            values = {a: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for a in arrows}
            rows = cell_point(M, g, values)
            assert initial_ideal(rows, g, d) == M
            checked += 1
    report("5b specializations keep the initial ideal",
           checked == 1000, f"{time.time() - start:.1f}s")


def test_criterion_5c_box_duality_suite():
    rng = random.Random(97)
    pool = [M for d in range(1, 11) for M in enumerate_ideals(d)]
    for _ in range(200):
        M = pool[rng.randrange(len(pool))]
        box = (M.a0 + rng.randrange(0, 4), M.be + rng.randrange(0, 4))
        Q = colon_box(box, M)
        assert Q.colength == box[0] * box[1] - M.colength
        assert colon_box(box, Q) == M
    report("5c box duality and double quotient", True)


def test_criterion_5d_tangent_census_to_colength_10():
    start = time.time()
    for d in range(1, 11):
        for M in enumerate_ideals(d):
            assert tangent_weight_count(M) == 2 * d
    report("5d tangent census equals twice the colength",
           True, f"{time.time() - start:.1f}s")


def test_criterion_5e_necessity_chain_to_colength_7():
    start = time.time()
    violations = []
    for d in range(2, 8):
        for pair in _comparable_pairs(d):
            record = decide_edge(pair.big, pair.small, pair.grading)
            assert record.status is not EdgeStatus.UNKNOWN
            if record.status is EdgeStatus.EDGE:
                if arrow_map_exists(pair) is None:
                    violations.append((pair, "arrow"))
                    continue
                if dual_condition(pair)[0] is None:
                    violations.append((pair, "dual"))
    report("5e every edge passes the combinatorial chain",
           not violations, f"{time.time() - start:.1f}s")


def test_criterion_5f_three_point_graph_matches_sampler():
    graph = build_tgraph(3, PipelineDepth.FULL)
    sampled = sample_two_sided_edges(3)
    report("5f three-point graph equals the sampled two-sided graph",
           graph.simple_edges == sampled)


# --- criterion 6: stretch ----------------------------------------------------

def test_criterion_6_two_points_in_the_projective_plane():
    from tgraph.general import saturation_label, two_points_graph

    start = time.time()
    vertices, edges, dims = two_points_graph(verify_window=True)
    label = {i + 1: saturation_label(v) for i, v in enumerate(vertices)}
    dim2 = sorted(sorted((label[i], label[j]))
                  for (i, j), d in dims.items() if d == 2)
    ok = (len(vertices) == 9 and len(edges) == 18
          and dim2 == sorted([sorted(["<x0, x2^2>", "<x0, x1^2>"]),
                              sorted(["<x1, x2^2>", "<x1, x0^2>"]),
                              sorted(["<x2, x1^2>", "<x2, x0^2>"])]))
    elapsed = time.time() - start
    report("6 two points in the projective plane", ok and elapsed < 1800,
           f"{elapsed:.1f}s")
