import hashlib
import json

from tgraph import assembly
from tgraph.arrows import arrow_map_exists, dual_condition
from tgraph.assembly import (EdgeCache, PipelineDepth, build_tgraph,
                             coprime_gradings, count_row, count_table,
                             filters_passed, graph_to_csv,
                             graph_to_dot, graph_to_json, pair_grading_jobs,
                             table_to_csv)
from tgraph.cells import significant_arrows
from tgraph.edges import EdgeStatus, oriented_pair
from tgraph.groebner import DEFAULT_BUDGET
from tgraph.monomial import Grading, enumerate_ideals, parse_ideal

from oracles import hf_bucket_jobs, sample_two_sided_edges

G11 = Grading(1, 1)

FOUR_POINT_EDGES = {(1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4), (3, 5),
                    (4, 5)}
FOUR_POINT_GRADINGS = {(1, 2): (1, 3), (1, 3): (1, 2), (1, 5): (1, 1),
                       (2, 3): (1, 1), (2, 4): (1, 1), (3, 4): (1, 1),
                       (3, 5): (2, 1), (4, 5): (3, 1)}


def test_candidate_gradings_examples():
    # a job is a pair of vertex indices (from 1) and a grading, up to the
    # colength, under which the two share a Hilbert function
    M = parse_ideal("<x^4, y>")
    N = parse_ideal("<x, y^4>")
    assert pair_grading_jobs([M, N]) == [((1, 2), G11)]
    assert pair_grading_jobs([parse_ideal("<x^4, y>"),
                              parse_ideal("<x^2, x*y, y^3>")]) == []
    assert pair_grading_jobs([parse_ideal("<x, y>"),
                              parse_ideal("<x^2, y>")]) == []


def test_jobs_match_hilbert_function_buckets():
    for d in range(1, 13):
        vertices = enumerate_ideals(d)
        assert pair_grading_jobs(vertices) == hf_bucket_jobs(vertices, d)


def test_jobs_for_colengths_13_to_16_are_pinned(monkeypatch):
    # the job list was recorded while every ideal got a Hilbert function per
    # grading (90657 calls); grouping on weight power sums first leaves
    # 7342, and the count moves only with that grouping
    calls = []
    real = assembly.hilbert_function

    def counted(M, g):
        calls.append(None)
        return real(M, g)

    monkeypatch.setattr(assembly, "hilbert_function", counted)
    jobs = [[d, i, j, g.alpha, g.beta] for d in range(13, 17)
            for (i, j), g in pair_grading_jobs(enumerate_ideals(d))]
    assert len(jobs) == 9105
    assert hashlib.sha256(json.dumps(jobs).encode()).hexdigest() == (
        "9e4c47181508eb465f006e8c5d05d8e8e3f3b8ff898bf806e7543602222782f9")
    assert len(calls) == 7342


def test_candidate_census_totals():
    # arrows over all candidate directions, plus the two degenerate ones,
    # account for the full tangent space
    for d in (3, 5, 7):
        for M in enumerate_ideals(d):
            total = M.a0 + M.be
            for g in coprime_gradings(d):
                arrows = significant_arrows(M, g)
                total += len(arrows.positive) + len(arrows.negative)
            assert total == 2 * d


def test_four_point_graph():
    graph = build_tgraph(4, PipelineDepth.FULL, with_dimension=True)
    assert graph.simple_edges == FOUR_POINT_EDGES
    for (i, j), grading in FOUR_POINT_GRADINGS.items():
        assert [(g.alpha, g.beta) for g in graph.edge_gradings(i, j)] == [
            grading]
    dims = {}
    for key, rec in zip(graph.keys, graph.records):
        if rec.status is EdgeStatus.EDGE:
            dims[key[0]] = rec.dimension
    assert dims[(2, 4)] == 2
    assert all(dims[e] == 1 for e in FOUR_POINT_EDGES if e != (2, 4))


def test_one_point_graph():
    graph = build_tgraph(1, PipelineDepth.FULL)
    assert len(graph.vertices) == 1
    assert graph.simple_edges == set()
    assert graph.records == []


def test_three_point_graph_matches_sampling_oracle():
    graph = build_tgraph(3, PipelineDepth.FULL)
    assert graph.simple_edges == sample_two_sided_edges(3)


def test_depth_chain_consistency():
    # deepening the pipeline can only turn unknowns into verdicts
    full = build_tgraph(4, PipelineDepth.FULL)
    for depth in (PipelineDepth.ORDER_ONLY, PipelineDepth.ARROWMAP,
                  PipelineDepth.DUAL):
        shallow = build_tgraph(4, depth)
        assert shallow.keys == full.keys
        assert shallow.simple_edges == set()
        for rec_s, rec_f in zip(shallow.records, full.records):
            if rec_s.status is EdgeStatus.NO_EDGE:
                assert rec_f.status is EdgeStatus.NO_EDGE
            else:
                assert rec_s.status is EdgeStatus.UNKNOWN
    assert {k[0] for k, r in zip(full.keys, full.records)
            if r.status is EdgeStatus.EDGE} == FOUR_POINT_EDGES


def test_vertices_do_not_depend_on_depth():
    for depth in PipelineDepth:
        graph = build_tgraph(3, depth)
        assert graph.vertices == enumerate_ideals(3)


def test_necessity_chain_on_conditions():
    # every depth runs the same chain, cut after the conditions it asks for
    for d in (4, 5):
        vertices = enumerate_ideals(d)
        for (i, j), g in pair_grading_jobs(vertices):
            M, N = vertices[i - 1], vertices[j - 1]
            passed = filters_passed(M, N, g, PipelineDepth.DUAL)
            assert filters_passed(M, N, g, PipelineDepth.FULL) == passed
            assert filters_passed(
                M, N, g, PipelineDepth.ARROWMAP) == min(passed, 2)
            assert filters_passed(
                M, N, g, PipelineDepth.ORDER_ONLY) == min(passed, 1)
            oriented = oriented_pair(M, N, g)
            assert (passed >= 1) == (oriented is not None)
            if oriented is None:
                continue
            big, small = oriented
            arrow = arrow_map_exists(big, small, g) is not None
            assert (passed >= 2) == arrow
            if arrow:
                dual = dual_condition(big, small, g)[0] is not None
                assert (passed == 3) == dual


def test_count_rows_published_range():
    rows = count_table(4, 6, PipelineDepth.FULL)
    flat = [(r.d, r.ideals, r.pairs, r.ordered, r.arrowmap, r.dual, r.edges)
            for r in rows]
    assert flat == [(4, 5, 10, 8, 8, 8, 8),
                    (5, 7, 21, 15, 15, 15, 15),
                    (6, 11, 55, 37, 37, 37, 37)]
    assert all(r.unknown == 0 for r in rows)


def test_count_row_depth_columns():
    row = count_row(4, PipelineDepth.DUAL)
    assert row.edges is None
    assert row.as_list()[-1] == ""
    row = count_row(4, PipelineDepth.ORDER_ONLY)
    assert (row.ordered, row.arrowmap, row.dual) == (8, 0, 0)


def test_column_monotonicity():
    for d in (4, 5, 6, 7):
        row = count_row(d, PipelineDepth.FULL)
        assert (row.edges <= row.dual <= row.arrowmap <= row.ordered
                <= row.pairs)


def test_full_row_under_exhausted_budgets():
    # an exhausted budget turns an edge into an unknown, never a non-edge
    pins = {6: [(21, 16), (27, 10), (30, 7), (31, 6)],
            7: [(34, 18), (41, 11), (43, 9), (45, 7)]}
    for d, expected in pins.items():
        got = []
        for budget in (1, 2, 4, 8):
            row = count_row(d, PipelineDepth.FULL, budget=budget)
            got.append((row.edges, row.unknown))
        assert got == expected
        full = count_row(d, PipelineDepth.FULL).edges
        assert {edges + unknown for edges, unknown in got} == {full}


def test_table_and_graph_share_cache_records(tmp_path):
    cache = EdgeCache(str(tmp_path))
    row = count_row(6, PipelineDepth.FULL, cache=cache)
    files = sorted(tmp_path.iterdir())
    graph = build_tgraph(6, PipelineDepth.FULL, cache=cache)
    assert sorted(tmp_path.iterdir()) == files
    assert len(files) == len(graph.records)
    assert row.edges == len(graph.simple_edges)


def test_table_csv_shape():
    text = table_to_csv(count_table(4, 5, PipelineDepth.DUAL))
    lines = text.strip().split("\n")
    assert lines[0] == ("d,ideals,pairs,pairs_ordered,pairs_arrowmap,"
                        "pairs_dual_arrowmap,edges")
    assert lines[1] == "4,5,10,8,8,8,"
    assert lines[2] == "5,7,21,15,15,15,"


def test_graph_exports():
    graph = build_tgraph(4, PipelineDepth.FULL, with_dimension=True)
    dot = graph_to_dot(graph)
    assert dot.count(" -- ") == 8
    assert dot.count("label=") == 5 + 8
    data = json.loads(graph_to_json(graph))
    assert data["simple_edges"] == sorted(map(list, FOUR_POINT_EDGES))
    assert len(data["records"]) == len(data["keys"]) == len(graph.records)
    csv_text = graph_to_csv(graph)
    assert csv_text.splitlines()[0] == "i,j,alpha,beta,status,dimension"
    assert len(csv_text.splitlines()) == len(graph.records) + 1


def test_empty_graph_export():
    graph = build_tgraph(1, PipelineDepth.FULL)
    assert graph_to_dot(graph).startswith("graph tgraph_d1 {")
    data = json.loads(graph_to_json(graph))
    assert data["simple_edges"] == []
    assert data["records"] == data["keys"] == []


def test_cache_round_trip(tmp_path):
    cache = EdgeCache(str(tmp_path))
    row1 = count_row(4, PipelineDepth.FULL, cache=cache)
    files = list(tmp_path.iterdir())
    assert files
    row2 = count_row(4, PipelineDepth.FULL, cache=cache)
    assert row1 == row2
    assert list(tmp_path.iterdir()) == files


def test_cache_writers_of_one_record_do_not_collide(tmp_path, monkeypatch):
    cache = EdgeCache(str(tmp_path))
    record = build_tgraph(2, PipelineDepth.FULL).records[0]
    real_dump = json.dump
    entered = []

    def dump_with_a_second_writer(obj, fh, **kwargs):
        # The second writer of the same record runs to completion while the
        # first is between opening its temp file and renaming it.
        if not entered:
            entered.append(True)
            cache.put(record, DEFAULT_BUDGET, False)
        real_dump(obj, fh, **kwargs)

    monkeypatch.setattr(json, "dump", dump_with_a_second_writer)
    cache.put(record, DEFAULT_BUDGET, False)
    monkeypatch.undo()
    assert entered
    files = list(tmp_path.iterdir())
    assert len(files) == 1 and files[0].suffix == ".json"
    M, N = record.pair
    assert cache.get(M, N, record.grading, DEFAULT_BUDGET, False) == record


def test_threaded_build_fills_the_cache(tmp_path):
    cache = EdgeCache(str(tmp_path))
    par = build_tgraph(4, PipelineDepth.FULL, with_dimension=True,
                       cache=cache, threads=2)
    assert len(list(tmp_path.iterdir())) == len(par.records)
    warm = build_tgraph(4, PipelineDepth.FULL, with_dimension=True,
                        cache=cache)
    assert graph_to_json(warm) == graph_to_json(par)


def test_threaded_build_matches_sequential():
    seq = build_tgraph(4, PipelineDepth.FULL, with_dimension=True)
    par = build_tgraph(4, PipelineDepth.FULL, with_dimension=True, threads=2)
    assert seq.simple_edges == par.simple_edges
    assert [r.status for r in seq.records] == [r.status for r in par.records]
    assert [r.dimension for r in seq.records] == [
        r.dimension for r in par.records]
