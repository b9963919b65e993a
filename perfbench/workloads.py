"""The four workloads: what each calls, how many items it completes, and the
reference check on its output.

Every workload is a full enumeration with fixed inputs, so the run's --seed
selects nothing; it is recorded so that a later workload drawn from a seed
fits the same command line.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from math import comb

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def graph_digest(tg, graph):
    """sha256 of graph_to_json without the per-record work counters.

    ``groebner.time_ms`` is a timing, and ``groebner.s_pairs`` and
    ``generator_count`` count work that an optimisation of the solver or of
    the cell equations is expected to change.  What stays is the answer:
    vertices, (pair, grading) keys, verdicts, dimensions and simple edges.
    """
    data = json.loads(tg.assembly.graph_to_json(graph))
    for rec in data["records"]:
        rec.pop("groebner", None)
        rec.pop("generator_count", None)
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: object  # (tgraph package, cache directory) -> output
    check: object  # (tgraph package, output, reference) -> list of problems
    items: object  # output -> items completed
    unknown: object  # output -> UNKNOWN verdicts
    pool_workers: int = 0  # > 0 when the output comes from the process pool


def _run_dual_table(tg, cache_dir):
    return tg.assembly.count_table(13, 16, tg.assembly.PipelineDepth.DUAL)


def _check_dual_table(tg, rows, ref):
    got = {str(r.d): [r.ideals, r.pairs, r.ordered, r.arrowmap, r.dual]
           for r in rows}
    want = ref["dual_rows_13_16"]
    return [] if got == want else [f"dual rows {got} != {want}"]


def _build(threads):
    def run(tg, cache_dir):
        cache = tg.assembly.EdgeCache(cache_dir) if threads == 1 else None
        return tg.assembly.build_tgraph(
            9, tg.assembly.PipelineDepth.FULL, with_dimension=True,
            threads=threads, cache=cache)
    return run


def _check_graph(tg, graph, ref):
    want = ref["graph_9"]
    problems = []
    if len(graph.vertices) != want["vertices"]:
        problems.append(
            f"{len(graph.vertices)} vertices != {want['vertices']}")
    if len(graph.simple_edges) != want["simple_edges"]:
        problems.append(
            f"{len(graph.simple_edges)} simple edges "
            f"!= {want['simple_edges']}")
    digest = graph_digest(tg, graph)
    if digest != want["digest"]:
        problems.append(f"graph digest {digest} != {want['digest']}")
    return problems


def _graph_unknown(graph):
    return sum(r.status.value == "UNKNOWN" for r in graph.records)


def _run_p2(tg, cache_dir):
    return tg.general.two_points_graph(verify_window=True)


def _check_p2(tg, out, ref):
    vertices, edges, dims = out
    want = ref["two_points_p2"]
    label = {i + 1: tg.general.saturation_label(v)
             for i, v in enumerate(vertices)}
    dim2 = sorted(sorted([label[i], label[j]])
                  for (i, j), d in dims.items() if d == 2)
    problems = []
    if len(vertices) != want["vertices"]:
        problems.append(f"{len(vertices)} vertices != {want['vertices']}")
    if len(edges) != want["edges"]:
        problems.append(f"{len(edges)} edges != {want['edges']}")
    if dim2 != sorted(sorted(p) for p in want["dimension_two"]):
        problems.append(f"two-dimensional edges {dim2}")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload(
        "dual-table",
        "paper's largest combinatorial rows, colength 13-16 through the dual "
        "arrow-map filter; arrows and monomial only, no solver",
        _run_dual_table, _check_dual_table,
        items=lambda rows: sum(r.pairs for r in rows),
        unknown=lambda rows: sum(r.unknown for r in rows)),
    Workload(
        "exact-graph",
        "colength-9 torus graph with exact Groebner verdicts and dimensions, "
        "serial, fresh edge cache; solver-bound with a heavy-tailed job",
        _build(1), _check_graph,
        items=lambda graph: len(graph.records), unknown=_graph_unknown),
    Workload(
        "parallel-graph",
        "same graph on the 2-process pool, the only parallel path; the "
        "heavy-tailed job and scheduling set its time",
        _build(2), _check_graph,
        items=lambda graph: len(graph.records), unknown=_graph_unknown,
        pool_workers=2),
    Workload(
        "p2-window",
        "two points in P2 on a verified degree window: the solver on generic "
        "coefficients in more than two variables",
        _run_p2, _check_p2,
        items=lambda out: comb(len(out[0]), 2), unknown=lambda out: 0),
)}
