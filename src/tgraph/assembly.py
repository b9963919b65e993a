"""Assemble the full torus graph for d points in the plane.

Vertices are the monomial ideals of colength d in partition order.  For every
unordered pair and every coprime grading under which the two ideals share a
Hilbert function, one record is produced.  ``pair_grading_jobs`` finds those
jobs by grouping the ideals on the first two power sums of their standard
weights, which equal Hilbert functions always share, and builds Hilbert
functions only inside groups of two or more.  Below full depth it comes from
the chain of necessary conditions in ``filters_passed`` (dominance order,
arrow map, arrow map on the box quotients).  At full depth it comes from
``_exact_records``, the one place the exact equation solver runs, with the
edge cache and an optional process pool; the solver sees every job and
returns NO_EDGE at once for a pair the order does not compare, so its
verdicts stay independent of the combinatorial filters and can be checked
against them.  The count table walks each colength's jobs once for the
filter columns and reads its edge column off ``build_tgraph``, so a table
and a graph of the same colength share one set of cached records.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from math import comb, gcd

from .arrows import arrow_map_exists, dual_condition, oriented_pair
from .edges import EdgeRecord, EdgeStatus, decide_edge
from .groebner import DEFAULT_BUDGET
from .monomial import (Grading, enumerate_ideals, format_ideal,
                       hilbert_function)

SCHEMA_VERSION = "1"


class PipelineDepth(Enum):
    ORDER_ONLY = "order"
    ARROWMAP = "arrowmap"
    DUAL = "dual"
    FULL = "full"


# How many conditions of the chain each depth asks for.
_CONDITIONS = {depth: min(rank, 2) + 1
               for rank, depth in enumerate(PipelineDepth)}


def coprime_gradings(bound):
    """All gradings with weights between 1 and bound, ascending."""
    return tuple(Grading(a, b)
                 for a in range(1, bound + 1)
                 for b in range(1, bound + 1)
                 if gcd(a, b) == 1)


def filters_passed(M, N, g, depth):
    """How many necessary conditions hold for one pair and grading, 0 to 3.

    The conditions are dominance order, an arrow map, and an arrow map on
    the box quotients, in that order.  The chain stops at the first failure
    or once it has checked every condition ``depth`` asks for (all three at
    ``DUAL`` and ``FULL``).
    """
    wanted = _CONDITIONS[depth]
    oriented = oriented_pair(M, N, g)
    if oriented is None:
        return 0
    big, small = oriented
    if wanted == 1 or arrow_map_exists(big, small, g) is None:
        return 1
    if wanted == 2 or dual_condition(big, small, g)[0] is None:
        return 2
    return 3


def _decide(job):
    M, N, g, budget, with_dimension = job
    return decide_edge(M, N, g, budget=budget, with_dimension=with_dimension)


def _full_job(job):
    """Process-pool entry point; the serial path calls ``_decide`` itself."""
    return _decide(job)


def _solve(todo, threads):
    """Exact records for the jobs, in order, yielded as they are decided."""
    if threads > 1 and todo:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(_full_job, todo, chunksize=8)
    else:
        yield from map(_decide, todo)


def _exact_records(jobs, budget, with_dimension, cache, threads):
    """Exact records for a list of (M, N, grading) jobs, in the same order.

    Cached records are read back; the rest go to the solver, on ``threads``
    worker processes when that is more than one, and each new record is
    written to the cache as it arrives.
    """
    records = [None if cache is None
               else cache.get(M, N, g, budget, with_dimension)
               for M, N, g in jobs]
    misses = [k for k, rec in enumerate(records) if rec is None]
    todo = [(*jobs[k], budget, with_dimension) for k in misses]
    for k, record in zip(misses, _solve(todo, threads), strict=True):
        if cache is not None:
            cache.put(record, budget, with_dimension)
        records[k] = record
    return records


@dataclass
class TGraph:
    d: int
    depth: PipelineDepth
    vertices: list
    records: list  # EdgeRecord per (pair, grading), keyed below
    keys: list  # ((i, j), Grading) parallel to records, 1-based indices
    simple_edges: set = field(default_factory=set)

    def edge_gradings(self, i, j):
        out = []
        for ((a, b), g), rec in zip(self.keys, self.records):
            if (a, b) == (i, j) and rec.status is EdgeStatus.EDGE:
                out.append(g)
        return out


def _power_sums(M):
    """Sums of a, b, a^2, a*b and b^2 over the standard monomials x^a*y^b.

    Row b with threshold t holds a = 0, ..., t - 1, so each sum is closed
    form in t.
    """
    sa = sb = saa = sab = sbb = 0
    for b, t in enumerate(M.rows):
        tri = t * (t - 1) // 2
        sa += tri
        sb += b * t
        saa += (t - 1) * t * (2 * t - 1) // 6
        sab += b * tri
        sbb += b * b * t
    return sa, sb, saa, sab, sbb


def pair_grading_jobs(vertices):
    """All (pair index, grading) jobs with matching Hilbert functions.

    Under a grading the first two power sums of an ideal's standard weights
    follow from ``_power_sums``.  Equal Hilbert functions mean equal
    multisets of weights, hence equal power sums, so the ideals are grouped
    by those two sums first and ``hilbert_function`` decides the pairs only
    inside groups of two or more: the jobs are exactly those of bucketing
    every ideal by its Hilbert function.
    """
    sums = [_power_sums(M) for M in vertices]
    jobs = []
    for g in coprime_gradings(vertices[0].colength if vertices else 1):
        a, b = g.alpha, g.beta
        groups = {}
        for idx, (sa, sb, saa, sab, sbb) in enumerate(sums):
            key = (a * sa + b * sb,
                   a * a * saa + 2 * a * b * sab + b * b * sbb)
            groups.setdefault(key, []).append(idx)
        for group in groups.values():
            if len(group) < 2:
                continue
            buckets = {}
            for idx in group:
                buckets.setdefault(hilbert_function(vertices[idx], g),
                                   []).append(idx + 1)
            for members in buckets.values():
                jobs.extend((pair, g) for pair in combinations(members, 2))
    jobs.sort(key=lambda job: (job[0], (job[1].alpha, job[1].beta)))
    return jobs


def build_tgraph(d, depth=PipelineDepth.FULL, budget=DEFAULT_BUDGET,
                 with_dimension=False, cache=None, threads=1):
    """Vertices, per-(pair, grading) records, and the confirmed simple edges.

    Below full depth a record is UNKNOWN when every condition the depth asks
    for holds and NO_EDGE otherwise; ``cache`` and ``threads`` apply to the
    exact records of a full build.
    """
    vertices = enumerate_ideals(d)
    keys = pair_grading_jobs(vertices)
    jobs = [(vertices[i - 1], vertices[j - 1], g) for (i, j), g in keys]
    if depth is PipelineDepth.FULL:
        records = _exact_records(jobs, budget, with_dimension, cache, threads)
    else:
        wanted = _CONDITIONS[depth]
        records = [EdgeRecord((M, N), g,
                              EdgeStatus.UNKNOWN
                              if filters_passed(M, N, g, depth) == wanted
                              else EdgeStatus.NO_EDGE)
                   for M, N, g in jobs]
    simple = {key[0] for key, rec in zip(keys, records)
              if rec.status is EdgeStatus.EDGE}
    return TGraph(d, depth, vertices, records, keys, simple)


@dataclass
class CountRow:
    d: int
    ideals: int
    pairs: int
    ordered: int
    arrowmap: int
    dual: int
    edges: object  # int at full depth, None otherwise
    unknown: int = 0

    def as_list(self):
        edges = "" if self.edges is None else self.edges
        return [self.d, self.ideals, self.pairs, self.ordered,
                self.arrowmap, self.dual, edges]


TABLE_HEADER = ["d", "ideals", "pairs", "pairs_ordered", "pairs_arrowmap",
                "pairs_dual_arrowmap", "edges"]


def count_row(d, depth=PipelineDepth.FULL, budget=DEFAULT_BUDGET, cache=None):
    """One summary row: unordered-pair counts for each necessary condition.

    A pair is counted for a condition when some grading satisfies it
    together with every weaker condition: the row records, per pair, the
    most conditions ``filters_passed`` finds under any of its gradings.  At
    full depth the edge count is the number of simple edges of
    ``build_tgraph`` (a confirmed nonempty edge scheme under some grading),
    and ``unknown`` the number of pairs with an UNKNOWN record and no EDGE
    record.
    """
    vertices = enumerate_ideals(d)
    passed = {}
    for (i, j), g in pair_grading_jobs(vertices):
        level = filters_passed(vertices[i - 1], vertices[j - 1], g, depth)
        passed[(i, j)] = max(passed.get((i, j), 0), level)
    ordered, arrow, dual = (sum(p >= k for p in passed.values())
                            for k in (1, 2, 3))

    edges, unknown = None, 0
    if depth is PipelineDepth.FULL:
        graph = build_tgraph(d, depth, budget, cache=cache)
        edges = len(graph.simple_edges)
        unknown = len({pair for (pair, _), rec
                       in zip(graph.keys, graph.records)
                       if rec.status is EdgeStatus.UNKNOWN}
                      - graph.simple_edges)
    return CountRow(d, len(vertices), comb(len(vertices), 2), ordered,
                    arrow, dual, edges, unknown)


def count_table(d_min, d_max, depth=PipelineDepth.FULL, budget=DEFAULT_BUDGET,
                cache=None):
    if not (1 <= d_min <= d_max):
        raise ValueError("need 1 <= d_min <= d_max")
    return [count_row(d, depth, budget=budget, cache=cache)
            for d in range(d_min, d_max + 1)]


def table_to_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TABLE_HEADER)
    for row in rows:
        writer.writerow(row.as_list())
    return buf.getvalue()


def graph_to_json(graph):
    payload = {
        "schema": f"tgraph.graph/{SCHEMA_VERSION}",
        "d": graph.d,
        "depth": graph.depth.value,
        "vertices": [format_ideal(M) for M in graph.vertices],
        "records": [rec.to_json() for rec in graph.records],
        "keys": [
            {"pair": [i, j], "grading": {"alpha": g.alpha, "beta": g.beta}}
            for (i, j), g in graph.keys
        ],
        "simple_edges": sorted(list(e) for e in graph.simple_edges),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def graph_to_dot(graph):
    lines = [f"graph tgraph_d{graph.d} {{", "  node [shape=box];"]
    for idx, M in enumerate(graph.vertices, start=1):
        label = "+".join(str(p) for p in M.to_partition())
        lines.append(f'  v{idx} [label="{label} = {format_ideal(M)}"];')
    for (i, j) in sorted(graph.simple_edges):
        gradings = graph.edge_gradings(i, j)
        tag = ", ".join(f"({g.alpha},{g.beta})" for g in gradings)
        lines.append(f'  v{i} -- v{j} [label="{tag}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_csv(graph):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "j", "alpha", "beta", "status", "dimension"])
    for ((i, j), g), rec in zip(graph.keys, graph.records):
        writer.writerow([i, j, g.alpha, g.beta, rec.status.value,
                         "" if rec.dimension is None else rec.dimension])
    return buf.getvalue()


class EdgeCache:
    """Content-addressed store of edge records for resumable table runs."""

    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, M, N, g, budget, with_dimension):
        key = json.dumps({
            "schema": f"tgraph.edge-record/{SCHEMA_VERSION}",
            "pair": sorted([format_ideal(M), format_ideal(N)]),
            "grading": [g.alpha, g.beta],
            "budget": budget,
            "with_dimension": bool(with_dimension),
        }, sort_keys=True)
        digest = hashlib.sha256(key.encode()).hexdigest()[:32]
        return os.path.join(self.directory, f"{digest}.json")

    def get(self, M, N, g, budget, with_dimension):
        """The stored record, or None when it is missing or unusable.

        A record that cannot be read or parsed, or that belongs to another
        pair or grading, is a miss: the caller recomputes and rewrites it.
        """
        path = self._path(M, N, g, budget, with_dimension)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = EdgeRecord.from_json(json.load(fh))
        except (OSError, ValueError, KeyError, IndexError, TypeError,
                AttributeError):
            return None
        if set(record.pair) != {M, N} or record.grading != g:
            return None
        return record

    def put(self, record, budget, with_dimension):
        M, N = record.pair
        path = self._path(M, N, record.grading, budget, with_dimension)
        # A temp name of its own per writer: two writers of one record must
        # not truncate or rename each other's half-written file.
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        with open(tmp, "x", encoding="utf-8") as fh:
            json.dump(record.to_json(), fh, sort_keys=True)
        os.replace(tmp, path)
