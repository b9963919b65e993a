"""Assemble the full torus graph for d points in the plane.

Vertices are the monomial ideals of colength d in partition order.  For every
unordered pair and every coprime grading under which the two ideals share a
Hilbert function, one record is produced.  ``pair_grading_jobs`` finds those
jobs by grouping the ideals on the first two power sums of their standard
weights, which equal Hilbert functions always share, and builds Hilbert
functions only inside groups of two or more.  Below full depth it comes from
the chain of necessary conditions in ``filters_passed`` (dominance order,
arrow map, arrow map on the box quotients), which orients each pair once and
hands that oriented pair to both arrow-map tests.  At full depth it comes from
``_exact_records``, the one place the exact equation solver runs, with the
edge cache; with ``threads`` above 1 the calling process and forked children
share the jobs through one task pipe.  The solver sees every job and
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
import pickle
import select
import signal
import struct
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from math import comb, gcd

from .arrows import (SCHEMA_VERSION, arrow_map_exists, dual_condition,
                     oriented_pair)
from .edges import ENGINE, EdgeRecord, EdgeStatus, decide_edge
from .groebner import DEFAULT_BUDGET
from .monomial import (Grading, enumerate_ideals, format_ideal,
                       hilbert_function)


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
    pair = oriented_pair(M, N, g)
    if pair is None:
        return 0
    if wanted == 1 or arrow_map_exists(pair) is None:
        return 1
    if wanted == 2 or dual_condition(pair)[0] is None:
        return 2
    return 3


def _decide(job):
    M, N, g, budget, with_dimension = job
    return decide_edge(M, N, g, budget=budget, with_dimension=with_dimension)


def _full_job(job):
    """Entry point for the jobs a forked child decides; the calling process
    calls ``_decide`` itself.  Children look it up by name at call time, so
    a replacement installed on the module reaches them."""
    return _decide(job)


# A claim in the task pipe, and the length prefix of a record sent back.
_U32 = struct.Struct("=I")


def _spread(rank):
    """Start the process of the given rank on the rank-th allowed CPU.

    Forked processes otherwise start on their parent's CPU, and some kernels
    leave them all there for seconds while the other CPUs idle, so one build
    runs in parallel and the next serially.  The process is moved to its own
    CPU and then given back its full CPU set, so the scheduler stays free to
    move it later.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[rank % len(allowed)]})
    os.sched_setaffinity(0, allowed)


def _claims(tasks, todo, run):
    """(index, job) for each job this process claims, until the pipe is
    empty.  A claim is the index of the first job of a run; each ``os.read``
    of one claim is atomic, so every claim goes to exactly one process."""
    while data := os.read(tasks, _U32.size):
        start, = _U32.unpack(data)
        for k in range(start, min(start + run, len(todo))):
            yield k, todo[k]


def _child(rank, tasks, out, todo, run, inherited):
    """A forked child: decide claimed jobs, send each (index, record) to the
    caller as a length-prefixed pickle, and leave through ``os._exit``,
    status 0 once the task pipe is empty and 1 on any exception."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        _spread(rank)
        for k, job in _claims(tasks, todo, run):
            blob = pickle.dumps((k, _full_job(job)), pickle.HIGHEST_PROTOCOL)
            view = memoryview(_U32.pack(len(blob)) + blob)
            while view:
                view = view[os.write(out, view):]
        status = 0
    finally:
        os._exit(status)


def _receive(inboxes, timeout):
    """The (index, record) pairs that have arrived from the children.

    ``inboxes`` maps each open result pipe to the bytes read from it but not
    yet decoded; a pipe at EOF is closed and dropped.  ``timeout`` 0 only
    polls, None waits until some pipe is ready.
    """
    ready, _, _ = select.select(list(inboxes), [], [], timeout)
    for fd in ready:
        data = os.read(fd, 1 << 16)
        if not data:
            os.close(fd)
            del inboxes[fd]
            continue
        buf = inboxes[fd]
        buf += data
        while len(buf) >= _U32.size:
            end = _U32.size + _U32.unpack_from(buf)[0]
            if len(buf) < end:
                break
            yield pickle.loads(buf[_U32.size:end])
            del buf[:end]


def _solve(todo, threads):
    """(index, record) for every job, yielded as each is decided.

    With ``threads`` above 1 the calling process and ``threads - 1`` forked
    children share the jobs.  Before the first fork every claim, one job or,
    past ``select.PIPE_BUF // 4`` jobs, a fixed run of consecutive ones, is
    written to one task pipe in a single atomic write, and each process
    claims from it until it is empty; the caller collects the children's
    records between its own jobs.  If a child fails, the other jobs are
    still decided and then ``ChildProcessError`` says how many were left
    undecided.  A child still running when the call ends, early or on an
    exception, is killed and reaped.  Without ``os.fork`` the jobs run
    serially.
    """
    if threads < 2 or len(todo) < 2 or not hasattr(os, "fork"):
        yield from enumerate(map(_decide, todo))
        return
    run = -(-len(todo) // (select.PIPE_BUF // _U32.size))
    starts = range(0, len(todo), run)
    tasks, feed = os.pipe()
    children, inboxes = [], {}
    try:
        try:
            os.write(feed, b"".join(map(_U32.pack, starts)))
        finally:
            os.close(feed)
        for rank in range(1, min(threads, len(starts))):
            inbox, out = os.pipe()
            inboxes[inbox] = bytearray()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(rank, tasks, out, todo, run, list(inboxes))
                children.append(pid)
            finally:
                os.close(out)
        _spread(0)
        done = 0
        for k, job in _claims(tasks, todo, run):
            yield k, _decide(job)
            done += 1
            for item in _receive(inboxes, 0):
                yield item
                done += 1
        while inboxes:
            for item in _receive(inboxes, None):
                yield item
                done += 1
        failed = []
        while children:
            _, status = os.waitpid(children[-1], 0)
            children.pop()
            if code := os.waitstatus_to_exitcode(status):
                failed.append(str(code))
        if failed or done < len(todo):
            raise ChildProcessError(
                "a worker process died during the threaded build (exit "
                f"status {', '.join(failed) or 0}); {len(todo) - done} of "
                f"{len(todo)} jobs left undecided")
    finally:
        os.close(tasks)
        for fd in inboxes:
            os.close(fd)
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _exact_records(jobs, budget, with_dimension, cache, threads):
    """Exact records for a list of (M, N, grading) jobs, in the same order.

    Cached records are read back and the rest go to ``_solve``, which splits
    them between the calling process and ``threads - 1`` forked children.
    Each new record is written to the cache as it arrives and stored at its
    job's index, so the order of the records does not depend on the split.
    """
    records = [None if cache is None
               else cache.get(M, N, g, budget, with_dimension)
               for M, N, g in jobs]
    misses = [k for k, rec in enumerate(records) if rec is None]
    todo = [(*jobs[k], budget, with_dimension) for k in misses]
    for k, record in _solve(todo, threads):
        if cache is not None:
            cache.put(record, budget, with_dimension)
        records[misses[k]] = record
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

    def undecided_pairs(self):
        """How many pairs a full build left undecided: an UNKNOWN record and
        no EDGE record.  Below full depth UNKNOWN means the pair passed the
        filters, so the count is 0."""
        if self.depth is not PipelineDepth.FULL:
            return 0
        return len({pair for (pair, _), rec in zip(self.keys, self.records)
                    if rec.status is EdgeStatus.UNKNOWN} - self.simple_edges)


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

    def __iter__(self):
        """The values of the ``TABLE_HEADER`` columns, in that order."""
        return iter((self.d, self.ideals, self.pairs, self.ordered,
                     self.arrowmap, self.dual, self.edges))


TABLE_HEADER = ["d", "ideals", "pairs", "pairs_ordered", "pairs_arrowmap",
                "pairs_dual_arrowmap", "edges"]


def count_row(d, depth=PipelineDepth.FULL, budget=DEFAULT_BUDGET, cache=None):
    """One summary row: unordered-pair counts for each necessary condition.

    A pair is counted for a condition when some grading satisfies it
    together with every weaker condition: the row records, per pair, the
    most conditions ``filters_passed`` finds under any of its gradings.  At
    full depth the edge count is the number of simple edges of
    ``build_tgraph`` (a confirmed nonempty edge scheme under some grading),
    and ``unknown`` its ``TGraph.undecided_pairs``.
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
        unknown = graph.undecided_pairs()
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
    # csv writes None, the edges below full depth, as an empty cell
    writer.writerows(rows)
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
        label = "+".join(map(str, M.rows))
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
    """Exact edge records in append-only journals, shared between runs.

    Each instance writes at most one journal, ``<random>.jsonl``, created on
    its first ``put``.  A line is the key digest, a tab, the record's JSON
    and a newline, appended with a single ``os.write`` on a descriptor that
    ``put`` opens and closes, so concurrent writers never share a file and a
    killed writer leaves at most a truncated last line.  On creation every
    journal in the directory is loaded as raw line bytes under their
    digests; ``get`` parses only the lines of the key it is asked for.  A
    run therefore sees another run's records only if their journal existed
    when its cache was created, and recomputes the rest.  Other files in the
    directory, such as the per-record ``.json`` files of earlier versions,
    are neither read nor touched.
    """

    def __init__(self, directory):
        os.makedirs(directory, exist_ok=True)
        self._journal = os.path.join(directory,
                                     f"{os.urandom(8).hex()}.jsonl")
        self._lines = {}  # key digest -> candidate record json, as bytes
        for name in sorted(os.listdir(directory)):
            if name.endswith(".jsonl"):
                self._load(os.path.join(directory, name))

    def _load(self, path):
        # Bytes line by line, so one bad byte costs only its own line; a
        # writer's unfinished last line fails to parse in ``get`` like any
        # other damaged line.
        try:
            with open(path, "rb") as fh:
                for line in fh:
                    digest, _, text = line.partition(b"\t")
                    self._lines.setdefault(digest, []).append(text)
        except OSError:
            pass  # an unreadable journal holds no usable records

    @staticmethod
    def _digest(M, N, g, budget, with_dimension):
        key = json.dumps({
            "schema": f"tgraph.edge-record/{SCHEMA_VERSION}",
            "pair": sorted([format_ideal(M), format_ideal(N)]),
            "grading": [g.alpha, g.beta],
            "budget": budget,
            "with_dimension": bool(with_dimension),
            "engine": ENGINE,
        }, sort_keys=True)
        return hashlib.sha256(key.encode()).hexdigest()[:32].encode()

    def get(self, M, N, g, budget, with_dimension):
        """The first usable stored record, or None.

        A line that cannot be parsed, lacks a field, belongs to another pair
        or grading, or holds a record of a nonzero characteristic is a miss:
        the caller recomputes the record and appends it again.
        """
        for text in self._lines.get(
                self._digest(M, N, g, budget, with_dimension), ()):
            try:
                record = EdgeRecord.from_json(json.loads(text))
            except (ValueError, KeyError, IndexError, TypeError,
                    AttributeError):
                continue
            if (set(record.pair) == {M, N} and record.grading == g
                    and record.characteristic == 0):
                return record
        return None

    def put(self, record, budget, with_dimension):
        M, N = record.pair
        digest = self._digest(M, N, record.grading, budget, with_dimension)
        text = json.dumps(record.to_json(), sort_keys=True).encode() + b"\n"
        fd = os.open(self._journal, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                     0o644)
        try:
            os.write(fd, digest + b"\t" + text)
        finally:
            os.close(fd)
        self._lines.setdefault(digest, []).append(text)
