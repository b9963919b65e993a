"""Spans and counters around the public functions of the tgraph layers.

The wrappers are installed from outside the package.  The package binds names
with ``from .x import y``, so every module attribute that refers to a traced
function is replaced, not only the one in the defining module: that is what
makes ``tgraph.edges.buchberger`` or ``tgraph.arrows.hilbert_function`` go
through a wrapper.  ``poly`` has no public entry point worth wrapping; its
cost shows up in the self time of ``cells`` and ``groebner``.

Spans (name, start, end, parent) are kept in flat arrays in memory and only
written out when the run ends.  Forked pool workers keep their own spans; the
wrapper around ``assembly._full_job`` summarises them per job and appends the
summary to a file in ``PERFBENCH_SPILL_DIR``, which the sample merges after the
pool has shut down.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

SPILL_ENV = "PERFBENCH_SPILL_DIR"

# (defining module, attribute); "Class.method" wraps a method on the class.
TRACED = (
    ("monomial", "hilbert_function"),
    ("monomial", "enumerate_ideals"),
    ("arrows", "dominates"),
    ("arrows", "arrow_map_exists"),
    ("arrows", "dual_condition"),
    ("cells", "edge_ideal"),
    ("groebner", "buchberger"),
    ("groebner", "is_trivial"),
    ("groebner", "quotient_dimension"),
    ("edges", "decide_edge"),
    ("assembly", "build_tgraph"),
    ("assembly", "count_table"),
    ("assembly", "pair_grading_jobs"),
    ("assembly", "EdgeCache.get"),
    ("assembly", "EdgeCache.put"),
    ("general", "two_points_graph"),
    ("general", "edge_scheme_general"),
)

LAYERS = ("monomial", "arrows", "cells", "groebner", "edges", "assembly",
          "general")


def _found(key):
    def post(counters, result):
        counters[key] += result is not None
    return post


def _post_dual_condition(counters, result):
    counters["arrows.dual_condition.found"] += result[0] is not None


def _post_edge_ideal(counters, result):
    counters["cells.edge_ideal.generators"] += len(result.nonzero_generators())
    counters["cells.edge_ideal.vars"] += result.ring.nvars


def _post_buchberger(counters, result):
    for key in ("s_pairs", "reduction_steps", "basis_size"):
        counters["groebner." + key] += result.stats.get(key, 0)


def _post_decide_edge(counters, result):
    counters["edges.verdict." + result.status.value] += 1


def _post_pair_grading_jobs(counters, result):
    counters["assembly.jobs"] += len(result)


# Counters taken from a return value, after the span has closed.
POST = {
    "arrows.arrow_map_exists": _found("arrows.arrow_map_exists.found"),
    "arrows.dual_condition": _post_dual_condition,
    "cells.edge_ideal": _post_edge_ideal,
    "groebner.buchberger": _post_buchberger,
    "edges.decide_edge": _post_decide_edge,
    "assembly.pair_grading_jobs": _post_pair_grading_jobs,
    "assembly.EdgeCache.get": _found("assembly.cache.get.hits"),
}


class Tracer:
    """Flat span store: parallel arrays indexed by span number."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.reset()

    def reset(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.nested = array("b")  # an enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.active = Counter()
        self.counters = Counter()

    def name_index(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.nested.append(self.active[nid] > 0)
        self.active[nid] += 1
        self.stack.append(idx)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()
        self.active[self.name_id[idx]] -= 1

    def summarize(self):
        """Per span name: calls, inclusive and self seconds, longest call."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            entry = spans.setdefault(self.names[self.name_id[i]], {
                "calls": 0, "incl_s": 0.0, "self_s": 0.0, "max_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += dur - child[i]
            entry["max_s"] = max(entry["max_s"], dur)
            if not self.nested[i]:
                entry["incl_s"] += dur
        return {"spans": spans, "counters": dict(self.counters)}

    def write(self, path):
        """All spans as gzipped CSV: id, parent, name, start_s, end_s."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f}\n")


def merge(summaries):
    out = {"spans": {}, "counters": Counter()}
    for s in summaries:
        for name, e in s["spans"].items():
            acc = out["spans"].setdefault(name, {
                "calls": 0, "incl_s": 0.0, "self_s": 0.0, "max_s": 0.0})
            acc["calls"] += e["calls"]
            acc["incl_s"] += e["incl_s"]
            acc["self_s"] += e["self_s"]
            acc["max_s"] = max(acc["max_s"], e["max_s"])
        out["counters"].update(s["counters"])
    out["counters"] = dict(out["counters"])
    return out


def _wrap(tracer, name, fn, budget_exceeded):
    nid = tracer.name_index(name)
    post = POST.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx)
            if isinstance(exc, budget_exceeded):
                tracer.counters["groebner.budget_exceeded"] += 1
            raise
        tracer.close(idx)
        if post is not None:
            post(tracer.counters, result)
        return result

    return traced


_installed = None  # (tracer, original assembly._full_job) once installed


def install(tracer):
    """Replace every binding of the traced functions in the tgraph modules.

    Functions a later version of the package no longer has are skipped.
    """
    global _installed
    for layer in LAYERS:
        importlib.import_module(f"tgraph.{layer}")
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "tgraph" or k.startswith("tgraph."))]
    # A class, or an empty tuple that no exception matches.
    budget_exceeded = getattr(sys.modules["tgraph.groebner"],
                              "BudgetExceeded", ())
    for layer, attr in TRACED:
        home = sys.modules[f"tgraph.{layer}"]
        name = f"{layer}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name, None)
            if cls is not None and callable(getattr(cls, meth, None)):
                setattr(cls, meth, _wrap(tracer, name, getattr(cls, meth),
                                         budget_exceeded))
            continue
        original = getattr(home, attr, None)
        if original is None:
            continue
        wrapper = _wrap(tracer, name, original, budget_exceeded)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, wrapper)
    assembly = sys.modules["tgraph.assembly"]
    original_job = getattr(assembly, "_full_job", None)
    if original_job is not None:
        assembly._full_job = traced_full_job
    _installed = (tracer, original_job)
    return tracer


def traced_full_job(args):
    """Pool job wrapper: run one job and spill its span summary to a file."""
    if _installed is None:  # a spawned worker starts from a fresh import
        install(Tracer())
    tracer, original_job = _installed
    tracer.reset()
    try:
        return original_job(args)
    finally:
        path = os.path.join(os.environ[SPILL_ENV],
                            f"spill-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(tracer.summarize()) + "\n")


def read_spills(directory):
    out = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spill-") and entry.endswith(".jsonl"):
            with open(os.path.join(directory, entry), encoding="utf-8") as fh:
                out.extend(json.loads(line) for line in fh if line.strip())
    return out
