"""Metric names and units, and the per-layer metrics derived from spans."""
from __future__ import annotations

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "monomial.hilbert_function.calls": "count",
    "monomial.hilbert_function.s": "s",
    "monomial.enumerate_ideals.s": "s",
    "monomial.self_s": "s",
    "arrows.dominates.calls": "count",
    "arrows.dominates.s": "s",
    "arrows.arrow_map_exists.calls": "count",
    "arrows.arrow_map_exists.s": "s",
    "arrows.arrow_map_exists.found_ratio": "ratio",
    "arrows.dual_condition.calls": "count",
    "arrows.dual_condition.s": "s",
    "arrows.dual_condition.found_ratio": "ratio",
    "arrows.self_s": "s",
    "cells.edge_ideal.calls": "count",
    "cells.edge_ideal.s": "s",
    "cells.edge_ideal.generators": "count",
    "cells.edge_ideal.vars": "count",
    "cells.self_s": "s",
    "groebner.buchberger.calls": "count",
    "groebner.buchberger.s": "s",
    "groebner.buchberger.max_s": "s",
    "groebner.s_pairs": "count",
    "groebner.reduction_steps": "count",
    "groebner.basis_size": "count",
    "groebner.budget_exceeded": "count",
    "groebner.quotient_dimension.calls": "count",
    "groebner.quotient_dimension.s": "s",
    "groebner.self_s": "s",
    "edges.decide_edge.calls": "count",
    "edges.decide_edge.self_s": "s",
    "edges.verdict.EDGE": "count",
    "edges.verdict.NO_EDGE": "count",
    "edges.verdict.UNKNOWN": "count",
    "assembly.pair_grading_jobs.s": "s",
    "assembly.jobs": "count",
    "assembly.cache.put.calls": "count",
    "assembly.cache.put.s": "s",
    "assembly.cache.get.s": "s",
    "assembly.cache.get.hit_ratio": "ratio",
    "assembly.pool.solver_busy_s": "s",
    "assembly.pool.utilization": "ratio",
    "assembly.pool.max_job_s": "s",
    "assembly.self_s": "s",
    "general.edge_scheme_general.calls": "count",
    "general.edge_scheme_general.s": "s",
    "general.is_trivial.calls": "count",
    "general.is_trivial.s": "s",
    "general.self_s": "s",
    "traced_wall_s": "s",
    "tracing_overhead_s": "s",
    "failed_frac": "ratio",
}

# Metrics the traced sample does not derive from its own spans: the run adds
# them from untraced and traced samples together.
RUN_LEVEL = ("traced_wall_s", "tracing_overhead_s", "failed_frac")


def layer_metrics(summary, pool_records=None, wall_s=None, workers=None):
    """Per-layer metrics of one traced sample.

    ``pool_records`` are the edge records of a process-pool build; their own
    ``time_ms`` fields give the solver busy time of the pool.
    """
    spans = summary["spans"]
    counters = summary["counters"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "monomial.hilbert_function.calls":
            span("monomial.hilbert_function", "calls"),
        "monomial.hilbert_function.s":
            span("monomial.hilbert_function", "incl_s"),
        "monomial.enumerate_ideals.s":
            span("monomial.enumerate_ideals", "incl_s"),
        "arrows.dominates.calls": span("arrows.dominates", "calls"),
        "arrows.dominates.s": span("arrows.dominates", "incl_s"),
        "arrows.arrow_map_exists.calls":
            span("arrows.arrow_map_exists", "calls"),
        "arrows.arrow_map_exists.s": span("arrows.arrow_map_exists", "incl_s"),
        "arrows.arrow_map_exists.found_ratio": ratio(
            counters.get("arrows.arrow_map_exists.found", 0),
            span("arrows.arrow_map_exists", "calls")),
        "arrows.dual_condition.calls": span("arrows.dual_condition", "calls"),
        "arrows.dual_condition.s": span("arrows.dual_condition", "incl_s"),
        "arrows.dual_condition.found_ratio": ratio(
            counters.get("arrows.dual_condition.found", 0),
            span("arrows.dual_condition", "calls")),
        "cells.edge_ideal.calls": span("cells.edge_ideal", "calls"),
        "cells.edge_ideal.s": span("cells.edge_ideal", "incl_s"),
        "cells.edge_ideal.generators":
            counters.get("cells.edge_ideal.generators", 0),
        "cells.edge_ideal.vars": counters.get("cells.edge_ideal.vars", 0),
        "groebner.buchberger.calls": span("groebner.buchberger", "calls"),
        "groebner.buchberger.s": span("groebner.buchberger", "incl_s"),
        "groebner.buchberger.max_s": span("groebner.buchberger", "max_s"),
        "groebner.s_pairs": counters.get("groebner.s_pairs", 0),
        "groebner.reduction_steps":
            counters.get("groebner.reduction_steps", 0),
        "groebner.basis_size": counters.get("groebner.basis_size", 0),
        "groebner.budget_exceeded":
            counters.get("groebner.budget_exceeded", 0),
        "groebner.quotient_dimension.calls":
            span("groebner.quotient_dimension", "calls"),
        "groebner.quotient_dimension.s":
            span("groebner.quotient_dimension", "incl_s"),
        "edges.decide_edge.calls": span("edges.decide_edge", "calls"),
        "edges.decide_edge.self_s": span("edges.decide_edge", "self_s"),
        "assembly.pair_grading_jobs.s":
            span("assembly.pair_grading_jobs", "incl_s"),
        "assembly.jobs": counters.get("assembly.jobs", 0),
        "assembly.cache.put.calls": span("assembly.EdgeCache.put", "calls"),
        "assembly.cache.put.s": span("assembly.EdgeCache.put", "incl_s"),
        "assembly.cache.get.s": span("assembly.EdgeCache.get", "incl_s"),
        "assembly.cache.get.hit_ratio": ratio(
            counters.get("assembly.cache.get.hits", 0),
            span("assembly.EdgeCache.get", "calls")),
        "general.edge_scheme_general.calls":
            span("general.edge_scheme_general", "calls"),
        "general.edge_scheme_general.s":
            span("general.edge_scheme_general", "incl_s"),
        # is_trivial is defined in groebner; only the general layer calls it.
        "general.is_trivial.calls": span("groebner.is_trivial", "calls"),
        "general.is_trivial.s": span("groebner.is_trivial", "incl_s"),
    }
    for status in ("EDGE", "NO_EDGE", "UNKNOWN"):
        out[f"edges.verdict.{status}"] = counters.get(
            f"edges.verdict.{status}", 0)
    for layer in ("monomial", "arrows", "cells", "groebner", "assembly",
                  "general"):
        out[f"{layer}.self_s"] = sum(
            e["self_s"] for name, e in spans.items()
            if name.split(".", 1)[0] == layer)

    busy = max_job = 0.0
    if pool_records:
        busy = sum(r.time_ms for r in pool_records) / 1000.0
        max_job = max(r.time_ms for r in pool_records) / 1000.0
    out["assembly.pool.solver_busy_s"] = busy
    out["assembly.pool.max_job_s"] = max_job
    out["assembly.pool.utilization"] = (
        busy / (wall_s * workers) if pool_records else 0.0)
    return out
