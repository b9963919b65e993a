"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

The count checks start traced samples in fresh interpreters, as run.py does,
and take about a minute on an idle host.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = [k for k, unit in PER_LAYER.items() if unit == "count"]


def traced_sample(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "sample.py"),
         "--workload", workload, "--tmp-root", str(tmp_path), "--trace",
         "--spawned-at", repr(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["ok"], result["problems"]
    return result["layers"]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(11))) == (100.0 / 11, 0)
    assert tail_percentile(list(range(40))) == (75.0, 29)


def test_graph_counts_repeat_and_agree_between_serial_and_pool(tmp_path):
    first = traced_sample("exact-graph", tmp_path)
    second = traced_sample("exact-graph", tmp_path)
    pooled = traced_sample("parallel-graph", tmp_path)
    assert first["groebner.s_pairs"] == 1527
    assert (first["edges.verdict.EDGE"], first["edges.verdict.NO_EDGE"],
            first["edges.verdict.UNKNOWN"]) == (166, 18, 0)
    assert first["assembly.cache.put.calls"] == first["assembly.jobs"] == 184
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    # The pool build has no cache; everything else is counted the same, the
    # solver side in the workers' spilled span summaries.
    shared = [k for k in COUNTS if not k.startswith("assembly.cache")]
    assert {k: first[k] for k in shared} == {k: pooled[k] for k in shared}
    assert first["arrows.arrow_map_exists.calls"] == 0
    assert pooled["assembly.pool.solver_busy_s"] > 0
    assert first["assembly.pool.solver_busy_s"] == 0


def test_dual_table_counts_repeat(tmp_path):
    first = traced_sample("dual-table", tmp_path)
    second = traced_sample("dual-table", tmp_path)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["arrows.arrow_map_exists.calls"] == 15375
    assert round(first["arrows.arrow_map_exists.found_ratio"] * 15375) == 14944
    assert (first["arrows.arrow_map_exists.found_ratio"]
            == second["arrows.arrow_map_exists.found_ratio"])
    assert first["groebner.buchberger.calls"] == 0
    assert first["cells.edge_ideal.calls"] == 0


def test_p2_window_counts_repeat(tmp_path):
    first = traced_sample("p2-window", tmp_path)
    second = traced_sample("p2-window", tmp_path)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["general.edge_scheme_general.calls"] > 0
    assert first["edges.decide_edge.calls"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "p2-window",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

