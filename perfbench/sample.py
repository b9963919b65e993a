"""One sample of a workload, in the fresh interpreter it is started in.

    python3 perfbench/sample.py --workload NAME --tmp-root DIR --spawned-at T
        [--trace] [--spans-out PATH] [--calibrate]

run.py starts this from the root of a checkout.  Set-up is interpreter start,
``import tgraph`` and creating a fresh cache directory under --tmp-root; it is
timed from --spawned-at, the parent's monotonic clock just before the spawn.
The sample then times the workload call together with its reference check,
or with --calibrate only the calibration kernel, and prints one JSON object
on standard output.  The directory is removed before the sample exits.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from time import perf_counter

import spans
from calibrate import kernel
from metrics import layer_metrics
from workloads import WORKLOADS, load_reference

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(PERFBENCH), "src")


def _cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def measure(tg, workload, cache_dir, spill_dir, trace, spans_out):
    ref = load_reference()
    tracer = None
    if trace:
        os.makedirs(spill_dir)
        os.environ[spans.SPILL_ENV] = spill_dir
        tracer = spans.install(spans.Tracer())

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    out = None
    try:
        out = workload.run(tg, cache_dir)
        problems = workload.check(tg, out, ref)
    except Exception:  # a crash is a failed sample; report its traceback
        problems = [traceback.format_exc()]
    wall_s = perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    unknown = workload.unknown(out) if out is not None else 0
    if unknown:
        problems.append(f"{unknown} UNKNOWN verdicts")
    result = {
        "ok": not problems,
        "problems": problems,
        "unknown": unknown,
        "wall_s": wall_s,
        "cpu_s": (_cpu_s(self1) - _cpu_s(self0)
                  + _cpu_s(kids1) - _cpu_s(kids0)),
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "items": workload.items(out) if out is not None else 0,
    }
    if tracer is not None:
        summary = spans.merge([tracer.summarize()]
                              + spans.read_spills(spill_dir))
        pool = out.records if (workload.pool_workers and out) else None
        result["layers"] = layer_metrics(summary, pool, wall_s,
                                         workload.pool_workers)
        if spans_out:
            tracer.write(spans_out)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--tmp-root", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out")
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    sys.path.insert(0, SRC)
    import tgraph
    import tgraph.general  # noqa: F401  (not imported by the package)

    if not os.path.abspath(tgraph.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported tgraph from {tgraph.__file__}, not from {SRC}")
    tmp = tempfile.mkdtemp(prefix="sample-", dir=args.tmp_root)
    try:
        cache_dir = os.path.join(tmp, "cache")
        os.mkdir(cache_dir)
        setup_s = time.monotonic() - args.spawned_at
        if args.calibrate:
            t0 = perf_counter()
            kernel()
            result = {"calibration_s": perf_counter() - t0}
        else:
            result = measure(tgraph, workload, cache_dir,
                             os.path.join(tmp, "spill"), args.trace,
                             args.spans_out)
        result["setup_s"] = setup_s
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
