"""Run one workload of the tgraph benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/tgraph``.  The load is a
closed loop with one caller: one request at a time, each in a fresh
interpreter (perfbench/sample.py) with a fresh cache directory, for about
--seconds seconds.

Other tenants of the host slow every process by up to 2x for minutes at a
time, which no median over a run can remove.  So a calibration interpreter
(set-up plus the fixed kernel of calibrate.py) runs before the first sample
and after every sample, and every reported time is rescaled to the reference
host speed: multiplied by calibrate.REFERENCE_S over the mean calibration time
just before and just after it.  The calibration interpreters also give
set-up time, rescaled by their own kernel time.  The unscaled medians are
printed too.

With --trace 0 the samples are untraced and the end-to-end metrics are
reported.  With --trace 1 untraced and traced samples alternate; the traced
ones give the per-layer metrics (span times unscaled), the difference of the
two rescaled wall-time medians gives the tracing overhead, and the spans of
the last traced sample are written to .perfbench_out/spans/.

The lines before the last describe the run for a reader; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 0 only when every sample passed its reference
check.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, PERFBENCH)

from calibrate import REFERENCE_S  # noqa: E402
from metrics import END_TO_END, PER_LAYER, RUN_LEVEL  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIRST_CALIBRATIONS = 4  # enough set-up samples when samples are few
HARD_LIMIT_S = 170.0  # the whole run, so that it exits well within 180 s


def spawn(workload, tmp_root, timeout, trace=False, spans_out=None,
          calibrate=False):
    """Run one sample; returns (result, "") or (None, error text)."""
    cmd = [sys.executable, os.path.join(PERFBENCH, "sample.py"),
           "--workload", workload, "--tmp-root", tmp_root]
    if trace:
        cmd.append("--trace")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    if calibrate:
        cmd.append("--calibrate")
    # One fixed hash seed: string hashing then does the same work in every
    # sample, and the run's --seed does not leak into the program.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(time.monotonic())],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException as exc:
        # The session holds the sample and any pool workers it started.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            return None, "sample timed out"
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, err.strip() or f"exit code {proc.returncode}"
    return json.loads(lines[-1]), ""


def tail_percentile(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run(args, tmp_root, spans_out):
    """Calibrations and samples, alternating, for about args.seconds.

    Each successful sample gets ``slowdown``: the mean kernel time of the
    calibrations just before and just after it, over REFERENCE_S.
    """
    t_begin = time.monotonic()
    calibrations = []

    def calibrate():
        left = HARD_LIMIT_S - (time.monotonic() - t_begin)
        res, err = spawn(args.workload, tmp_root, left, calibrate=True)
        if res is None:
            sys.exit(f"perfbench: calibration failed: {err}")
        calibrations.append(res)

    for _ in range(FIRST_CALIBRATIONS):
        calibrate()
    plan = [False, True] if args.trace else [False]
    samples = []  # (traced, result, seconds including the calibration after)
    while True:
        traced = plan[len(samples) % len(plan)]
        started = time.monotonic()
        left = HARD_LIMIT_S - (started - t_begin)
        res, err = spawn(args.workload, tmp_root, left, trace=traced,
                         spans_out=spans_out if traced else None)
        if res is None:
            samples.append((traced, {"ok": False, "problems": [err]}, 0.0))
            break
        calibrate()
        res["slowdown"] = statistics.mean(
            c["calibration_s"] for c in calibrations[-2:]) / REFERENCE_S
        samples.append((traced, res, time.monotonic() - started))
        if len(samples) < len(plan):
            continue
        nxt = plan[len(samples) % len(plan)]
        estimate = statistics.median(s for t, _, s in samples if t == nxt)
        elapsed = time.monotonic() - t_begin
        if elapsed + estimate > min(args.seconds, HARD_LIMIT_S):
            break
    return calibrations, samples


def scaled(r, key):
    return r[key] / r["slowdown"]


def end_to_end(plain, calibrations):
    if not plain:
        return {}
    median = statistics.median
    return {
        "wall_s": median(scaled(r, "wall_s") for r in plain),
        "items_per_s": median(r["items"] / scaled(r, "wall_s") for r in plain),
        "cpu_s": median(scaled(r, "cpu_s") for r in plain),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        "setup_s": median(c["setup_s"] * REFERENCE_S / c["calibration_s"]
                          for c in calibrations),
    }


def per_layer(plain, traced, failed_frac):
    values = {}
    if traced:
        for key in PER_LAYER:
            if key not in RUN_LEVEL:
                values[key] = statistics.median_low(
                    r["layers"][key] for r in traced)
        values["traced_wall_s"] = statistics.median(
            scaled(r, "wall_s") for r in traced)
        if plain:
            values["tracing_overhead_s"] = (
                values["traced_wall_s"]
                - statistics.median(scaled(r, "wall_s") for r in plain))
    values["failed_frac"] = failed_frac
    return values


def summarize(args, calibrations, samples):
    attempted = len(samples)
    failed = sum(not r["ok"] for _, r, _ in samples)
    plain = [r for t, r, _ in samples if not t and "wall_s" in r]
    traced = [r for t, r, _ in samples if t and "layers" in r]
    if args.trace:
        units, values = PER_LAYER, per_layer(plain, traced, failed / attempted)
    else:
        units, values = END_TO_END, end_to_end(plain, calibrations)

    print(f"perfbench {args.workload}: seed {args.seed} recorded; it selects "
          "nothing, every workload is a full enumeration")
    print(f"host: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"{platform.system()} {platform.machine()}")
    for _, r, _ in samples:
        for problem in r["problems"]:
            print(f"problem: {problem}")
    unknown = sum(r.get("unknown", 0) for _, r, _ in samples)
    print(f"check: {'PASS' if failed == 0 else 'FAIL'}, "
          f"{attempted - failed} of {attempted} samples match the reference, "
          f"failed_frac {failed / attempted:g}, UNKNOWN verdicts {unknown}")
    if plain:
        walls = [scaled(r, "wall_s") for r in plain]
        tail = tail_percentile(walls)
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
                     "no tail percentile with 10 samples beyond it")
        print(f"wall_s: median {statistics.median(walls):.4f} s, {tail_text}, "
              f"{len(walls)} untraced samples")
        median = statistics.median
        print("unscaled medians: "
              f"wall_s {median(r['wall_s'] for r in plain):.4f} s, "
              f"cpu_s {median(r['cpu_s'] for r in plain):.4f} s, "
              f"setup_s {median(c['setup_s'] for c in calibrations):.4f} s; "
              f"host slowdown {median(r['slowdown'] for r in plain):.3f}")
    for key, value in values.items():
        print(f"{key} = {value:.6g} {units[key]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that spawn() kills the running sample.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "tgraph", "__init__.py")):
        sys.exit(f"perfbench: no src/tgraph under {ROOT}; "
                 "run from the root of a tgraph checkout")

    os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    spans_out = os.path.join(
        OUT_DIR, "spans", f"{args.workload}-seed{args.seed}.csv.gz")
    try:
        calibrations, samples = run(args, tmp_root, spans_out)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    return summarize(args, calibrations, samples)


if __name__ == "__main__":
    sys.exit(main())
