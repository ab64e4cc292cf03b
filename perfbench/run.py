#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --trace 0

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``, which
also names the metrics.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (see ``perfbench/README.md``).  Human-readable lines come
first; the last line of standard output is the JSON result.  The run
exits non-zero when the correctness gate finds a wrong output.

``--write-reference`` recomputes ``perfbench/reference.json`` (the
default seed's cell fingerprints) in-process and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import traceback
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def load_benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json``: run length and the metric names and units."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec: Dict[str, Any] = json.load(handle)
    return spec


def units(spec: Dict[str, Any], kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def git_rev() -> Optional[str]:
    """HEAD of the checkout when it is a git repository (never a parent's)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def host_fingerprint() -> Dict[str, Any]:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def end_to_end(loop: Any, setups: List[float], peak_rss_mb: float) -> Dict[str, Dict[str, Any]]:
    from perfbench import stats

    elapsed = max(loop.elapsed_s, 1e-9)
    # A failed op counts as missing any latency limit: it is ranked as
    # slow as the whole run.
    def latencies(kind: str) -> List[float]:
        return [s.ms if s.ok else elapsed * 1000.0 for s in loop.samples if s.kind == kind]

    ok = [s for s in loop.samples if s.ok]
    jobs = stats.timing(latencies("job"))
    fetches = stats.timing(latencies("fetch"))
    # Whole-run rates: gateway-overlap slows down as its ledger grows,
    # so any shorter window would depend on where in that trend it fell.
    return {
        "setup_s": {"value": stats.percentile(setups, 0.5), "n": len(setups)},
        "cells_per_s": {"value": sum(s.cells for s in ok if s.kind == "job") / elapsed,
                        "n": sum(1 for s in ok if s.kind == "job")},
        "ops_per_s": {"value": len(ok) / elapsed, "n": len(ok)},
        "job_latency_ms.p50": {"value": jobs["p50"], "n": jobs["n"]},
        "job_latency_ms.p90": {"value": jobs["p90"], "n": jobs["n"],
                               "resolved": jobs["p90_resolved"]},
        "fetch_latency_ms.p50": {"value": fetches["p50"], "n": fetches["n"]},
        "fetch_latency_ms.p90": {"value": fetches["p90"], "n": fetches["n"],
                                 "resolved": fetches["p90_resolved"]},
        "peak_rss_mb": {"value": peak_rss_mb, "n": 1},
    }


def write_reference() -> int:
    from perfbench import gate, plans

    specs = list(plans.sweep_plan(gate.DEFAULT_SEED)) + list(plans.cached_fill(gate.DEFAULT_SEED))
    for round_no in range(plans.REFERENCE_OVERLAP_ROUNDS):
        shared, own = plans.overlap_round(gate.DEFAULT_SEED, round_no)
        specs += shared + own[0] + own[1]
    count = gate.write_reference(specs)
    print(f"wrote {count} cells to {gate.REFERENCE}")
    return 0


def run(workload_name: str, seed: int, seconds: float, trace: bool, metric_units: Dict[str, str]) -> int:
    from perfbench import gate, layers, loadgen
    from perfbench.spans import Tracer

    run_dir = os.path.join(WORK, f"{workload_name}-{seed}-{os.getpid()}")
    out_dir = os.path.join(WORK, "out")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(out_dir, exist_ok=True)
    # Everything the run and its children write, temp files and the
    # multiprocessing manager's socket included, stays in the run dir.
    os.chdir(run_dir)
    os.environ["TMPDIR"] = "."
    tempfile.tempdir = "."

    rev = git_rev()
    stamp = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_rev": rev or "unknown", "host": host_fingerprint(),
    }
    print("perfbench " + json.dumps(stamp, sort_keys=True))
    workload = loadgen.WORKLOADS[workload_name](seed, run_dir, SRC, rev or "unknown")
    tracer = Tracer(enabled=trace)
    try:
        with loadgen.RssSampler() as rss:
            try:
                setups = loadgen.setup_times(workload, 1 if trace else workload.setups)
                loop = workload.run(seconds, tracer, trace)
            finally:
                workload.teardown()
        specs = dict(loop.specs)
        specs.update({spec.run_id: spec for spec in getattr(workload, "fill", ())})
        failed = sum(1 for s in loop.samples if not s.ok)
        seen = [output for s in loop.samples for output in s.seen]
        problems = gate.gate(workload.expected_rows(loop), specs, seed,
                             workload.check_executed(loop), seen, failed)
        print(f"ops: {loadgen.summary_counts(loop.samples)} in {loop.elapsed_s:.3f} s, "
              f"failed {failed}, failed_frac {failed / max(len(loop.samples), 1):.4f}")
        for error in loop.errors[:5]:
            print(f"op error: {error}")
        samples: Dict[str, int] = {}
        if trace:
            legs = layers.all_legs(tracer, workload, loop, specs, os.path.join(run_dir, "legs"))
            metrics = {name: {"value": legs[name], "unit": unit} for name, unit in metric_units.items()}
            trace_path = os.path.join(out_dir, f"trace-{workload_name}-seed{seed}.jsonl")
            tracer.write(trace_path)
            print(f"spans: {len(tracer.spans)} written to {trace_path}")
            for name, unit in metric_units.items():
                print(f"  {name:<32} {metrics[name]['value']:14.5f} {unit}")
        else:
            e2e = end_to_end(loop, setups, rss.peak_mb)
            metrics = {name: {"value": e2e[name]["value"], "unit": unit}
                       for name, unit in metric_units.items()}
            samples = {name: e2e[name]["n"] for name in metric_units}
            for name, unit in metric_units.items():
                note = "" if e2e[name].get("resolved", True) else " (fewer than 10 samples beyond p90)"
                print(f"  {name:<22} {e2e[name]['value']:12.4f} {unit:<8} n={samples[name]}{note}")
        for problem in problems:
            print(f"gate: {problem}", file=sys.stderr)
        result = {"correct": not problems, "attempted": len(loop.samples), "failed": failed,
                  "metrics": metrics}
        with open(os.path.join(out_dir, f"report-{workload_name}-seed{seed}-trace{int(trace)}.json"),
                  "w", encoding="utf-8") as handle:
            json.dump(dict(stamp, result=result, samples=samples), handle, indent=1, sort_keys=True)
        print(json.dumps(result, sort_keys=True))
        return 1 if problems else 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [ROOT, SRC] + [p for p in sys.path if os.path.abspath(p or ".") != here]
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    # A terminated run unwinds like a failed one, so its gateway process
    # and pool workers are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        metric_units = units(spec, "per_layer" if args.trace else "end_to_end")
        return run(args.workload, args.seed, args.seconds, bool(args.trace), metric_units)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
