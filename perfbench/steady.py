#!/usr/bin/env python3
"""Steadiness mode: repeat workloads over seeds, summarize, compare.

Run every workload of ``BENCHMARK.json`` once per seed, untraced and
in a fresh process each time, then print each metric's median, quartiles and spread (interquartile
distance as a share of the median) next to its bound from
``BENCHMARK.json``::

    python3 perfbench/steady.py --seeds 1-10 --out .perfbench_work/a.json
    python3 perfbench/steady.py --seeds 11-20 --out .perfbench_work/b.json \\
        --compare .perfbench_work/a.json

``--compare`` checks, metric by metric and workload by workload, that
the new median is not worse than the old one by more than the bound.
The exit code is non-zero when a run fails, a spread exceeds its
bound, or a comparison fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT]

from perfbench import stats  # noqa: E402

Series = Dict[str, Dict[str, List[float]]]  # workload -> metric -> values


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> Optional[dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def summarize(series: Series, bounds: Dict[str, float]) -> bool:
    steady = True
    for workload, metrics in series.items():
        print(f"{workload}:")
        for name, values in metrics.items():
            q1, med, q3 = stats.quartiles(values)
            spread = stats.spread(values)
            bound = bounds[name]
            verdict = "ok" if spread <= bound / 3 else "WIDE" if spread > bound else "> bound/3"
            steady = steady and spread <= bound
            print(f"  {name:<32} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.3f}  n={len(values)}  bound {bound:.2f}  {verdict}")
    return steady


def compare(old: Series, new: Series, spec: dict) -> bool:
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload, metrics in new.items():
        for name, values in metrics.items():
            if name not in bounds or name not in old.get(workload, {}):
                continue
            before = stats.quartiles(old[workload][name])[1]
            after = stats.quartiles(values)[1]
            change = (after - before) / before if before else 0.0
            worse = change if better[name] == "lower" else -change
            flag = "ok" if worse <= bounds[name] else "WORSE"
            ok = ok and flag == "ok"
            print(f"  {workload:<16} {name:<24} {before:12.4f} -> {after:12.4f}  "
                  f"{change:+7.2%}  bound {bounds[name]:.2f}  {flag}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None, help="write the collected values here")
    parser.add_argument("--compare", default=None, help="an earlier --out file")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    series: Series = {}
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"])
            if result is None or not result["correct"] or result["failed"]:
                failures += 1
                print(f"{workload} seed {seed}: FAILED", flush=True)
                continue
            for name, metric in result["metrics"].items():
                series.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: ok", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(series, handle, indent=1, sort_keys=True)
    steady = summarize(series, {m["name"]: m["bound"] for m in spec["end_to_end"]})
    agree = True
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            agree = compare(json.load(handle), series, spec)
    return 0 if steady and agree and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
