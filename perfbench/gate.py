"""The correctness gate every benchmark run passes before it reports.

* Every ledger the workload wrote holds exactly one row per unique
  run_id, and exactly the run_ids the workload asked for.
* The jobs executed what they had to: every cold cell on
  ``sweep-cold``, each unique cell once on ``gateway-overlap``, nothing
  on ``gateway-cached``.
* Rows of the default seed match :data:`REFERENCE` (``metrics_digest``
  and the engine's ``events_fired``) wherever the reference names the
  cell.
* For any seed, a seeded sample of rows matches an in-process
  :func:`~repro.experiments.executor.execute_cell` of the same spec.
* What clients were given matches the ledger: each ``metrics_digest``
  a fetch or result reported, and each store record a fetch returned.
* No op failed or was refused.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.experiments.executor import execute_cell
from repro.experiments.plan import CellSpec
from repro.obs.ledger import RunLedger
from repro.obs.runmeta import metrics_digest

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
#: The seed the reference file was written for.
DEFAULT_SEED = 1
#: Rows per run re-executed in-process and compared.
SAMPLE_CELLS = 3

#: run_id -> (metrics_digest, events_fired)
Reference = Dict[str, Tuple[str, int]]
#: Metrics a store record and its ledger row both carry.
RECORD_FIELDS = ("render_fps", "client_fps", "frames_rendered", "frames_dropped",
                 "bandwidth_mbps", "mtp_mean_ms")


@dataclass(frozen=True)
class Seen:
    """One output a client was given about ``run_id``."""

    run_id: str
    #: The ``metrics_digest`` the client was told, if any.
    digest: Optional[str] = None
    #: :func:`store_fingerprint` of a store record the client received.
    record: Optional[Tuple[Any, ...]] = None


def fingerprint(row: Mapping[str, object]) -> Tuple[str, int]:
    """The two facts the gate compares for one ledger row."""
    engine = row.get("engine") or {}
    assert isinstance(engine, dict)
    return metrics_digest(row), int(engine.get("events_fired", -1))


def store_fingerprint(record: Mapping[str, Any]) -> Tuple[Any, ...]:
    """What a store record (as a dict) must share with its ledger row."""
    return (record.get("benchmark"),) + tuple(record.get(name) for name in RECORD_FIELDS)


def row_store_fingerprint(row: Mapping[str, Any]) -> Tuple[Any, ...]:
    """:func:`store_fingerprint` as the ledger row states it."""
    config, metrics = row.get("config") or {}, row.get("metrics") or {}
    return (config.get("benchmark"),) + tuple(metrics.get(name) for name in RECORD_FIELDS)


def load_reference(path: str = REFERENCE) -> Reference:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return {run_id: (digest, int(events)) for run_id, (digest, events) in payload["cells"].items()}


def write_reference(specs: Sequence[CellSpec], path: str = REFERENCE) -> int:
    """Execute ``specs`` in-process and store their fingerprints."""
    cells = {}
    for spec in specs:
        row = execute_cell(spec, collect_ledger=True, git_rev="reference").ledger_record
        assert row is not None
        cells[spec.run_id] = list(fingerprint(row))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, "cells": cells}, handle, sort_keys=True, indent=0)
        handle.write("\n")
    return len(cells)


def check_rows(rows: Sequence[Mapping[str, object]], expected: Set[str]) -> List[str]:
    """One row per unique run_id, and exactly the expected run_ids."""
    problems = []
    counts = Counter(str(row.get("run_id")) for row in rows)
    dupes = sorted(run_id for run_id, n in counts.items() if n > 1)
    if dupes:
        problems.append(f"{len(dupes)} run_ids have more than one ledger row")
    missing = expected - set(counts)
    extra = set(counts) - expected
    if missing:
        problems.append(f"{len(missing)} requested cells have no ledger row")
    if extra:
        problems.append(f"{len(extra)} ledger rows were never requested")
    return problems


def check_reference(rows: Sequence[Mapping[str, object]], reference: Reference) -> List[str]:
    """Rows the reference names must match it exactly."""
    problems = []
    named = 0
    for row in rows:
        run_id = str(row.get("run_id"))
        want = reference.get(run_id)
        if want is None:
            continue
        named += 1
        if fingerprint(row) != want:
            problems.append(f"{run_id[:12]}: {fingerprint(row)} != reference {want}")
    if rows and not named:
        problems.append("the reference names none of this run's cells")
    return problems


def check_sample(
    rows: Sequence[Mapping[str, object]],
    specs: Mapping[str, CellSpec],
    rng: random.Random,
    k: int = SAMPLE_CELLS,
) -> List[str]:
    """Re-execute ``k`` seeded rows in-process; their fingerprints must agree."""
    problems = []
    ordered = sorted(rows, key=lambda row: str(row.get("run_id")))
    for row in rng.sample(ordered, min(k, len(ordered))):
        run_id = str(row.get("run_id"))
        spec = specs.get(run_id)
        if spec is None:
            problems.append(f"{run_id[:12]}: ledger row for an unknown spec")
            continue
        fresh = execute_cell(spec, collect_ledger=True, git_rev="gate").ledger_record
        assert fresh is not None
        if fingerprint(fresh) != fingerprint(row):
            problems.append(f"{run_id[:12]}: {fingerprint(row)} != in-process {fingerprint(fresh)}")
    return problems


def check_outputs(seen: Sequence[Seen], rows: Mapping[str, Mapping[str, Any]]) -> List[str]:
    """Everything clients were given must agree with the ledger row."""
    problems = []
    digests: Dict[str, str] = {}
    for output in dict.fromkeys(seen):
        row = rows.get(output.run_id)
        if row is None:
            problems.append(f"{output.run_id[:12]}: served, but no ledger row")
            continue
        if output.run_id not in digests:
            digests[output.run_id] = metrics_digest(row)
        if output.digest is not None and output.digest != digests[output.run_id]:
            problems.append(f"{output.run_id[:12]}: served digest {output.digest} "
                            f"!= ledger {digests[output.run_id]}")
        if output.record is not None and output.record != row_store_fingerprint(row):
            problems.append(f"{output.run_id[:12]}: served record {output.record} "
                            f"!= ledger {row_store_fingerprint(row)}")
    return problems


def gate(
    expected_rows: Sequence[Tuple[str, Set[str]]],
    specs: Mapping[str, CellSpec],
    seed: int,
    executed_problems: Sequence[str],
    seen: Sequence[Seen],
    failed_ops: int,
) -> List[str]:
    """Every problem found; an empty list means the run's outputs are right."""
    problems = list(executed_problems)
    if failed_ops:
        problems.append(f"{failed_ops} ops failed or were refused")
    all_rows = []
    for ledger_dir, expected in expected_rows:
        rows = RunLedger(ledger_dir).records()
        problems += [f"{os.path.basename(ledger_dir)}: {p}" for p in check_rows(rows, expected)]
        all_rows.extend(rows)
    if seed == DEFAULT_SEED:
        problems += check_reference(all_rows, load_reference())
    by_id = {str(row.get("run_id")): row for row in all_rows}
    problems += check_outputs(seen, by_id)
    problems += check_sample(list(by_id.values()), specs, random.Random(f"gate:{seed}"))
    return problems
