"""Seeded inputs for the three workloads.

Everything here is a pure function of the workload seed: the same seed
gives the same cells and the same op sequence, and the program under
test receives only these generated plans and ops.  Seeds change the
cells' simulation seeds and the order and pairing of work, never the
shape of the work, so run cost stays comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.experiments.plan import CellSpec
from repro.faults.catalog import build_fault_plan, fault_class_names

BENCHMARKS = ("0AD", "D2", "IM", "ITP", "RE", "STK")
REGULATORS = ("NoReg", "ODR60", "ODRMax", "Int60", "RVS60")

#: (duration_ms, warmup_ms) of sweep-cold cells.
SWEEP_HORIZON = (2000.0, 500.0)
#: (duration_ms, warmup_ms) of gateway cells: short, so service cost shows.
SERVICE_HORIZON = (1000.0, 200.0)
#: Cells per offline sub-sweep in sweep-cold (one figure panel's worth).
SUBSWEEP_CELLS = 6
#: Cells the gateway-cached set-up computes before any client runs.
CACHED_FILL_SEEDS = 4
#: Largest job a gateway-cached client submits.
CACHED_MAX_JOB = 32
#: gateway-overlap: cells per job shared with the other client / own.
OVERLAP_SHARED = 2
OVERLAP_OWN = 2
#: Rounds of gateway-overlap the reference file covers for the default seed.
REFERENCE_OVERLAP_ROUNDS = 150


def _rng(workload: str, seed: int, *salt: object) -> random.Random:
    return random.Random(":".join(str(part) for part in (workload, seed) + salt))


def _cell(bench: str, platform: str, regulator: str, seed: int,
          horizon: Tuple[float, float]) -> CellSpec:
    return CellSpec(bench, platform, "720p", regulator, seed, horizon[0], horizon[1])


def sweep_plan(seed: int) -> List[CellSpec]:
    """The sweep-cold plan: a slice of the paper matrix plus chaos cells.

    All six benchmarks × five regulators on the private cloud, one cell
    per benchmark on GCE (regulators dealt round-robin from a seeded
    permutation), and one fault-class cell per benchmark under ODR60
    (classes dealt the same way), in seeded order.
    """
    rng = _rng("sweep-cold", seed)
    cells: List[CellSpec] = []
    for bench in BENCHMARKS:
        for regulator in REGULATORS:
            cells.append(_cell(bench, "private", regulator, rng.randrange(1, 10**6), SWEEP_HORIZON))
    regs = list(REGULATORS)
    rng.shuffle(regs)
    for i, bench in enumerate(BENCHMARKS):
        cells.append(_cell(bench, "gce", regs[i % len(regs)], rng.randrange(1, 10**6), SWEEP_HORIZON))
    classes = fault_class_names()
    rng.shuffle(classes)
    duration, warmup = SWEEP_HORIZON
    for i, bench in enumerate(BENCHMARKS):
        name = classes[i % len(classes)]
        cells.append(
            CellSpec(
                bench, "private", "720p", "ODR60", rng.randrange(1, 10**6),
                duration, warmup,
                faults=build_fault_plan(name, duration, warmup).faults,
                fault_class=name,
            )
        )
    rng.shuffle(cells)
    return cells


def subsweeps(cells: Sequence[CellSpec]) -> List[List[CellSpec]]:
    """Consecutive chunks of :data:`SUBSWEEP_CELLS` cells."""
    return [list(cells[i:i + SUBSWEEP_CELLS]) for i in range(0, len(cells), SUBSWEEP_CELLS)]


def cached_fill(seed: int) -> List[CellSpec]:
    """The cells gateway-cached computes during set-up (240 by default)."""
    rng = _rng("gateway-cached", seed, "fill")
    return [
        _cell(bench, platform, regulator, rng.randrange(1, 10**6), SERVICE_HORIZON)
        for bench in BENCHMARKS
        for regulator in REGULATORS
        for platform in ("private", "gce")
        for _ in range(CACHED_FILL_SEEDS)
    ]


@dataclass(frozen=True)
class Op:
    """One client operation.

    ``kind`` is ``job`` (submit ``cells`` and wait for the job),
    ``fetch`` (fetch ``run_id``) or ``result`` (the result of this
    client's most recent job).
    """

    kind: str
    cells: Tuple[CellSpec, ...] = ()
    run_id: Optional[str] = None


def cached_ops(seed: int, client: int, fill: Sequence[CellSpec]) -> Iterator[Op]:
    """Endless seeded op mix of one gateway-cached client.

    Ops come in blocks of five, in seeded order: two jobs, two fetches
    and one result, so every seed has the same mix.  Job sizes are dealt
    from seeded permutations of 1–32 for the same reason.  A client's
    first op is a job, so a result always has a job to name.
    """
    rng = _rng("gateway-cached", seed, "client", client)
    sizes: List[int] = []

    def job() -> Op:
        if not sizes:
            sizes.extend(range(1, CACHED_MAX_JOB + 1))
            rng.shuffle(sizes)
        return Op("job", cells=tuple(rng.sample(list(fill), sizes.pop())))

    yield job()
    while True:
        block = ["job", "job", "fetch", "fetch", "result"]
        rng.shuffle(block)
        for kind in block:
            if kind == "job":
                yield job()
            elif kind == "fetch":
                yield Op("fetch", run_id=rng.choice(fill).run_id)
            else:
                yield Op("result")


def _dealt(workload: str, seed: int, deck: Sequence[str], index: int) -> str:
    """Card ``index`` of an endless deal of seeded permutations of ``deck``.

    Any ``len(deck)`` consecutive cards hold every item once, so a run's
    mix of benchmarks or regulators does not depend on its seed.
    """
    hand = list(deck)
    _rng(workload, seed, "deal", "".join(deck), index // len(deck)).shuffle(hand)
    return hand[index % len(deck)]


def overlap_round(seed: int, round_no: int) -> Tuple[List[CellSpec], List[List[CellSpec]]]:
    """Round ``round_no`` of gateway-overlap: (shared cells, own cells per client).

    Benchmarks and regulators are dealt from seeded permutations, so
    every five rounds use each benchmark five times and each regulator
    six times.  Every cell is new: simulation seeds count up from a
    seeded base, so no two cells of a run share a run_id and every job
    must execute.
    """
    base = _rng("gateway-overlap", seed).randrange(1, 10**6) * 1000
    per_round = OVERLAP_SHARED + 2 * OVERLAP_OWN
    cells = []
    for i in range(round_no * per_round, (round_no + 1) * per_round):
        bench = _dealt("gateway-overlap", seed, BENCHMARKS, i)
        regulator = _dealt("gateway-overlap", seed, REGULATORS, i)
        cells.append(_cell(bench, "private", regulator, base + i, SERVICE_HORIZON))
    shared = cells[:OVERLAP_SHARED]
    own = [cells[OVERLAP_SHARED + c * OVERLAP_OWN:OVERLAP_SHARED + (c + 1) * OVERLAP_OWN]
           for c in range(2)]
    return shared, own


def overlap_ops(seed: int, client: int) -> Iterator[Op]:
    """Endless op sequence of one gateway-overlap client.

    Round r: submit this client's round-r plan (the shared half plus its
    own half) and wait, then fetch one of its cells.
    """
    rng = _rng("gateway-overlap", seed, "client", client)
    round_no = 0
    while True:
        shared, own = overlap_round(seed, round_no)
        cells = tuple(shared + own[client])
        yield Op("job", cells=cells)
        yield Op("fetch", run_id=rng.choice(cells).run_id)
        round_no += 1
