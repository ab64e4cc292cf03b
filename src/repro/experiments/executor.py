"""The execution layer: one core that runs a plan's cells.

Every plan — an offline sweep, a ``--resume`` pass, a service job —
runs through one loop, :class:`PlanRun`: **store pass → run the
missing cells → publish → narrate → report in plan order**.  One trust
rule governs the store pass: a stored record counts as cached only if
the attached ledger also holds its ``run_id``, so a crash torn between
the store write and the ledger append re-executes that cell instead
of leaving the ledger short.  One publish path writes the store and
appends the ledger, adjacent under one lock.

The entry points are strategies that only say how missing cells run:

* :class:`SerialExecutor` — one cell after another, in-process.
* :class:`ParallelExecutor` — a fan-out over a
  :class:`~repro.experiments.pool.WorkerPool` (``--workers N``),
  driven by the shared scheduling core
  (:func:`~repro.experiments.scheduling.schedule_cells`).  Each worker
  runs the same deterministic discrete-event simulation from the same
  :class:`CellSpec`, so the records it returns are **bit-identical**
  to a serial run — cells share no state, and every RNG stream is
  seeded from the spec alone.  Small cells are batched ``chunk`` per
  pool submission to amortize pickle/IPC overhead, and a caller that
  already owns a warm pool (the service gateway) passes it as
  ``pool=`` so worker spawn is paid once per server, not per sweep.
  A pool that cannot provide workers at all degrades the remaining
  cells to in-process serial execution (``degraded_serial``).
* the service's :class:`~repro.service.scheduler.SweepScheduler` —
  claims each missing cell or joins another job's in-flight claim,
  running owned cells through :meth:`ParallelExecutor.dispatch`.

Each finished cell is published *as it completes*, so an interrupted
sweep still persists every finished cell.

**Fault tolerance.**  A sweep survives its own failures: a cell that
raises becomes a :class:`CellFailure` on the report instead of
aborting the plan; the parallel executor additionally takes a
per-cell timeout (``cell_timeout_s``) and retries cells lost to a
worker crash (:class:`~concurrent.futures.process.BrokenProcessPool`)
up to ``max_attempts`` times in a respawned pool.  The report's
:attr:`~ExecutionReport.failures` enumerate what ultimately failed;
:attr:`~ExecutionReport.ok` gates exit codes, and a follow-up
``--resume`` run re-executes only the missing cells, bit-identically.

The cell body (:func:`execute_cell`) is the single place a cell turns
into numbers: it is what workers run (via the chunk runner
:func:`execute_cells`), what the serial path runs, and what
``Runner.run_cell`` ultimately calls.

**Sweep telemetry.**  Runs optionally narrate themselves into a
:class:`~repro.obs.sweep.SweepEventBus` (``bus=``): sweep begin/end,
cell scheduled/cached/started/finished/failed/deduped/retried/timed-out
events, pool openings and breakages, worker spawns, and store
quarantines.  Workers measure per-cell resources
(:class:`~repro.obs.sweep.CellResources`) and ship live events back
over the pool's manager queue.  The plane is strictly out-of-band —
with ``bus=None`` (the default) every hook site is one ``is None``
branch and results are bit-identical either way.
"""

from __future__ import annotations

import os
import signal
import threading
from contextlib import closing
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Set, Union

from repro.experiments.plan import CellSpec, Plan
from repro.experiments.pool import PoolUnavailableError, WorkerPool
from repro.experiments.record import build_experiment_record
from repro.experiments.results import (
    CellFailure,
    CellOutcome,
    ExecutionError,
    ExecutionReport,
)
from repro.experiments.results import exec_meta as _exec_meta
from repro.experiments.scheduling import (
    cell_event_fields as _cell_fields,
)
from repro.experiments.scheduling import ChunkRunner, resolve_chunk, schedule_cells
from repro.experiments.store import ResultStore
from repro.metrics.recovery import RecoveryStats, recovery_stats
from repro.obs import sweep as sweepbus
from repro.obs.ledger import RunLedger
from repro.obs.probes import host_epoch, host_wallclock
from repro.obs.runmeta import build_record
from repro.obs.sweep import ResourceMeter, SweepEventBus
from repro.pipeline import CloudSystem, SystemConfig
from repro.regulators import make_regulator
from repro.workloads import PLATFORMS, Resolution

__all__ = [
    "CellFailure",
    "CellOutcome",
    "ExecutionError",
    "ExecutionReport",
    "ParallelExecutor",
    "PlanRun",
    "SerialExecutor",
    "execute_cell",
    "execute_cells",
    "make_executor",
]

#: Test/CI hook: ``<run_id_prefix>:<marker_file>:<max_kills>`` — a worker
#: about to execute a matching cell SIGKILLs itself (at most
#: ``max_kills`` times across the sweep, tracked in ``marker_file``),
#: simulating a mid-sweep worker crash for the retry/resume paths.
_CRASH_ENV = "ODR_EXECUTOR_SIMULATED_CRASH"
#: Test hook: ``<run_id_prefix>:<seconds>`` — a worker executing a
#: matching cell sleeps first, simulating a hung cell for the timeout path.
_STALL_ENV = "ODR_EXECUTOR_SIMULATED_STALL"


def _chaos_hooks(spec: CellSpec) -> None:
    """Honor the simulated-crash/stall env hooks (tests and CI only)."""
    stall = os.environ.get(_STALL_ENV)  # analyzer: allow=P3 -- fault-injection hook, set only by chaos tests, never hashed
    if stall:
        prefix, _, seconds = stall.partition(":")
        if spec.run_id.startswith(prefix):
            import time

            time.sleep(float(seconds))
    crash = os.environ.get(_CRASH_ENV)  # analyzer: allow=P3 -- fault-injection hook, set only by chaos tests, never hashed
    if crash:
        prefix, marker_path, max_kills = crash.rsplit(":", 2)
        if not prefix or spec.run_id.startswith(prefix):
            try:
                with open(marker_path, "r", encoding="utf-8") as handle:
                    kills = len(handle.read().split())
            except OSError:
                kills = 0
            if kills < int(max_kills):
                with open(marker_path, "a", encoding="utf-8") as handle:
                    handle.write(f"{spec.run_id}\n")
                os.kill(os.getpid(), signal.SIGKILL)


def execute_cell(
    spec: CellSpec,
    collect_ledger: bool = False,
    telemetry_dir: Optional[str] = None,
    git_rev: Optional[str] = None,
) -> CellOutcome:
    """Execute one cell: the deterministic unit both executors run.

    Everything the simulation needs is derived from the plain-data
    ``spec`` — including its fault plan, whose stochastic details
    resolve from the spec's seed — so this function is safe to ship to
    a worker process; the returned outcome (record + optional ledger
    run record) is likewise plain data.  ``git_rev`` is resolved by the
    caller once per plan, not per cell (workers may not even be inside
    the repo).
    """
    sweepbus.emit_cell_event(
        sweepbus.CELL_STARTED,
        run_id=spec.run_id,
        label=spec.label,
        pid=os.getpid(),
        epoch_s=host_epoch(),
        faults=bool(spec.faults),
        fault_class=spec.fault_class,
    )
    _chaos_hooks(spec)
    combo_platform = PLATFORMS[spec.platform]
    resolution = Resolution(spec.resolution)
    regulator = make_regulator(spec.regulator)
    sys_config = SystemConfig(
        benchmark=spec.benchmark,
        platform=combo_platform,
        resolution=resolution,
        seed=spec.seed,
        duration_ms=spec.duration_ms,
        warmup_ms=spec.warmup_ms,
    )
    telemetry = None
    if telemetry_dir is not None or collect_ledger:
        from repro.obs import Telemetry

        # Ledger records need gate-delay statistics (telemetry) and
        # events/sec (engine probe), so ledger collection forces both on.
        telemetry = Telemetry(engine_probe=collect_ledger)
    meter = ResourceMeter()
    system = CloudSystem(
        sys_config, regulator, telemetry=telemetry, fault_plan=spec.fault_plan()
    )
    result = system.run()
    events_fired: Optional[int] = None
    if telemetry is not None and telemetry.probe is not None:
        events_fired = int(telemetry.probe.events_fired)
    resources = meter.finish(events_fired=events_fired)
    wall_clock_s = resources.wall_s

    ledger_record: Optional[Dict[str, Any]] = None
    if collect_ledger:
        ledger_record = build_record(
            result,
            spec.config_payload(),
            label=spec.label,
            wall_clock_s=wall_clock_s,
            git_rev=git_rev,
        )
    if telemetry_dir is not None and telemetry is not None:
        _persist_telemetry(telemetry, spec, telemetry_dir)

    recovery: Optional[RecoveryStats] = None
    if system.faults is not None and system.faults.windows:
        recovery = recovery_stats(
            result,
            [(w.start_ms, w.end_ms) for w in system.faults.windows],
        )
    record = build_experiment_record(
        result,
        benchmark=spec.benchmark,
        config_label=spec.experiment_config().label,
        platform=combo_platform.name,
        resolution=resolution.value,
        regulator_name=regulator.name,
        fps_target=regulator.fps_target,
        qos_target=float(resolution.default_fps_target),
        recovery=recovery,
    )
    return CellOutcome(
        spec=spec,
        record=record,
        ledger_record=ledger_record,
        wall_clock_s=wall_clock_s,
        cached=False,
        resources=resources,
    )


def execute_cells(
    specs: List[CellSpec],
    collect_ledger: bool = False,
    telemetry_dir: Optional[str] = None,
    git_rev: Optional[str] = None,
) -> List[Union[CellOutcome, CellFailure]]:
    """The chunk runner workers execute: one result per cell, in order.

    A cell that raises becomes a :class:`CellFailure` *inside* the
    worker, so one bad cell cannot poison its chunk-mates — a chunk
    future only raises when the worker itself dies (crash) or the
    caller times the chunk out.
    """
    results: List[Union[CellOutcome, CellFailure]] = []
    for spec in specs:
        try:
            results.append(
                execute_cell(
                    spec,
                    collect_ledger=collect_ledger,
                    telemetry_dir=telemetry_dir,
                    git_rev=git_rev,
                )
            )
        except Exception as exc:
            results.append(
                CellFailure(spec, f"{type(exc).__name__}: {exc}", attempts=1)
            )
    return results


def _persist_telemetry(telemetry: Any, spec: CellSpec, telemetry_dir: str) -> None:
    """Write one cell's Chrome trace + JSONL dump to ``telemetry_dir``."""
    from repro.obs import write_chrome_trace, write_jsonl

    os.makedirs(telemetry_dir, exist_ok=True)
    label = spec.experiment_config().label.replace("/", "-")
    stem = os.path.join(telemetry_dir, f"{spec.benchmark}_{label}_s{spec.seed}")
    if spec.fault_class:
        stem += f"_{spec.fault_class}"
    elif spec.faults:
        stem += "_faults"
    write_chrome_trace(telemetry, stem + ".trace.json")
    write_jsonl(telemetry, stem + ".jsonl")


#: One cell's result as a strategy yields it.
CellResult = Union[CellOutcome, CellFailure]
#: A strategy: run the cells the store pass left missing, yielding one
#: result per cell.  The core publishes each yielded outcome before it
#: asks for the next one, so a strategy may act on "published" by
#: resuming after its ``yield``.
Strategy = Callable[[List[CellSpec]], Generator[CellResult, None, None]]


class PlanRun:
    """One plan through the execution core every entry point shares.

    Used as a context manager, it frames the sweep on ``bus``:
    ``sweep_begin`` on entry, ``sweep_end`` with the counts so far on
    every exit path.  :meth:`run` is the one plan-execution loop:

    1. **store pass** — a stored record counts as cached only if the
       attached ledger also holds its ``run_id`` (the ledger is read
       once, and only after the first store hit).  A crash torn
       between the store write and the ledger append therefore
       re-executes that cell — bit-identically; the append dedupes —
       instead of leaving the ledger a row short for good;
    2. **run** the missing cells through the caller's strategy;
    3. **publish** each executed cell: store write + ledger append,
       adjacent under ``publish_lock``;
    4. **narrate** every verdict and outcome onto the bus;
    5. **report** in plan order.
    """

    def __init__(
        self,
        plan: Plan,
        bus: Optional[SweepEventBus],
        executor: str,
        workers: int,
    ) -> None:
        self.plan = plan
        self.bus = bus
        self.executor = executor
        self.workers = workers
        self.outcomes: Dict[str, CellOutcome] = {}
        self.failures: Dict[str, CellFailure] = {}
        self._started = host_wallclock()

    def __enter__(self) -> "PlanRun":
        if self.bus is not None:
            self.bus.emit(
                sweepbus.SWEEP_BEGIN,
                cells=len(self.plan),
                executor=self.executor,
                workers=self.workers,
            )
        return self

    def __exit__(self, *exc_info: Any) -> None:
        # The stream's terminal frame: watchers key end-of-sweep off it,
        # so it is emitted on every exit path.
        if self.bus is not None:
            report = self.report()
            self.bus.emit(
                sweepbus.SWEEP_END,
                executed=report.executed,
                cached=report.cached,
                failed=len(report.failures),
                wall_s=host_wallclock() - self._started,
            )

    def report(self) -> ExecutionReport:
        """Everything resolved so far, in plan order."""
        run_ids = self.plan.run_ids
        return ExecutionReport(
            outcomes=tuple(self.outcomes[r] for r in run_ids if r in self.outcomes),
            failures=tuple(self.failures[r] for r in run_ids if r in self.failures),
        )

    def run(
        self,
        execute: Strategy,
        store: ResultStore,
        ledger: Optional[RunLedger] = None,
        publish_lock: Optional[threading.Lock] = None,
    ) -> ExecutionReport:
        """Store pass → run missing → publish → narrate → report."""
        bus = self.bus
        lock = publish_lock if publish_lock is not None else threading.Lock()
        restore_quarantine = store.on_quarantine
        if bus is not None:
            store.on_quarantine = lambda run_id, path: bus.emit(
                sweepbus.CELL_QUARANTINED, run_id=run_id, path=path
            )
        try:
            ledgered: Optional[Set[str]] = None
            missing: List[CellSpec] = []
            for run_id, spec in zip(self.plan.run_ids, self.plan):
                record = store.get(run_id)
                if record is not None and ledger is not None:
                    if ledgered is None:
                        rows = ledger.records()
                        ledgered = {str(row.get("run_id", "")) for row in rows}
                    if run_id not in ledgered:
                        record = None
                if record is None:
                    missing.append(spec)
                    if bus is not None:
                        bus.emit(sweepbus.CELL_SCHEDULED, **_cell_fields(spec))
                    continue
                self.outcomes[run_id] = CellOutcome(
                    spec=spec,
                    record=record,
                    ledger_record=None,
                    wall_clock_s=0.0,
                    cached=True,
                )
                if bus is not None:
                    bus.emit(sweepbus.CELL_CACHED, **_cell_fields(spec))
            if missing:
                with closing(execute(missing)) as results:
                    for item in results:
                        self._absorb(item, store, ledger, lock)
        finally:
            store.on_quarantine = restore_quarantine
        return self.report()

    def _absorb(
        self,
        item: CellResult,
        store: ResultStore,
        ledger: Optional[RunLedger],
        lock: threading.Lock,
    ) -> None:
        """Publish (when executed here) and narrate one strategy result."""
        bus = self.bus
        run_id = item.spec.run_id
        if isinstance(item, CellFailure):
            self.failures[run_id] = item
            if bus is not None:
                bus.emit(
                    sweepbus.CELL_FAILED,
                    error=item.error,
                    attempts=item.attempts,
                    **_cell_fields(item.spec),
                )
            return
        if item.deduped:
            # Another job executed and published it; nothing to write.
            self.outcomes[run_id] = item
            if bus is not None:
                bus.emit(sweepbus.CELL_DEDUPED, **_cell_fields(item.spec))
            return
        with lock:
            store.put(run_id, item.record, exec_meta=_exec_meta(item))
            if ledger is not None and item.ledger_record is not None:
                ledger.append(item.ledger_record)
        self.outcomes[run_id] = item
        if bus is not None:
            resources = item.resources.to_dict() if item.resources is not None else None
            bus.emit(
                sweepbus.CELL_FINISHED,
                wall_s=item.wall_clock_s,
                resources=resources,
                **_cell_fields(item.spec),
            )


def _bus_sink(bus: SweepEventBus) -> Callable[[str, Dict[str, Any]], None]:
    """A worker-event sink that re-emits onto ``bus``."""
    return lambda kind, fields: bus.emit(kind, **fields)


def _in_process(
    specs: Sequence[CellSpec],
    run_chunk: ChunkRunner,
    bus: Optional[SweepEventBus],
) -> Generator[CellResult, None, None]:
    """Run ``specs`` one at a time on this thread (cell events → ``bus``)."""
    if bus is not None:
        sweepbus.attach_worker_sink(_bus_sink(bus))
    try:
        for spec in specs:
            yield from run_chunk([spec])
    finally:
        if bus is not None:
            sweepbus.detach_worker_sink()


class SerialExecutor:
    """Execute a plan's missing cells one after another, in-process."""

    name = "serial"
    workers = 1

    def run(
        self,
        plan: Plan,
        store: Optional[ResultStore] = None,
        ledger: Optional[RunLedger] = None,
        telemetry_dir: Optional[str] = None,
        git_rev: Optional[str] = None,
        bus: Optional[SweepEventBus] = None,
    ) -> ExecutionReport:
        """Execute ``plan``; cached cells are recalled, the rest run.

        Every freshly executed cell is written through to ``store``
        (and appended to ``ledger``) the moment it completes, so an
        interrupted sweep keeps everything finished so far.  A cell
        that fails becomes a :class:`CellFailure` on the (then partial)
        report instead of aborting the sweep.  With a ``bus``, every
        scheduling decision and outcome is narrated as sweep events —
        observation only; the schedule is identical with or without it.
        """
        run_chunk = partial(
            execute_cells,
            collect_ledger=ledger is not None,
            telemetry_dir=telemetry_dir,
            git_rev=git_rev,
        )
        with PlanRun(plan, bus, self.name, self.workers) as sweep:
            return sweep.run(
                partial(self._execute, run_chunk=run_chunk, bus=bus),
                store if store is not None else ResultStore(),
                ledger,
            )

    def _execute(
        self,
        specs: List[CellSpec],
        run_chunk: ChunkRunner,
        bus: Optional[SweepEventBus],
    ) -> Generator[CellResult, None, None]:
        return _in_process(specs, run_chunk, bus)


class ParallelExecutor(SerialExecutor):
    """Fan a plan's missing cells out over a worker pool.

    Workers execute :func:`execute_cells` on chunks of plain
    :class:`CellSpec` payloads; results are harvested in submission
    order, so store writes and ledger appends happen incrementally
    (retried cells append after their retry completes).  Output is
    bit-identical to :class:`SerialExecutor` — the DES is
    deterministic in the spec.

    ``cell_timeout_s`` bounds the wait for any single cell's result
    (a cell that exceeds it is reported failed; its worker is
    abandoned at pool respawn) and forces one cell per submission.
    ``chunk`` sets cells-per-submission explicitly (default: auto —
    see :func:`~repro.experiments.scheduling.resolve_chunk`).  A
    worker crash breaks the pool
    (:class:`~concurrent.futures.BrokenExecutor`): finished results
    are harvested, and the lost cells re-run individually in a
    respawned pool until each has had ``max_attempts`` executions.
    A pool that cannot provide workers at all
    (:class:`~repro.experiments.pool.PoolUnavailableError`) degrades
    the remaining cells to in-process serial execution, emitting
    ``degraded_serial`` — slower, never wrong.

    By default each ``run`` spins up (and tears down) its own
    :class:`~repro.experiments.pool.WorkerPool`.  Pass ``pool=`` to
    run against a caller-owned pool instead — the service gateway
    keeps one warm pool for its whole lifetime and routes every job
    through it, paying worker spawn once per server.
    """

    name = "parallel"

    def __init__(
        self,
        workers: int,
        cell_timeout_s: Optional[float] = None,
        max_attempts: int = 2,
        chunk: Optional[int] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise ValueError("cell timeout must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if chunk is not None and chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.workers = workers
        self.cell_timeout_s = cell_timeout_s
        self.max_attempts = max_attempts
        self.chunk = chunk
        #: A caller-owned pool to run against (``None`` → per-run pool).
        self.pool = pool

    def _execute(
        self,
        specs: List[CellSpec],
        run_chunk: ChunkRunner,
        bus: Optional[SweepEventBus],
    ) -> Generator[CellResult, None, None]:
        workers = min(self.workers, len(specs))
        if workers <= 1 and self.pool is None:
            yield from _in_process(specs, run_chunk, bus)
            return
        pool = self.pool
        if pool is None:
            pool = WorkerPool(workers, events=bus is not None)
        previous_sink: Any = None
        if bus is not None:
            # Route worker-side events (worker_spawned, cell_started,
            # resources) into this run's bus for the duration of the
            # run; a borrowed pool gets its previous sink back after.
            previous_sink = pool.attach_sink(_bus_sink(bus))
        try:
            yield from self.dispatch(pool, specs, run_chunk, bus)
        finally:
            if bus is not None:
                pool.attach_sink(previous_sink)
            if pool is not self.pool:
                pool.close()

    def dispatch(
        self,
        pool: WorkerPool,
        specs: List[CellSpec],
        run_chunk: ChunkRunner,
        bus: Optional[SweepEventBus],
    ) -> Generator[CellResult, None, None]:
        """Run ``specs`` over ``pool``, degrading to in-process serial.

        Leaves the pool's event sink alone, so a caller that multiplexes
        one pool across concurrent runs (the service scheduler) routes
        worker events itself.
        """
        chunk = resolve_chunk(len(specs), self.workers, self.chunk, self.cell_timeout_s)
        done: Set[str] = set()
        try:
            for item in schedule_cells(
                pool,
                specs,
                run_chunk,
                chunk=chunk,
                cell_timeout_s=self.cell_timeout_s,
                max_attempts=self.max_attempts,
                bus=bus,
            ):
                done.add(item.spec.run_id)
                yield item
        except PoolUnavailableError as exc:
            # The pool cannot provide workers at all (closed, or the
            # host refuses to spawn processes) — respawning cannot help.
            # Finish the remaining cells in-process through the same
            # chunk body: slower, bit-identical, never silently dropped.
            remaining = [spec for spec in specs if spec.run_id not in done]
            if bus is not None:
                bus.emit(
                    sweepbus.DEGRADED_SERIAL,
                    reason=f"{type(exc).__name__}: {exc}",
                    cells=len(remaining),
                )
            yield from _in_process(remaining, run_chunk, bus)


def make_executor(
    workers: int = 1,
    cell_timeout_s: Optional[float] = None,
    chunk: Optional[int] = None,
) -> SerialExecutor:
    """``workers <= 1`` → serial; otherwise a pool of ``workers``."""
    if workers > 1:
        return ParallelExecutor(workers, cell_timeout_s=cell_timeout_s, chunk=chunk)
    return SerialExecutor()
