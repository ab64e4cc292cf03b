"""The sweep scheduler: many jobs, one pool, each unique cell once.

:class:`SweepScheduler` is the server-side engine behind the gateway.
It owns the shared execution state — one warm
:class:`~repro.experiments.pool.WorkerPool`, one
:class:`~repro.experiments.store.ResultStore`, one
:class:`~repro.obs.ledger.RunLedger` — and runs each submitted job on
a thread through the same execution core the offline executors use
(:class:`~repro.experiments.executor.PlanRun`: store pass → run the
missing cells → publish → narrate → report).  The store pass trusts a
stored cell only when the ledger also holds it, so a crash torn
between the store write and the ledger append re-executes that cell
(bit-identically; the ledger append then dedupes) on every entry
point alike.  One publish lock, shared by every job, keeps each
cell's store write and ledger append adjacent.

What the scheduler adds is its strategy for the missing cells:

* :class:`InflightRegistry` — cross-job in-flight dedupe by ``run_id``.
  The first job to reach a missing cell *claims* it and executes it
  through :meth:`~repro.experiments.executor.ParallelExecutor.dispatch`
  (the warm pool, with the degraded in-process fallback); any
  concurrent job with the same cell *joins* and waits for the owner's
  published result.  Two clients submitting overlapping matrices
  execute each unique cell exactly once, and both see the identical
  record (the cell is content-addressed; whoever runs it computes the
  same bits).  An owned cell is resolved only after the core has
  published it, so a joiner always finds it in the store.
* :class:`EventRouter` — fans worker-side sweep events (which carry a
  ``run_id``, not a job id) out to the bus of the job that owns the
  cell, so each job's event stream narrates exactly its own sweep.

Determinism is inherited, not re-proven: cells execute through the
same :func:`~repro.experiments.executor.execute_cells` body as offline
runs, so records and metrics digests are bit-identical to a serial run
of the union plan — the acceptance invariant the service tests check.

The scheduler also owns the job lifecycle — the gateway's survival
layer:

* **admission control** — at most ``max_queued_jobs`` non-terminal jobs
  are admitted; beyond that :meth:`SweepScheduler.submit` raises
  :class:`~repro.service.errors.ServerBusy` (with a retry-after hint)
  and emits a ``load_shed`` event, so overload degrades to explicit
  backpressure instead of unbounded queueing;
* **journaled recovery** — with a :class:`~repro.service.journal.JobJournal`
  attached, every accepted job is journaled before it runs and again
  when it finishes; :meth:`SweepScheduler.recover` replays
  submitted-but-unfinished jobs after a crash under their original ids
  and tokens, emitting ``job_recovered``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.experiments.executor import (
    CellResult,
    ParallelExecutor,
    PlanRun,
    execute_cells,
)
from repro.experiments.plan import CellSpec
from repro.experiments.pool import WorkerPool
from repro.experiments.results import CellFailure, CellOutcome
from repro.experiments.store import ResultStore
from repro.obs import sweep as sweepbus
from repro.obs.ledger import RunLedger
from repro.obs.probes import host_epoch
from repro.obs.runmeta import config_fingerprint
from repro.obs.sweep import SweepEvent, SweepEventBus
from repro.service.errors import ServerBusy
from repro.service.jobs import Job, JobSpec, JobState
from repro.service.journal import JobJournal

__all__ = [
    "EventRouter",
    "InflightRegistry",
    "Subscription",
    "SweepScheduler",
]


class _Inflight:
    """One claimed cell: who owns it, and how it resolved."""

    __slots__ = ("owner", "done", "error")

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self.done = threading.Event()
        self.error: Optional[str] = None


class InflightRegistry:
    """Claim-or-join arbitration for concurrently demanded cells.

    The first claimer of a ``run_id`` owns its execution; later
    claimers join and :meth:`wait` for the owner to resolve.  A cell
    resolved with an error is re-claimable (the next job to demand it
    retries); a cell resolved clean stays joined forever — its record
    is in the store.  Deadlock-free by construction: a job resolves
    every cell it owns (success, failure, or owner-abort) *before* it
    waits on any cell it joined, so cross-job waits only ever point at
    execution phases, never at other waits.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, _Inflight] = {}

    def claim(self, run_id: str, owner: str) -> bool:
        """True → ``owner`` executes this cell; False → join and wait."""
        with self._lock:
            entry = self._entries.get(run_id)
            if entry is None or (entry.done.is_set() and entry.error is not None):
                self._entries[run_id] = _Inflight(owner)
                return True
            return False

    def resolve(self, run_id: str, error: Optional[str] = None) -> None:
        """Owner's completion signal: clean, or with a failure cause."""
        with self._lock:
            entry = self._entries.get(run_id)
        if entry is not None and not entry.done.is_set():
            entry.error = error
            entry.done.set()

    def wait(self, run_id: str, timeout_s: Optional[float] = None) -> Optional[str]:
        """Block until the owner resolves; returns its error (None = clean)."""
        with self._lock:
            entry = self._entries.get(run_id)
        if entry is None:
            return "in-flight entry vanished before resolution"
        if not entry.done.wait(timeout_s):
            return f"timed out waiting for in-flight owner ({entry.owner})"
        return entry.error

    def abort_owned(self, owner: str, error: str) -> None:
        """Resolve every unresolved cell ``owner`` claimed, as failed.

        Called from the owning job's ``finally`` so joiners never wait
        on a job that died before reaching a cell.
        """
        with self._lock:
            entries = [
                e for e in self._entries.values() if e.owner == owner
            ]
        for entry in entries:
            if not entry.done.is_set():
                entry.error = error
                entry.done.set()


class EventRouter:
    """Fan worker-side events out to the owning job's bus.

    Worker events identify cells (``run_id``), not jobs; the router
    holds the run→bus mapping for every cell currently owned by a
    running job.  Events without a ``run_id`` (``worker_spawned``) are
    pool-level and broadcast to every active job.  ``deactivate``
    removes a job under the dispatch lock, so once it returns no
    further event can reach that job's bus — the job then emits its
    ``sweep_end`` knowing its stream is sealed.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_run: Dict[str, SweepEventBus] = {}
        self._active: Dict[str, SweepEventBus] = {}

    def activate(self, job_id: str, bus: SweepEventBus, run_ids: List[str]) -> None:
        with self._lock:
            self._active[job_id] = bus
            for run_id in run_ids:
                self._by_run[run_id] = bus

    def deactivate(self, job_id: str) -> None:
        with self._lock:
            bus = self._active.pop(job_id, None)
            if bus is not None:
                self._by_run = {
                    run_id: b for run_id, b in self._by_run.items() if b is not bus
                }

    def dispatch(self, kind: str, fields: Dict[str, Any]) -> None:
        """The pool's event sink (called on the pool's drain thread)."""
        with self._lock:
            run_id = fields.get("run_id")
            if run_id is None:
                for bus in self._active.values():
                    bus.emit(kind, **fields)
                return
            bus = self._by_run.get(str(run_id))
            if bus is not None:
                bus.emit(kind, **fields)


class Subscription:
    """One client's ordered, gap-free view of a job's event stream.

    Subscribing races the live bus: events emitted between the
    subscribe call and the history replay could arrive twice or out of
    order.  The subscription buffers live events until the replay
    finishes, then merges by ``seq`` (each bus numbers its events
    densely), delivering every event exactly once, in order.

    ``since_seq`` makes the stream *resumable*: a reconnecting watcher
    passes the last ``seq`` it saw, and the replay skips everything at
    or below it — the client's event log continues gap-free across a
    dropped connection instead of starting over.
    """

    def __init__(
        self,
        deliver: Callable[[SweepEvent], None],
        since_seq: int = -1,
    ) -> None:
        self._deliver = deliver
        self._lock = threading.Lock()
        self._live = False
        self._closed = False
        self._pending: List[SweepEvent] = []
        self._last_seq = since_seq

    def _on_event(self, event: SweepEvent) -> None:
        with self._lock:
            if self._closed:
                return
            if not self._live:
                self._pending.append(event)
                return
            if event.seq <= self._last_seq:
                return
            self._last_seq = event.seq
            deliver = self._deliver
        deliver(event)

    def start(self, bus: SweepEventBus) -> "Subscription":
        bus.subscribe(self._on_event)
        history = list(bus.events)
        with self._lock:
            merged = {event.seq: event for event in history}
            for event in self._pending:
                merged.setdefault(event.seq, event)
            self._pending = []
            backlog = [
                merged[seq] for seq in sorted(merged) if seq > self._last_seq
            ]
            if backlog:
                self._last_seq = backlog[-1].seq
            self._live = True
        for event in backlog:
            if not self._closed:
                self._deliver(event)
        return self

    def close(self) -> None:
        """Stop delivery (the bus keeps the dead callback; it no-ops)."""
        with self._lock:
            self._closed = True


class SweepScheduler:
    """Run submitted jobs concurrently over one shared pool and store."""

    def __init__(
        self,
        store: ResultStore,
        ledger: Optional[RunLedger] = None,
        pool: Optional[WorkerPool] = None,
        workers: int = 2,
        max_parallel_jobs: int = 4,
        chunk: Optional[int] = None,
        cell_timeout_s: Optional[float] = None,
        max_attempts: int = 2,
        git_rev: Optional[str] = None,
        events_path: Optional[str] = None,
        max_queued_jobs: int = 64,
        journal: Optional[JobJournal] = None,
    ) -> None:
        if max_parallel_jobs < 1:
            raise ValueError("max_parallel_jobs must be >= 1")
        if max_queued_jobs < 1:
            raise ValueError("max_queued_jobs must be >= 1")
        self.store = store
        self.ledger = ledger
        self.pool = pool if pool is not None else WorkerPool(workers, events=True)
        #: How owned cells run: the pooled strategy over the shared pool.
        self._pooled = ParallelExecutor(
            self.pool.workers,
            cell_timeout_s=cell_timeout_s,
            max_attempts=max_attempts,
            chunk=chunk,
            pool=self.pool,
        )
        self._run_chunk = partial(
            execute_cells, collect_ledger=ledger is not None, git_rev=git_rev
        )
        #: Serializes every job's store write + ledger append.
        self._publish_lock = threading.Lock()
        #: Where job buses persist their events (None → in-memory only).
        self.events_path = events_path
        #: Admission bound: most non-terminal jobs held at once.
        self.max_queued_jobs = max_queued_jobs
        #: Crash-recovery journal (None → job state is memory-only).
        self.journal = journal
        self.inflight = InflightRegistry()
        self.router = EventRouter()
        self.pool.attach_sink(self.router.dispatch)
        self._jobs: Dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._job_counter = 0
        #: Idempotency-token → job id (the resubmit-joins-job table).
        self._tokens: Dict[str, str] = {}
        self._threads = ThreadPoolExecutor(
            max_workers=max_parallel_jobs, thread_name_prefix="odr-job"
        )
        self._closed = False
        #: Server-level control-plane stream: admission decisions and
        #: detected client retries, which belong to no single job.  It
        #: is a sweep bus like any other (``sweep_id`` = this server's
        #: identity), so the same validators and dashboards apply.
        self.server_bus = SweepEventBus(
            path=events_path,
            sweep_id="server-"
            + config_fingerprint({"epoch": host_epoch(), "pid": os.getpid()})[:12],
        )
        self.server_bus.emit(
            sweepbus.SWEEP_BEGIN,
            cells=0,
            executor="service-control",
            workers=self.pool.workers,
        )

    # -- job intake --------------------------------------------------------

    def _new_job_id(self) -> str:
        with self._jobs_lock:
            self._job_counter += 1
            nonce = self._job_counter
        return "job-" + config_fingerprint(
            {"epoch": host_epoch(), "pid": os.getpid(), "job": nonce}
        )[:12]

    def _active_jobs(self) -> int:
        with self._jobs_lock:
            return sum(1 for job in self._jobs.values() if not job.state.terminal)

    def submit(
        self,
        spec: JobSpec,
        job_id: Optional[str] = None,
        recovered: bool = False,
    ) -> Job:
        """Queue one sweep; returns the live job record immediately.

        Three admission outcomes precede queueing:

        * a ``spec.token`` the scheduler already accepted **joins** the
          existing job (idempotent resubmit — the client retried a
          submit whose reply it lost) and emits ``client_retry``;
        * more than :attr:`max_queued_jobs` non-terminal jobs raises
          :class:`~repro.service.errors.ServerBusy` and emits
          ``load_shed`` — explicit backpressure, never silent queueing;
        * otherwise the job is journaled (so a crash cannot lose it)
          and queued.

        ``job_id``/``recovered`` are the recovery path's levers: replay
        resubmits under the original identity without re-journaling.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        from repro.service.protocol import build_plan

        if spec.token:
            with self._jobs_lock:
                known = self._tokens.get(spec.token)
                existing = self._jobs.get(known) if known is not None else None
            if existing is not None:
                self.server_bus.emit(
                    sweepbus.CLIENT_RETRY,
                    op="submit",
                    token=spec.token,
                    job_id=existing.job_id,
                )
                return existing
        active = self._active_jobs()
        if not recovered and active >= self.max_queued_jobs:
            self.server_bus.emit(
                sweepbus.LOAD_SHED,
                reason=f"{active} active jobs >= max_queued_jobs "
                f"({self.max_queued_jobs})",
                active_jobs=active,
            )
            raise ServerBusy(
                f"submit queue full ({active} active jobs)",
                retry_after_s=1.0,
            )
        plan = build_plan(spec.kind, dict(spec.params))
        job_id = job_id if job_id is not None else self._new_job_id()
        bus = SweepEventBus(path=self.events_path, sweep_id=job_id)
        job = Job(
            job_id=job_id,
            spec=spec,
            plan=plan,
            bus=bus,
            submitted_epoch_s=host_epoch(),
            recovered=recovered,
        )
        with self._jobs_lock:
            self._jobs[job_id] = job
            if spec.token:
                self._tokens[spec.token] = job_id
        if self.journal is not None and not recovered:
            self.journal.record_submitted(
                job_id=job_id,
                kind=spec.kind,
                params=spec.params,
                label=spec.label,
                token=spec.token,
                cells=len(plan),
            )
        self._threads.submit(self._run_job, job)
        return job

    def recover(self) -> List[Job]:
        """Replay submitted-but-unfinished journaled jobs after a crash.

        Each pending journal entry is resubmitted under its **original**
        job id and idempotency token, so clients that saw the submit
        acknowledged before the crash keep polling the same id, and
        client-side submit retries join the recovered job.  The store
        pass then recalls every cell the previous life completed — only
        the missing cells execute, and the content-addressed ledger
        dedupes their re-appends, so the resumed sweep's results and
        ledger are bit-identical to an uninterrupted run's.
        """
        if self.journal is None:
            return []
        recovered: List[Job] = []
        for entry in self.journal.pending():
            spec = JobSpec(
                kind=entry.kind,
                params=entry.params,
                label=entry.label,
                token=entry.token,
            )
            recovered.append(
                self.submit(spec, job_id=entry.job_id, recovered=True)
            )
        return recovered

    def get(self, job_id: str) -> Optional[Job]:
        """Job by id (unique prefixes accepted, newest match wins)."""
        with self._jobs_lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job
            match: Optional[Job] = None
            for candidate_id, candidate in self._jobs.items():
                if candidate_id.startswith(job_id):
                    match = candidate
            return match

    def jobs(self) -> List[Job]:
        """Every job, oldest first."""
        with self._jobs_lock:
            return list(self._jobs.values())

    def subscribe(
        self,
        job_id: str,
        deliver: Callable[[SweepEvent], None],
        since_seq: int = -1,
    ) -> Subscription:
        """Stream a job's events (history replayed first) into ``deliver``.

        ``since_seq`` skips replay at or below that sequence number —
        how a reconnecting watcher resumes instead of starting over.
        """
        job = self.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return Subscription(deliver, since_seq=since_seq).start(job.bus)

    # -- the job body ------------------------------------------------------

    def _run_job(self, job: Job) -> None:
        job.state = JobState.RUNNING
        job.started_epoch_s = host_epoch()
        sweep = PlanRun(job.plan, job.bus, "service", self.pool.workers)
        try:
            with sweep:
                try:
                    if job.recovered:
                        job.bus.emit(
                            sweepbus.JOB_RECOVERED,
                            job_id=job.job_id,
                            cells=len(job.plan),
                            label=job.spec.label,
                        )
                    job.report = sweep.run(
                        partial(self._execute, job),
                        self.store,
                        self.ledger,
                        self._publish_lock,
                    )
                    job.state = JobState.DONE
                except Exception as exc:  # infrastructure, not a cell failure
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.state = JobState.FAILED
                finally:
                    # Terminal state and journal precede sweep_end, so a
                    # watcher that sees the stream end finds the job done.
                    job.finished_epoch_s = host_epoch()
                    self._journal_finished(job, sweep)
        except Exception as exc:  # the stream itself failed to open
            if not job.state.terminal:
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = JobState.FAILED
        finally:
            job.bus.close()

    def _journal_finished(self, job: Job, sweep: PlanRun) -> None:
        if self.journal is None:
            return
        report = sweep.report()
        try:
            self.journal.record_finished(
                job.job_id,
                state=job.state.value,
                executed=report.executed,
                cached=report.cached,
                failed=len(report.failures),
                error=job.error,
            )
        except OSError:
            # A full disk must not unwind past sweep_end; the job simply
            # replays on resume.
            pass

    def _execute(
        self, job: Job, specs: List[CellSpec]
    ) -> Generator[CellResult, None, None]:
        """Claim-or-join strategy for one job's missing cells.

        Owned cells run over the shared pool and are resolved in the
        registry only once the core has published them (it resumes
        this generator after publishing).  Joined cells are collected
        after every owned cell resolved, so cross-job waits only ever
        point at executing jobs — deadlock-free by construction.
        """
        claims = [
            (spec, self.inflight.claim(spec.run_id, job.job_id)) for spec in specs
        ]
        owned = [spec for spec, mine in claims if mine]
        self.router.activate(job.job_id, job.bus, [spec.run_id for spec in owned])
        results = self._pooled.dispatch(self.pool, owned, self._run_chunk, job.bus)
        try:
            for item in results:
                yield item
                error = item.error if isinstance(item, CellFailure) else None
                self.inflight.resolve(item.spec.run_id, error=error)
        finally:
            # Whatever happened above, joiners must never wait forever:
            # any cell this job claimed but did not resolve is failed.
            self.inflight.abort_owned(job.job_id, "owning job aborted")
            self.router.deactivate(job.job_id)
        for spec, mine in claims:
            if not mine:
                yield self._join(spec)

    def _join(self, spec: CellSpec) -> CellResult:
        """Wait for another job's claim on ``spec``; read what it published."""
        error = self.inflight.wait(spec.run_id)
        record = self.store.get(spec.run_id) if error is None else None
        if error is None and record is None:
            error = "owner resolved but result missing from store"
        if record is None:
            return CellFailure(spec, f"deduped execution failed: {error}")
        return CellOutcome(
            spec=spec,
            record=record,
            ledger_record=None,
            wall_clock_s=0.0,
            cached=True,
            deduped=True,
        )

    # -- lifecycle ---------------------------------------------------------

    def warm(self) -> None:
        """Pre-spawn the pool's workers (paid once per server)."""
        self.pool.warm()

    def close(self, close_pool: bool = True) -> None:
        """Drain running jobs, then shut the thread pool (and pool) down."""
        if self._closed:
            return
        self._closed = True
        self._threads.shutdown(wait=True)
        try:
            # Seal the control-plane stream so its event log validates.
            self.server_bus.emit(
                sweepbus.SWEEP_END,
                executed=0,
                cached=0,
                failed=0,
                wall_s=0.0,
            )
        finally:
            self.server_bus.close()
        if close_pool:
            self.pool.close()
