"""Per-layer measurements for the traced run.

Every number here comes from a span the benchmark wraps around a
public call into one layer, made in-process from these files; nothing
inside ``src/`` is hooked.  The legs run after the workload's client
loop, on the workload's own inputs: its typical job, its store and its
ledger as the loop left them, so a layer whose cost depends on the
workload (ledger scans, store reads, job shapes) is measured at the
size that workload reaches.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import statistics
import threading
import time
from typing import Dict, List, Sequence

from perfbench import plans
from perfbench.loadgen import (
    WORKERS,
    CountingTransport,
    LoopResult,
    Workload,
    make_client,
)
from perfbench.spans import Tracer

from repro.experiments.executor import ParallelExecutor, execute_cell
from repro.experiments.plan import CellSpec, Plan
from repro.experiments.pool import WorkerPool
from repro.experiments.record import build_experiment_record
from repro.experiments.store import ResultStore
from repro.faults.catalog import build_fault_plan
from repro.obs import Telemetry
from repro.obs.ledger import RunLedger
from repro.obs.runmeta import build_record
from repro.pipeline import CloudSystem, SystemConfig
from repro.regulators import make_regulator
from repro.service.gateway import ServiceGateway
from repro.service.jobs import JobSpec
from repro.service.journal import JobJournal
from repro.service.scheduler import SweepScheduler
from repro.simcore import Environment
from repro.workloads import PLATFORMS, Resolution

#: The fixed reference cells the model legs run: independent of the
#: workload seed, so ``simcore.events`` repeats exactly across runs.
REFERENCE_CELLS = (
    CellSpec("IM", "private", "720p", "ODR60", 1, *plans.SWEEP_HORIZON),
    CellSpec("STK", "private", "720p", "NoReg", 1, *plans.SWEEP_HORIZON),
    CellSpec("D2", "private", "720p", "RVS60", 1, *plans.SWEEP_HORIZON),
)
#: The fault class of the faulted twin in ``faults.run_ratio``.
FAULT_CLASS = "encode_stall"
REPEATS = 3
SERVICE_JOBS = 10
SERVICE_JOB_CELLS = 8


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ms(tracer: Tracer, name: str) -> float:
    return _median([span.duration * 1000.0 for span in tracer.named(name)])


def _ratio(tracer: Tracer, num: str, den: str) -> float:
    pairs = zip(tracer.named(num), tracer.named(den))
    return _median([a.duration / b.duration for a, b in pairs if b.duration > 0])


# -- simcore -----------------------------------------------------------------


def synthetic_mix(env: Environment, processes: int = 64) -> List[int]:
    """A pipeline-free timeout/process mix; returns a resume counter.

    Each process cycles through fixed delays and, every eighth step,
    starts a short child process and waits for it.
    """
    count = [0]

    def child(delay: float):  # type: ignore[no-untyped-def]
        yield env.timeout(delay)
        count[0] += 1

    def worker(index: int):  # type: ignore[no-untyped-def]
        delays = [0.5 + ((index * 7 + k * 3) % 11) * 0.25 for k in range(8)]
        step = 0
        while True:
            if step % 8 == 7:
                yield env.process(child(delays[step % 8] / 2))
            else:
                yield env.timeout(delays[step % 8])
            count[0] += 1
            step += 1

    for index in range(processes):
        env.process(worker(index))
    return count


def engine_leg(tracer: Tracer, horizon: float = 2000.0) -> Dict[str, float]:
    rates = []
    for _ in range(REPEATS):
        env = Environment()
        count = synthetic_mix(env)
        with tracer.span("simcore.Environment.run"):
            start = time.perf_counter()
            env.run(until=horizon)
            wall = time.perf_counter() - start
        rates.append(count[0] / wall)
    return {"simcore.synthetic_events_per_s": _median(rates)}


# -- pipeline, obs telemetry, faults, records --------------------------------


def _system(spec: CellSpec, **kwargs: object) -> CloudSystem:
    config = SystemConfig(
        benchmark=spec.benchmark,
        platform=PLATFORMS[spec.platform],
        resolution=Resolution(spec.resolution),
        seed=spec.seed,
        duration_ms=spec.duration_ms,
        warmup_ms=spec.warmup_ms,
    )
    return CloudSystem(config, make_regulator(spec.regulator), **kwargs)  # type: ignore[arg-type]


def model_legs(tracer: Tracer) -> Dict[str, float]:
    events = 0
    sim_ratios = []
    for rep in range(REPEATS):
        for spec in REFERENCE_CELLS:
            with tracer.span("pipeline.CloudSystem.__init__"):
                system = _system(spec)
            with tracer.span("pipeline.CloudSystem.run[bare]"):
                start = time.perf_counter()
                system.run()
                sim_s = (spec.duration_ms + spec.warmup_ms) / 1000.0
                sim_ratios.append((time.perf_counter() - start) / sim_s)
            system = _system(spec, telemetry=Telemetry())
            with tracer.span("pipeline.CloudSystem.run[telemetry]"):
                system.run()
            telemetry = Telemetry(engine_probe=True)
            system = _system(spec, telemetry=telemetry)
            with tracer.span("pipeline.CloudSystem.run[probe]"):
                result = system.run()
            if rep == 0:
                assert telemetry.probe is not None
                events += int(telemetry.probe.events_fired)
            faulted = _system(
                spec,
                fault_plan=build_fault_plan(FAULT_CLASS, spec.duration_ms, spec.warmup_ms),
            )
            with tracer.span("pipeline.CloudSystem.run[faults]"):
                faulted.run()
            regulator = make_regulator(spec.regulator)
            resolution = Resolution(spec.resolution)
            with tracer.span("experiments.build_experiment_record"):
                build_experiment_record(
                    result,
                    benchmark=spec.benchmark,
                    config_label=spec.experiment_config().label,
                    platform=spec.platform,
                    resolution=resolution.value,
                    regulator_name=regulator.name,
                    fps_target=regulator.fps_target,
                    qos_target=float(resolution.default_fps_target),
                )
            with tracer.span("obs.build_record"):
                build_record(result, spec.config_payload(), label=spec.label,
                             wall_clock_s=1.0, git_rev="perfbench")
    return {
        "simcore.events": events,
        "pipeline.host_s_per_sim_s": _median(sim_ratios),
        "pipeline.build_ms": _ms(tracer, "pipeline.CloudSystem.__init__"),
        "obs.telemetry_ratio": _ratio(
            tracer, "pipeline.CloudSystem.run[telemetry]", "pipeline.CloudSystem.run[bare]"),
        "obs.probe_ratio": _ratio(
            tracer, "pipeline.CloudSystem.run[probe]", "pipeline.CloudSystem.run[telemetry]"),
        "faults.run_ratio": _ratio(
            tracer, "pipeline.CloudSystem.run[faults]", "pipeline.CloudSystem.run[bare]"),
        "record.build_ms": _ms(tracer, "experiments.build_experiment_record"),
        "ledger.record_build_ms": _ms(tracer, "obs.build_record"),
    }


# -- experiments: cells, pool, store; obs ledger; service journal -------------


def cell_legs(tracer: Tracer, workload: Workload, leg_dir: str) -> Dict[str, float]:
    job = workload.typical_job()
    pool = WorkerPool(WORKERS, events=workload.name != "sweep-cold")
    serial_s, parallel_s = [], []
    try:
        with tracer.span("experiments.WorkerPool.warm"):
            pool.warm()
        executor = ParallelExecutor(WORKERS, pool=pool)
        for rep in range(REPEATS):
            outcomes = []
            start = time.perf_counter()
            for spec in job:
                with tracer.span("experiments.execute_cell"):
                    outcomes.append(execute_cell(spec, collect_ledger=True, git_rev=workload.git_rev))
            serial_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            with tracer.span("experiments.ParallelExecutor.run"):
                executor.run(Plan(job), store=ResultStore(),
                             ledger=RunLedger(os.path.join(leg_dir, f"parallel-{rep}")),
                             git_rev=workload.git_rev)
            parallel_s.append(time.perf_counter() - start)
    finally:
        pool.close()

    cells = os.path.join(leg_dir, "cells")
    store = ResultStore(cells)
    for outcome in outcomes:
        with tracer.span("experiments.ResultStore.put"):
            store.put(outcome.spec.run_id, outcome.record)
    store = ResultStore(cells)
    for outcome in outcomes:
        with tracer.span("experiments.ResultStore.get[disk]"):
            store.get(outcome.spec.run_id)
        with tracer.span("experiments.ResultStore.get[memory]"):
            store.get(outcome.spec.run_id)

    ledger_dir = os.path.join(leg_dir, "ledger")
    os.makedirs(ledger_dir)
    source = RunLedger(workload.ledger_dir_last()).path
    if source.exists():
        shutil.copyfile(source, os.path.join(ledger_dir, "ledger.jsonl"))
    ledger = RunLedger(ledger_dir)
    rows = 0
    for _ in range(REPEATS):
        with tracer.span("obs.RunLedger.records"):
            rows = len(ledger.records())
    for outcome in outcomes:
        assert outcome.ledger_record is not None
        with tracer.span("obs.RunLedger.append"):
            ledger.append(outcome.ledger_record)

    journal = JobJournal(os.path.join(leg_dir, "jobs.jsonl"))
    params = {"cells": [spec.to_dict() for spec in job]}
    for n in range(SERVICE_JOBS):
        with tracer.span("service.JobJournal.record_submitted"):
            journal.record_submitted(f"job-{n}", "cells", params, "perfbench", f"tok-{n}", len(job))
        with tracer.span("service.JobJournal.record_finished"):
            journal.record_finished(f"job-{n}", "done", executed=len(job))
    journal_ms = [span.duration * 1000.0 for span in tracer.spans
                  if span.name.startswith("service.JobJournal.")]

    return {
        "cell.host_s.p50": _ms(tracer, "experiments.execute_cell") / 1000.0,
        "pool.warm_s": tracer.named("experiments.WorkerPool.warm")[-1].duration,
        "pool.parallel_efficiency": _median(serial_s) / (WORKERS * _median(parallel_s)),
        "store.put_ms": _ms(tracer, "experiments.ResultStore.put"),
        "store.get_ms.disk": _ms(tracer, "experiments.ResultStore.get[disk]"),
        "store.get_ms.memory": _ms(tracer, "experiments.ResultStore.get[memory]"),
        "ledger.scan_ms": _ms(tracer, "obs.RunLedger.records"),
        "ledger.append_ms": _ms(tracer, "obs.RunLedger.append"),
        "ledger.rows": float(rows),
        "journal.append_ms": _median(journal_ms),
    }


# -- service: scheduler without a socket, then through a gateway -------------


class _InProcessGateway:
    """A :class:`ServiceGateway` serving on its own event-loop thread."""

    def __init__(self, scheduler: SweepScheduler) -> None:
        self.gateway = ServiceGateway(scheduler, port=0)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, name="leg-gateway")

    def _serve(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.gateway.start())
        self._ready.set()
        self.loop.run_until_complete(self.gateway.serve_until_shutdown())
        # Connection handlers still closing their sockets finish here,
        # before the loop closes under them.
        pending = [task for task in asyncio.all_tasks(self.loop) if not task.done()]
        self.loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))

    def __enter__(self) -> "_InProcessGateway":
        self._thread.start()
        if not self._ready.wait(30.0):
            raise RuntimeError("in-process gateway did not start")
        return self

    def __exit__(self, *exc: object) -> None:
        self.loop.call_soon_threadsafe(self.gateway.begin_shutdown)
        self._thread.join(timeout=30.0)
        self.loop.close()


def _wait_job(scheduler: SweepScheduler, spec: JobSpec) -> None:
    done = threading.Event()
    job = scheduler.submit(spec)
    subscription = scheduler.subscribe(
        job.job_id, lambda event: done.set() if event.kind == "sweep_end" else None
    )
    try:
        if not done.wait(60.0):
            raise RuntimeError(f"scheduler job {job.job_id} did not finish")
    finally:
        subscription.close()


def service_legs(tracer: Tracer, workload: Workload, specs: Dict[str, CellSpec]) -> Dict[str, float]:
    ledger = RunLedger(workload.ledger_dir_last())
    run_ids = sorted(str(row["run_id"]) for row in ledger.records())
    rng = random.Random(f"legs:{workload.seed}")
    jobs = [
        [specs[run_id] for run_id in rng.sample(run_ids, min(SERVICE_JOB_CELLS, len(run_ids)))]
        for _ in range(SERVICE_JOBS + 1)
    ]
    scheduler = SweepScheduler(
        ResultStore(workload.store_dir()),
        ledger=ledger,
        pool=WorkerPool(WORKERS, events=True),
        git_rev=workload.git_rev,
    )
    off = Tracer(enabled=False)
    try:
        with _InProcessGateway(scheduler) as served:
            client = make_client(served.gateway.port, CountingTransport())
            for n, cells in enumerate(jobs):
                tr = tracer if n else off  # the first job of each path warms it
                payload = {"cells": [spec.to_dict() for spec in cells]}
                with tr.span("service.SweepScheduler.submit+wait"):
                    _wait_job(scheduler, JobSpec(kind="cells", params=payload))
                with tr.span("service.ServiceClient.ping"):
                    client.ping()
                with tr.span("service.ServiceClient.submit+watch"):
                    job = client.submit_plan(Plan(cells))
                    for _ in client.watch(str(job["job_id"])):
                        pass
    finally:
        scheduler.close()
    scheduler_ms = _ms(tracer, "service.SweepScheduler.submit+wait")
    return {
        "scheduler.job_ms": scheduler_ms,
        "gateway.ping_ms": _ms(tracer, "service.ServiceClient.ping"),
        "gateway.overhead_ms": _ms(tracer, "service.ServiceClient.submit+watch") - scheduler_ms,
    }


# -- from the workload loop itself -------------------------------------------


def loop_metrics(tracer: Tracer, loop: LoopResult) -> Dict[str, float]:
    jobs = [s for s in loop.samples if s.kind == "job"]
    requested = sum(s.cells for s in jobs)
    traced = [s.ms for s in jobs if s.traced]
    untraced = [s.ms for s in jobs if not s.traced]
    overhead = (_median(traced) / _median(untraced) - 1.0) * 100.0 if traced and untraced else 0.0
    self_times = tracer.self_times()
    op_self = [self_times[span.span_id] * 1000.0 for span in tracer.spans
               if span.name.startswith("op.")]
    return {
        "scheduler.dedupe_ratio": sum(s.executed for s in jobs) / requested if requested else 0.0,
        "trace.overhead_pct": overhead,
        "loadgen.self_ms": _median(op_self),
    }


def all_legs(tracer: Tracer, workload: Workload, loop: LoopResult,
             specs: Dict[str, CellSpec], leg_dir: str) -> Dict[str, float]:
    """Every per-layer metric of one traced run."""
    metrics = loop_metrics(tracer, loop)
    metrics.update(engine_leg(tracer))
    metrics.update(model_legs(tracer))
    metrics.update(cell_legs(tracer, workload, leg_dir))
    metrics.update(service_legs(tracer, workload, specs))
    return metrics
