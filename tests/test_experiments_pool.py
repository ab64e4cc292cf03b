"""Tests for the reusable scheduling core: pool reuse and chunking.

The refactor's guarantees: a caller-owned :class:`WorkerPool` survives
across runs (warmup paid once), chunked submissions stay bit-identical
to serial execution, and :func:`resolve_chunk` implements the dispatch
policy the executor and service both inherit.
"""

import pytest

from repro.experiments import (
    CellSpec,
    ParallelExecutor,
    Plan,
    ResultStore,
    SerialExecutor,
    WorkerPool,
    execute_cells,
    resolve_chunk,
)
from repro.obs.ledger import RunLedger
from repro.obs.runmeta import metrics_digest
from repro.obs.sweep import (
    CELL_FINISHED,
    CELL_STARTED,
    DEGRADED_SERIAL,
    POOL_OPENED,
    SweepEventBus,
    validate_events,
)

DURATION_MS = 2000.0
WARMUP_MS = 500.0


def spec(benchmark="IM", regulator="ODR60", seed=1) -> CellSpec:
    return CellSpec(
        benchmark=benchmark,
        platform="private",
        resolution="720p",
        regulator=regulator,
        seed=seed,
        duration_ms=DURATION_MS,
        warmup_ms=WARMUP_MS,
    )


def four_cell_plan() -> Plan:
    return Plan(
        [
            spec("IM", "ODR60"),
            spec("RE", "NoReg"),
            spec("STK", "Int60"),
            spec("IM", "ODR60", seed=2),
        ]
    )


class TestResolveChunk:
    def test_timeout_forces_one(self):
        assert resolve_chunk(100, 4, chunk=8, cell_timeout_s=1.0) == 1

    def test_explicit_chunk_wins(self):
        assert resolve_chunk(100, 4, chunk=8) == 8
        with pytest.raises(ValueError):
            resolve_chunk(100, 4, chunk=0)

    def test_default_two_submissions_per_worker(self):
        assert resolve_chunk(8, 2) == 2
        assert resolve_chunk(28, 2) == 7
        # Plans smaller than 2x workers stay per-cell (chaos blast radius).
        assert resolve_chunk(4, 2) == 1
        assert resolve_chunk(1, 8) == 1
        with pytest.raises(ValueError):
            resolve_chunk(8, 0)


class TestChunkedEquivalence:
    def test_chunked_run_bit_identical_to_serial(self, tmp_path):
        serial_ledger = RunLedger(tmp_path / "serial")
        chunked_ledger = RunLedger(tmp_path / "chunked")
        serial = SerialExecutor().run(
            four_cell_plan(), store=ResultStore(), ledger=serial_ledger
        )
        chunked = ParallelExecutor(workers=2, chunk=2).run(
            four_cell_plan(), store=ResultStore(), ledger=chunked_ledger
        )
        assert chunked.ok and chunked.executed == 4
        for a, b in zip(serial.outcomes, chunked.outcomes):
            assert a.spec == b.spec
            assert a.record == b.record
            assert metrics_digest(a.ledger_record) == metrics_digest(
                b.ledger_record
            )

    def test_chunk_groups_submissions(self):
        bus = SweepEventBus()
        report = ParallelExecutor(workers=2, chunk=2).run(
            four_cell_plan(), store=ResultStore(), bus=bus
        )
        assert report.ok
        finished = [e for e in bus.events if e.kind == CELL_FINISHED]
        assert len(finished) == 4
        opened = [e for e in bus.events if e.kind == POOL_OPENED]
        assert opened and opened[0].fields["batch"] == 4


class TestPoolReuse:
    def test_one_pool_many_runs(self):
        plan_a = Plan([spec("IM"), spec("STK", "NoReg")])
        plan_b = Plan([spec("RE", "Int60"), spec("IM", seed=3)])
        serial_a = SerialExecutor().run(plan_a, store=ResultStore())
        serial_b = SerialExecutor().run(plan_b, store=ResultStore())
        with WorkerPool(workers=2) as pool:
            pool.warm()
            executor = ParallelExecutor(workers=2, pool=pool)
            report_a = executor.run(plan_a, store=ResultStore())
            report_b = executor.run(plan_b, store=ResultStore())
            assert pool.respawns == 0
        for serial, pooled in ((serial_a, report_a), (serial_b, report_b)):
            assert pooled.ok
            for a, b in zip(serial.outcomes, pooled.outcomes):
                assert a.spec == b.spec and a.record == b.record

    def test_borrowed_pool_survives_run(self):
        with WorkerPool(workers=2) as pool:
            ParallelExecutor(workers=2, pool=pool).run(
                Plan([spec()]), store=ResultStore()
            )
            # The run must not close a pool it does not own.
            future = pool.submit(execute_cells, [spec("STK", "NoReg")])
            results = future.result(timeout=60)
            assert len(results) == 1 and results[0].record is not None

    def test_event_plane_routes_to_attached_sink(self):
        seen = []
        with WorkerPool(workers=1, events=True) as pool:
            pool.attach_sink(lambda kind, fields: seen.append(kind))
            pool.warm()
            bus = SweepEventBus()
            ParallelExecutor(workers=1, pool=pool).run(
                Plan([spec()]), store=ResultStore(), bus=bus
            )
            # The executor temporarily claims the sink for its bus and
            # must hand it back afterwards.
            kinds = [e.kind for e in bus.events]
            assert CELL_FINISHED in kinds
            before = len(seen)
            pool.submit(execute_cells, [spec("STK", "NoReg")]).result(timeout=60)
            assert len(seen) > before  # worker events flow to our sink again


class TestDegradedSerial:
    def test_closed_pool_finishes_the_plan_in_process(self):
        """Offline runs get the service's fallback: a pool that cannot
        provide workers degrades to in-process execution, same bits."""
        plan = Plan([spec("IM"), spec("STK", "NoReg")])
        serial = SerialExecutor().run(plan, store=ResultStore())
        pool = WorkerPool(workers=1)
        pool.close()
        bus = SweepEventBus()
        report = ParallelExecutor(2, pool=pool).run(
            plan, store=ResultStore(), bus=bus
        )
        assert report.ok and report.executed == 2
        for a, b in zip(serial.outcomes, report.outcomes):
            assert a.spec == b.spec and a.record == b.record
        kinds = [e.kind for e in bus.events]
        assert DEGRADED_SERIAL in kinds
        # In-process cells still narrate their worker-side events.
        assert kinds.count(CELL_STARTED) == kinds.count(CELL_FINISHED) == 2
        assert validate_events([e.to_dict() for e in bus.events]) == []
