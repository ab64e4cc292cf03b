"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import os
import random
import sys
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [p for p in (ROOT, SRC) if p not in sys.path]

from perfbench import gate, loadgen, plans, stats  # noqa: E402
from perfbench.spans import Span, Tracer, covered  # noqa: E402

from repro.experiments.executor import execute_cell  # noqa: E402
from repro.experiments.plan import CellSpec  # noqa: E402
from repro.experiments.pool import WorkerPool  # noqa: E402
from repro.experiments.record import record_as_dict  # noqa: E402
from repro.experiments.store import ResultStore  # noqa: E402
from repro.obs.ledger import RunLedger  # noqa: E402
from repro.obs.runmeta import metrics_digest  # noqa: E402
from repro.service.scheduler import SweepScheduler  # noqa: E402


def _ops(iterator, n=60):
    return list(itertools.islice(iterator, n))


# -- seeded inputs -------------------------------------------------------------


def test_same_seed_same_plans_and_ops():
    assert plans.sweep_plan(3) == plans.sweep_plan(3)
    fill = plans.cached_fill(3)
    assert fill == plans.cached_fill(3)
    assert _ops(plans.cached_ops(3, 0, fill)) == _ops(plans.cached_ops(3, 0, fill))
    assert _ops(plans.overlap_ops(3, 1)) == _ops(plans.overlap_ops(3, 1))


def test_other_seed_changes_plans_and_ops():
    assert plans.sweep_plan(3) != plans.sweep_plan(4)
    assert plans.cached_fill(3) != plans.cached_fill(4)
    fill = plans.cached_fill(3)
    assert _ops(plans.cached_ops(3, 0, fill)) != _ops(plans.cached_ops(4, 0, fill))
    assert _ops(plans.overlap_ops(3, 0)) != _ops(plans.overlap_ops(4, 0))
    # The two clients of one run do not replay each other's ops.
    assert _ops(plans.cached_ops(3, 0, fill)) != _ops(plans.cached_ops(3, 1, fill))


def test_seed_changes_cells_not_the_shape_of_the_work():
    a, b = plans.sweep_plan(3), plans.sweep_plan(4)
    shape = lambda cells: sorted((c.benchmark, c.platform, bool(c.faults)) for c in cells)  # noqa: E731
    assert shape(a) == shape(b)
    assert len(a) == len({c.run_id for c in a})


def test_overlap_plans_share_half_and_never_repeat_a_cell():
    seen = set()
    for round_no in range(20):
        shared, own = plans.overlap_round(5, round_no)
        a, b = shared + own[0], shared + own[1]
        assert len({c.run_id for c in a} & {c.run_id for c in b}) == len(a) // 2
        cells = {c.run_id for c in shared + own[0] + own[1]}
        assert not cells & seen
        seen |= cells


def test_cached_ops_only_name_filled_cells():
    fill = plans.cached_fill(2)
    ids = {c.run_id for c in fill}
    ops = _ops(plans.cached_ops(2, 0, fill), 200)
    assert ops[0].kind == "job"
    for op in ops:
        assert {c.run_id for c in op.cells} <= ids
        assert op.kind != "job" or 1 <= len(op.cells) <= plans.CACHED_MAX_JOB
        assert op.kind != "fetch" or op.run_id in ids


# -- statistics ----------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert stats.percentile(values, 0.5) == pytest.approx(50.5)
    assert stats.percentile(values, 0.9) == pytest.approx(90.1)
    assert stats.percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_p90_is_resolved_only_with_ten_samples_beyond_it():
    assert stats.tail_count(100, 0.9) == 10
    assert stats.resolved(100, 0.9)
    assert not stats.resolved(90, 0.9)
    assert not stats.resolved(0, 0.9)
    assert stats.timing([1.0] * 100)["p90_resolved"]
    assert not stats.timing([1.0] * 50)["p90_resolved"]
    assert stats.timing([1.0] * 50)["n"] == 50


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, med, q3 = stats.quartiles(values)
    assert med == 3.5
    assert stats.spread(values) == pytest.approx((q3 - q1) / med)


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    tracer.spans = [
        Span(1, "parent", 0.0, 10.0, None, "r"),
        Span(2, "a", 1.0, 3.0, 1, "r"),
        Span(3, "b", 2.0, 5.0, 1, "r"),   # overlaps a: counted once
        Span(4, "c", 7.0, 8.0, 1, "r"),
        Span(5, "d", 9.5, 12.0, 1, "r"),  # runs past the parent: clipped
        Span(6, "grandchild", 1.5, 2.0, 2, "r"),
    ]
    self_times = tracer.self_times()
    assert self_times[1] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert self_times[2] == pytest.approx(2.0 - 0.5)
    assert self_times[6] == pytest.approx(0.5)
    assert covered((0.0, 1.0), []) == 0.0


def test_nested_spans_record_parent_and_request():
    tracer = Tracer()
    with tracer.span("op", request="c0-1"):
        with tracer.span("call"):
            pass
    call, op = tracer.spans
    assert call.parent == op.span_id and op.parent is None
    assert call.request == op.request == "c0-1"
    off = Tracer(enabled=False)
    with off.span("op"):
        pass
    assert off.spans == []


# -- correctness gate ------------------------------------------------------------

TINY = CellSpec("IM", "private", "720p", "ODR60", 11, *plans.SERVICE_HORIZON)


@pytest.fixture(scope="module")
def tiny_row():
    row = execute_cell(TINY, collect_ledger=True, git_rev="test").ledger_record
    assert row is not None
    return row


def _perturbed(row):
    bad = dict(row)
    bad["metrics"] = dict(row["metrics"], client_fps=row["metrics"]["client_fps"] + 0.5)
    return bad


def test_reference_gate_accepts_the_true_row_and_rejects_a_perturbed_one(tiny_row):
    reference = {TINY.run_id: gate.fingerprint(tiny_row)}
    assert gate.check_reference([tiny_row], reference) == []
    assert gate.check_reference([_perturbed(tiny_row)], reference)
    assert gate.check_reference([tiny_row], {}) == ["the reference names none of this run's cells"]


def test_sample_gate_reexecutes_and_rejects_a_perturbed_row(tiny_row):
    specs = {TINY.run_id: TINY}
    assert gate.check_sample([tiny_row], specs, random.Random(0)) == []
    assert gate.check_sample([_perturbed(tiny_row)], specs, random.Random(0))


def test_row_gate_wants_one_row_per_requested_run_id(tiny_row):
    assert gate.check_rows([tiny_row], {TINY.run_id}) == []
    assert gate.check_rows([tiny_row, tiny_row], {TINY.run_id})
    assert gate.check_rows([tiny_row], {TINY.run_id, "other"})
    assert gate.check_rows([tiny_row], set())


def test_output_gate_rejects_a_wrong_served_digest_or_record(tiny_row):
    rows = {TINY.run_id: tiny_row}
    record = record_as_dict(execute_cell(TINY).record)
    true = gate.Seen(TINY.run_id, metrics_digest(tiny_row), gate.store_fingerprint(record))
    assert gate.check_outputs([true, true], rows) == []
    stale = metrics_digest(_perturbed(tiny_row))
    assert gate.check_outputs([gate.Seen(TINY.run_id, stale)], rows)
    wrong = dict(record, render_fps=record["render_fps"] + 1.0)
    assert gate.check_outputs([gate.Seen(TINY.run_id, record=gate.store_fingerprint(wrong))], rows)
    assert gate.check_outputs([gate.Seen("unknown")], rows)


def test_failed_ops_and_silent_jobs_fail_the_gate(tmp_path):
    assert gate.gate([], {}, 2, [], [], failed_ops=1) == ["1 ops failed or were refused"]
    loop = loadgen.LoopResult(samples=[loadgen.Sample("job", 0.0, 1.0, False, False, cells=4)])
    assert loadgen.unreported(loop) == ["1 jobs never reported the cells they executed"]
    cached = loadgen.GatewayCached(3, str(tmp_path), SRC, "test")
    assert cached.check_executed(loop)
    # A job the scheduler gave up on ends with no failed cell.
    assert loadgen.job_ok({"executed": 2, "cached": 2, "failed": 0}, 4)
    assert not loadgen.job_ok({"executed": 0, "cached": 0, "failed": 0}, 4)
    assert not loadgen.job_ok({"executed": 3, "cached": 0, "failed": 1}, 4)
    assert not loadgen.job_ok({}, 4)


def test_reference_file_covers_the_default_seed():
    reference = gate.load_reference()
    for spec in plans.sweep_plan(gate.DEFAULT_SEED) + plans.cached_fill(gate.DEFAULT_SEED):
        assert spec.run_id in reference


# -- the load generator ------------------------------------------------------------


def test_gateway_loop_never_opens_more_than_nproc_connections(tmp_path):
    from perfbench.layers import _InProcessGateway

    scheduler = SweepScheduler(
        ResultStore(), ledger=RunLedger(str(tmp_path / "ledger")),
        pool=WorkerPool(loadgen.WORKERS, events=True), git_rev="test",
    )
    try:
        # Workers forked mid-loop would inherit the clients' open sockets
        # and keep those connections alive; spawn them first.
        scheduler.warm()
        with _InProcessGateway(scheduler) as served:
            workload = loadgen.GatewayOverlap(7, str(tmp_path), SRC, "test")
            workload.gateway = SimpleNamespace(port=served.gateway.port)
            loop = workload.run(1.0, loadgen.OFF, trace=False)
    finally:
        scheduler.close()
    assert loop.samples and all(sample.ok for sample in loop.samples)
    assert workload.transport.opened >= len(loop.samples)
    assert 1 <= workload.transport.peak <= loadgen.WORKERS
    assert workload.transport.live == 0
    assert workload.check_executed(loop) == []
    seen = [output for sample in loop.samples for output in sample.seen]
    assert seen and gate.check_outputs(seen, {str(r["run_id"]): r for r in scheduler.ledger.records()}) == []
