"""The load generator: set-up, closed client loops and what they observed.

One process drives every workload.  ``sweep-cold`` runs offline
sub-sweeps through a warm :class:`~repro.experiments.pool.WorkerPool`;
the two gateway workloads start ``odr-sim serve`` in its own process
and drive it with two closed-loop client threads, each holding at most
one connection at a time.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from perfbench import plans
from perfbench.gate import Seen, store_fingerprint
from perfbench.plans import Op
from perfbench.spans import Tracer

from repro.experiments.executor import ParallelExecutor
from repro.experiments.plan import CellSpec, Plan
from repro.experiments.pool import WorkerPool
from repro.experiments.record import record_as_dict
from repro.experiments.store import ResultStore
from repro.faults.service import TcpTransport
from repro.obs.ledger import RunLedger, resolve_record
from repro.obs.runmeta import metrics_digest
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.errors import ServiceError

#: Worker processes, and client connections, per workload (the host's nproc).
WORKERS = 2
#: Length of one traced or untraced slice of a traced run (seconds).
TRACE_SLICE_S = 1.0
#: How often the memory sampler reads the process tree (seconds).
RSS_PERIOD_S = 0.2
#: How long a gateway may take to start and warm its pool (seconds).
GATEWAY_START_S = 60.0

OFF = Tracer(enabled=False)


@dataclass
class Sample:
    """One completed client operation."""

    kind: str
    start: float
    end: float
    ok: bool
    traced: bool
    cells: int = 0
    #: Cells the job executed; -1 until the job reports it.
    executed: int = -1
    #: What the op was given about which run, for the gate.
    seen: List[Seen] = field(default_factory=list)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


@dataclass
class LoopResult:
    samples: List[Sample] = field(default_factory=list)
    #: From the loop's start until its last op ended.
    elapsed_s: float = 0.0
    #: Every run_id a job asked for (gate input).
    requested: Set[str] = field(default_factory=set)
    specs: Dict[str, CellSpec] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def traced_slice(now: float, t0: float, trace: bool) -> bool:
    """Whether an op starting at ``now`` is traced, in a traced run.

    Slices go untraced, traced, traced, untraced and repeat, so a
    workload that slows down steadily (a growing ledger) puts the same
    share of its slow-down in each half.
    """
    return trace and int((now - t0) / TRACE_SLICE_S) % 4 in (1, 2)


# -- connections -------------------------------------------------------------


class _CountedSocket:
    def __init__(self, sock: Any, owner: "CountingTransport") -> None:
        self._sock = sock
        self._owner = owner
        self._open = True

    def sendall(self, data: bytes) -> None:
        self._sock.sendall(data)

    def recv(self, bufsize: int) -> bytes:
        data: bytes = self._sock.recv(bufsize)
        return data

    def settimeout(self, timeout_s: Optional[float]) -> None:
        self._sock.settimeout(timeout_s)

    def close(self) -> None:
        if self._open:
            self._open = False
            self._owner._closed()
        self._sock.close()


class CountingTransport:
    """TCP transport that counts the connections open at once."""

    def __init__(self) -> None:
        self.inner = TcpTransport()
        self.live = 0
        self.peak = 0
        self.opened = 0
        self._lock = threading.Lock()

    def open(self, host: str, port: int, timeout_s: Optional[float] = None) -> _CountedSocket:
        sock = self.inner.open(host, port, timeout_s=timeout_s)
        with self._lock:
            self.live += 1
            self.opened += 1
            self.peak = max(self.peak, self.live)
        return _CountedSocket(sock, self)

    def _closed(self) -> None:
        with self._lock:
            self.live -= 1


def make_client(port: int, transport: CountingTransport) -> ServiceClient:
    """A client that does not retry: a failed request is a failed op."""
    return ServiceClient(
        port=port, timeout_s=60.0, transport=transport,
        retry=RetryPolicy(attempts=1), connect_wait_s=10.0,
    )


# -- memory ------------------------------------------------------------------


def _tree(pid: int) -> List[int]:
    pids = [pid]
    for p in pids:
        try:
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children", encoding="ascii") as handle:
                    pids.extend(int(c) for c in handle.read().split())
        except OSError:
            continue
    return pids


def tree_rss_mb(pid: int) -> float:
    """Resident memory of ``pid`` and all its descendants, in MB.

    Each process counts its proportional set size: a page shared by
    several processes of the tree (a pool worker's copy-on-write pages,
    a child between ``fork`` and ``exec``) is counted once in total.
    Summed plain RSS would count a short-lived fork of the gateway as a
    second gateway, and whether a sample caught one would decide the peak.
    """
    total_kb = 0
    for p in _tree(pid):
        try:
            with open(f"/proc/{p}/smaps_rollup", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except (OSError, IndexError, ValueError):
            continue
    return total_kb * 1024 / 1e6


class RssSampler:
    """Samples the load generator's process tree every :data:`RSS_PERIOD_S`."""

    def __init__(self) -> None:
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, tree_rss_mb(os.getpid()))
            self._stop.wait(RSS_PERIOD_S)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.peak_mb = max(self.peak_mb, tree_rss_mb(os.getpid()))


# -- the gateway process -----------------------------------------------------


class Gateway:
    """``odr-sim serve --resume`` (journal on, cells persisted) in its own process."""

    def __init__(self, src_dir: str, ledger_dir: str) -> None:
        self.src_dir = src_dir
        self.ledger_dir = ledger_dir
        self.port = 0
        self.proc: Optional[subprocess.Popen[str]] = None

    def start(self) -> "Gateway":
        work = os.path.dirname(self.ledger_dir)
        env = dict(os.environ, PYTHONPATH=self.src_dir, TMPDIR=".")
        with open(os.path.join(work, "gateway.err"), "w", encoding="utf-8") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--ledger", self.ledger_dir, "--resume", "--workers", str(WORKERS)],
                cwd=work, env=env, stdout=subprocess.PIPE, stderr=err, text=True,
            )
        watchdog = threading.Timer(GATEWAY_START_S, self.proc.kill)
        watchdog.start()
        try:
            assert self.proc.stdout is not None
            for line in self.proc.stdout:
                if "listening on" in line:
                    address = line.split("listening on", 1)[1].split()[0]
                    self.port = int(address.rsplit(":", 1)[1])
                if "worker pool warm" in line:
                    break
            else:
                raise RuntimeError(f"gateway exited during start-up (see {work}/gateway.err)")
        except BaseException:
            self.proc.kill()
            self.proc.communicate()
            self.proc = None
            raise
        finally:
            watchdog.cancel()
        return self

    def stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if proc.poll() is None:
            try:
                make_client(self.port, CountingTransport()).shutdown()
            except ServiceError:
                proc.terminate()
        try:
            proc.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


# -- workloads ---------------------------------------------------------------


class Workload:
    """Set-up, one timed closed loop, teardown, and what the gate needs."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 5

    def __init__(self, seed: int, work_dir: str, src_dir: str, git_rev: Optional[str]) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.src_dir = src_dir
        self.git_rev = git_rev
        self._dirs = 0

    def _fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work_dir, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tracer: Tracer, trace: bool) -> LoopResult:
        raise NotImplementedError

    # What the gate and the per-layer legs read after the loop.
    def expected_rows(self, loop: LoopResult) -> List[Tuple[str, Set[str]]]:
        """(ledger dir, the run_ids it must hold exactly once each)."""
        raise NotImplementedError

    def check_executed(self, loop: LoopResult) -> List[str]:
        """Problems with how many cells the jobs executed."""
        raise NotImplementedError

    def store_dir(self) -> str:
        raise NotImplementedError

    def ledger_dir_last(self) -> str:
        raise NotImplementedError

    def typical_job(self) -> List[CellSpec]:
        raise NotImplementedError


def job_ok(end: Dict[str, Any], cells: int) -> bool:
    """Whether a job's ``sweep_end`` accounts for all ``cells``, none failed.

    A job the scheduler gave up on (state ``failed``) reports no failed
    cell, having neither executed nor found its cells, so the counts
    must add up too.
    """
    return (bool(end) and end.get("failed") == 0
            and int(end.get("executed", -1)) + int(end.get("cached", -1)) == cells)


def unreported(loop: LoopResult) -> List[str]:
    """A job that never said how many cells it executed is a problem."""
    silent = sum(1 for s in loop.samples if s.kind == "job" and s.executed < 0)
    return [f"{silent} jobs never reported the cells they executed"] if silent else []


class SweepCold(Workload):
    """Offline sub-sweeps of the seeded paper slice into empty stores."""

    name = "sweep-cold"
    #: Each set-up is short and host noise comes in bursts of seconds,
    #: so more of them.
    setups = 11

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.plan = plans.sweep_plan(self.seed)
        self.pool: Optional[WorkerPool] = None
        #: (ledger dir, run_ids swept into it) of every pass so far.
        self.passes: List[Tuple[str, Set[str]]] = []

    def setup(self) -> None:
        # What an offline sweep process pays before its first cell: a
        # fresh interpreter importing the sweep stack, then a warm pool.
        if self.pool is not None:
            self.pool.close()
        subprocess.run(
            [sys.executable, "-c",
             "import repro.experiments.executor, repro.experiments.store, repro.obs.ledger"],
            check=True, env=dict(os.environ, PYTHONPATH=self.src_dir),
        )
        self.pool = WorkerPool(WORKERS)
        self.pool.warm()

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def run(self, seconds: float, tracer: Tracer, trace: bool) -> LoopResult:
        assert self.pool is not None
        out = LoopResult()
        executor = ParallelExecutor(WORKERS, pool=self.pool)
        rng = random.Random(f"sweep-cold:{self.seed}:fetch")
        t0 = time.perf_counter()
        deadline = t0 + seconds
        now = t0
        while now < deadline:
            pass_dir = self._fresh_dir("pass")
            swept: Set[str] = set()
            self.passes.append((pass_dir, swept))
            store = ResultStore(os.path.join(pass_dir, "cells"))
            ledger = RunLedger(pass_dir)
            subs = plans.subsweeps(self.plan)
            for n, sub in enumerate(subs):
                if now >= deadline:
                    break
                traced = traced_slice(now, t0, trace)
                tr = tracer if traced else OFF
                for spec in sub:
                    swept.add(spec.run_id)
                    out.requested.add(spec.run_id)
                    out.specs[spec.run_id] = spec
                start = time.perf_counter()
                with tr.span("op.job", f"pass{len(self.passes)}-{n}"), \
                        tr.span("experiments.ParallelExecutor.run"):
                    report = executor.run(Plan(sub), store=store, ledger=ledger, git_rev=self.git_rev)
                now = time.perf_counter()
                out.samples.append(Sample("job", start, now, report.ok, traced,
                                          cells=len(sub), executed=report.executed))
            else:
                # The sweep is complete: read records back, one per
                # sub-sweep, as a user inspecting runs would.
                for n, spec in enumerate(rng.sample(self.plan, len(subs))):
                    if now >= deadline:
                        break
                    traced = traced_slice(now, t0, trace)
                    tr = tracer if traced else OFF
                    start = time.perf_counter()
                    with tr.span("op.fetch", f"pass{len(self.passes)}-fetch{n}"):
                        with tr.span("obs.resolve_record"):
                            row = resolve_record(spec.run_id, ledger)
                        with tr.span("experiments.ResultStore.get"):
                            record = ResultStore(os.path.join(pass_dir, "cells")).get(spec.run_id)
                    now = time.perf_counter()
                    ok = row.get("run_id") == spec.run_id and record is not None
                    seen = Seen(spec.run_id, metrics_digest(row),
                                store_fingerprint(record_as_dict(record)) if record else None)
                    out.samples.append(Sample("fetch", start, now, ok, traced, seen=[seen]))
        out.elapsed_s = now - t0
        return out

    def expected_rows(self, loop: LoopResult) -> List[Tuple[str, Set[str]]]:
        return list(self.passes)

    def check_executed(self, loop: LoopResult) -> List[str]:
        silent = unreported(loop)
        if silent:
            return silent
        executed = sum(s.executed for s in loop.samples if s.kind == "job")
        swept = sum(len(run_ids) for _, run_ids in self.passes)
        if executed != swept:
            return [f"executed {executed} cells, expected every one of {swept} cold cells"]
        return []

    def store_dir(self) -> str:
        return os.path.join(self.passes[-1][0], "cells")

    def ledger_dir_last(self) -> str:
        return self.passes[-1][0]

    def typical_job(self) -> List[CellSpec]:
        return plans.subsweeps(self.plan)[0]


class _GatewayWorkload(Workload):
    """Two closed-loop clients against one gateway process."""

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.gateway: Optional[Gateway] = None
        self.transport = CountingTransport()
        self.ledger_dir = ""

    def _start_gateway(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
        self.ledger_dir = os.path.join(self._fresh_dir("gateway"), "ledger")
        self.gateway = Gateway(self.src_dir, self.ledger_dir).start()

    def teardown(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None

    def ops(self, client: int) -> Iterator[Op]:
        raise NotImplementedError

    def run(self, seconds: float, tracer: Tracer, trace: bool) -> LoopResult:
        assert self.gateway is not None
        out = LoopResult()
        lock = threading.Lock()
        t0 = time.perf_counter()
        deadline = t0 + seconds
        last_end = [t0]

        def client_loop(index: int) -> None:
            client = make_client(self.gateway.port, self.transport)  # type: ignore[union-attr]
            last_job: Optional[Tuple[str, Set[str]]] = None
            ops = self.ops(index)
            n = 0
            now = time.perf_counter()
            while now < deadline:
                op = next(ops)
                traced = traced_slice(now, t0, trace)
                tr = tracer if traced else OFF
                request = f"c{index}-{n}"
                n += 1
                if op.kind == "job":
                    with lock:
                        for spec in op.cells:
                            out.requested.add(spec.run_id)
                            out.specs[spec.run_id] = spec
                start = time.perf_counter()
                sample = Sample(op.kind, start, start, False, traced, cells=len(op.cells))
                try:
                    with tr.span(f"op.{op.kind}", request):
                        job = self._do(client, op, last_job, sample, tr)
                        if job is not None:
                            last_job = job
                except Exception as exc:  # a failed op is counted, not fatal
                    with lock:
                        out.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                now = sample.end = time.perf_counter()
                with lock:
                    out.samples.append(sample)
                    last_end[0] = max(last_end[0], now)

        threads = [threading.Thread(target=client_loop, args=(i,), name=f"client-{i}")
                   for i in range(WORKERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out.elapsed_s = last_end[0] - t0
        return out

    def _do(self, client: ServiceClient, op: Op, last_job: Optional[Tuple[str, Set[str]]],
            sample: Sample, tr: Tracer) -> Optional[Tuple[str, Set[str]]]:
        """Perform ``op``; a job returns its id and the run_ids it asked for."""
        if op.kind == "job":
            with tr.span("service.ServiceClient.submit"):
                job = client.submit_plan(Plan(op.cells))
            end: Dict[str, Any] = {}
            with tr.span("service.ServiceClient.watch"):
                for event in client.watch(str(job["job_id"])):
                    if event.kind == "sweep_end":
                        end = dict(event.fields)
            sample.executed = int(end.get("executed", -1))
            sample.ok = job_ok(end, len(op.cells))
            if not sample.ok:
                raise RuntimeError(f"job {job['job_id']} of {len(op.cells)} cells ended with {end}")
            return str(job["job_id"]), {spec.run_id for spec in op.cells}
        if op.kind == "fetch":
            assert op.run_id is not None
            with tr.span("service.ServiceClient.fetch"):
                response = client.fetch(op.run_id)
            record, digest = response.get("record"), response.get("metrics_digest")
            sample.ok = response.get("run_id") == op.run_id and record is not None and bool(digest)
            sample.seen = [Seen(op.run_id, digest, store_fingerprint(record) if record else None)]
            return None
        assert last_job is not None
        job_id, run_ids = last_job
        with tr.span("service.ServiceClient.result"):
            response = client.result(job_id)
        cells = response.get("cells") or []
        sample.ok = ({cell.get("run_id") for cell in cells} == run_ids
                     and all(cell.get("ok") and cell.get("metrics_digest") for cell in cells))
        sample.seen = [Seen(str(cell.get("run_id")), cell.get("metrics_digest")) for cell in cells]
        return None

    def store_dir(self) -> str:
        return os.path.join(self.ledger_dir, "cells")

    def ledger_dir_last(self) -> str:
        return self.ledger_dir


class GatewayCached(_GatewayWorkload):
    """Reads of already-computed cells: jobs, fetches and results."""

    name = "gateway-cached"
    #: Each set-up computes the whole fill, so fewer of them.
    setups = 3

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.fill = plans.cached_fill(self.seed)

    def setup(self) -> None:
        self._start_gateway()
        assert self.gateway is not None
        client = make_client(self.gateway.port, CountingTransport())
        job = client.submit_plan(Plan(self.fill), label="fill")
        for event in client.watch(str(job["job_id"])):
            if event.kind == "sweep_end" and event.fields.get("executed") != len(self.fill):
                raise RuntimeError(f"fill executed {event.fields.get('executed')} cells")

    def ops(self, client: int) -> Iterator[Op]:
        return plans.cached_ops(self.seed, client, self.fill)

    def expected_rows(self, loop: LoopResult) -> List[Tuple[str, Set[str]]]:
        return [(self.ledger_dir, {spec.run_id for spec in self.fill})]

    def check_executed(self, loop: LoopResult) -> List[str]:
        busy = [s for s in loop.samples if s.kind == "job" and s.executed != 0]
        return [f"{len(busy)} cached jobs executed cells"] if busy else []

    def typical_job(self) -> List[CellSpec]:
        return self.fill[: plans.CACHED_MAX_JOB // 2]


class GatewayOverlap(_GatewayWorkload):
    """Fresh, half-overlapping plans from two clients: the write path."""

    name = "gateway-overlap"

    def setup(self) -> None:
        self._start_gateway()

    def ops(self, client: int) -> Iterator[Op]:
        return plans.overlap_ops(self.seed, client)

    def expected_rows(self, loop: LoopResult) -> List[Tuple[str, Set[str]]]:
        return [(self.ledger_dir, set(loop.requested))]

    def check_executed(self, loop: LoopResult) -> List[str]:
        silent = unreported(loop)
        if silent:
            return silent
        executed = sum(s.executed for s in loop.samples if s.kind == "job")
        if executed != len(loop.requested):
            return [f"executed {executed} cells for {len(loop.requested)} unique requested"]
        return []

    def typical_job(self) -> List[CellSpec]:
        shared, own = plans.overlap_round(self.seed, 10**6)
        return shared + own[0]


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (SweepCold, GatewayCached, GatewayOverlap)
}


def setup_times(workload: Workload, setups: int) -> List[float]:
    """Set the workload up ``setups`` times; keeps the last set-up live."""
    times = []
    for _ in range(setups):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def summary_counts(samples: Sequence[Sample]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for sample in samples:
        counts[sample.kind] = counts.get(sample.kind, 0) + 1
    return counts
