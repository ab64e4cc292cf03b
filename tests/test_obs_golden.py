"""Golden identity of telemetry output.

Pins SHA-256 digests of everything a telemetry-on run exports, so a
change to how telemetry records (hooks, spans, metric series) cannot
silently change what it reports.  Three runs are pinned:

* a clean IM/ODR60 2 s cell;
* a ``packet_loss`` fault-class cell (network-loss drops and fault
  windows);
* a 2-session :class:`~repro.multitenant.SharedServer` run.

Each digest covers the JSONL dump as written (minus the engine probe's
host timing, ``wall_per_sim_second_mean``, which is wall-clock), the
Chrome trace file byte for byte, and — for cells — the ledger record's
``metrics_digest``.
"""

import hashlib
import json

from repro.experiments.executor import execute_cell
from repro.experiments.plan import CellSpec
from repro.faults.catalog import build_fault_plan
from repro.multitenant import SharedServer
from repro.obs import Telemetry, write_chrome_trace, write_jsonl
from repro.obs.runmeta import metrics_digest
from repro.regulators import make_regulator
from repro.workloads import PRIVATE_CLOUD, Resolution

HOST_TIMING_FIELDS = ("wall_per_sim_second_mean",)

GOLDEN = {
    "clean_cell": "864c9216ef1e5d3a985f03ac6a6f0050b8b6a168fbeb3d1a3c1103e933481997",
    "packet_loss_cell": "6abc924f019931b11012256bb044aca99f61aa22db3b0b7784ac5f1204952d43",
    "shared_server": "805622c240bca82a3587e66b78f7f0a0b84b665637ca35921c3807fa972a37ad",
}


def _strip_host_timing(lines):
    out = []
    for line in lines:
        record = json.loads(line)
        if record.get("type") == "engine_probe":
            for name in HOST_TIMING_FIELDS:
                record.pop(name, None)
            line = json.dumps(record, sort_keys=True)
        out.append(line)
    return out


def _export_digest(telemetry, out_dir):
    """Digest of the exported JSONL and Chrome trace files, as written."""
    write_jsonl(telemetry, str(out_dir / "run.jsonl"))
    write_chrome_trace(telemetry, str(out_dir / "run.trace.json"))
    return _files_digest(out_dir)


def _files_digest(out_dir, ledger_digest=""):
    (jsonl,) = out_dir.glob("*.jsonl")
    (trace,) = out_dir.glob("*.trace.json")
    hasher = hashlib.sha256()
    for line in _strip_host_timing(jsonl.read_text().splitlines()):
        hasher.update(line.encode())
        hasher.update(b"\n")
    hasher.update(trace.read_bytes())
    hasher.update(ledger_digest.encode())
    return hasher.hexdigest()


def _cell_digest(spec, out_dir):
    outcome = execute_cell(
        spec, collect_ledger=True, telemetry_dir=str(out_dir), git_rev="golden"
    )
    assert outcome.ledger_record is not None
    return _files_digest(out_dir, metrics_digest(outcome.ledger_record))


def _spec(**extra):
    return CellSpec(
        benchmark="IM",
        platform="private",
        resolution="720p",
        regulator="ODR60",
        seed=1,
        duration_ms=2000.0,
        warmup_ms=500.0,
        **extra,
    )


def test_clean_cell_telemetry_is_golden(tmp_path):
    assert _cell_digest(_spec(), tmp_path) == GOLDEN["clean_cell"]


def test_packet_loss_cell_telemetry_is_golden(tmp_path):
    plan = build_fault_plan("packet_loss", 2000.0, 500.0)
    spec = _spec(faults=plan.faults, fault_class="packet_loss")
    assert _cell_digest(spec, tmp_path) == GOLDEN["packet_loss_cell"]


def test_shared_server_telemetry_is_golden(tmp_path):
    telemetry = Telemetry(engine_probe=True)
    SharedServer(
        benchmarks=["IM", "RE"],
        platform=PRIVATE_CLOUD,
        resolution=Resolution.R720P,
        regulator_factory=lambda i: make_regulator("ODR60"),
        seed=1,
        duration_ms=2000.0,
        warmup_ms=500.0,
        telemetry=telemetry,
    ).run()
    assert _export_digest(telemetry, tmp_path) == GOLDEN["shared_server"]


def test_packet_loss_cell_exercises_drops_and_fault_windows(tmp_path):
    plan = build_fault_plan("packet_loss", 2000.0, 500.0)
    spec = _spec(faults=plan.faults, fault_class="packet_loss")
    execute_cell(spec, telemetry_dir=str(tmp_path), git_rev="golden")
    (jsonl,) = tmp_path.glob("*.jsonl")
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    kinds = {record["type"] for record in records}
    assert "fault_window" in kinds
    drops = {r["drop_reason"] for r in records if r["type"] == "frame_span"}
    assert "network_loss" in drops
