"""Telemetry recording path: one log entry per frame/stage event.

A deterministic guard (no timing): during a telemetry-on run, metric
series keys are built once per series, never once per frame — the
frame/stage hooks only append to the event log, and live instruments
are bound once and cached.  Plus the behaviour the facade keeps:
counters refuse negative increments, a name stays one instrument
kind, and session views write into one log.
"""

import pytest

from repro.obs import Telemetry
from repro.obs.registry import SeriesKey
from repro.pipeline import CloudSystem, SystemConfig
from repro.pipeline.frames import Frame
from repro.regulators import make_regulator
from repro.workloads import PLATFORMS, Resolution


def _config():
    return SystemConfig(
        benchmark="IM",
        platform=PLATFORMS["private"],
        resolution=Resolution("720p"),
        seed=1,
        duration_ms=2000.0,
        warmup_ms=500.0,
    )


@pytest.fixture(scope="module")
def counted_run():
    telemetry = Telemetry(engine_probe=True)
    system = CloudSystem(_config(), make_regulator("ODR60"), telemetry=telemetry)
    calls = []
    make = SeriesKey.make

    def counting_make(name, labels):
        calls.append(name)
        return make(name, labels)

    SeriesKey.make = staticmethod(counting_make)
    try:
        result = system.run()
    finally:
        SeriesKey.make = staticmethod(make)
    return telemetry, result, len(calls)


def test_series_keys_are_built_per_series_not_per_frame(counted_run):
    telemetry, result, key_builds = counted_run
    snap = telemetry.snapshot()
    n_series = len(snap.counters) + len(snap.gauges) + len(snap.histograms)
    frames = int(snap.counter_value("frames_created_total"))
    assert frames > 50 and result.frames_rendered() > 50
    assert key_builds <= n_series, (
        f"{key_builds} SeriesKey.make calls during the run for {n_series} "
        f"series and {frames} frames"
    )


def test_live_series_stay_in_the_registry(counted_run):
    telemetry, _, _ = counted_run
    live = {key.name for key in telemetry.registry.series()}
    assert "pacing_sleeps_total" in live
    assert not live & {"stage_ms", "frames_created_total", "gate_delay_ms"}


def test_count_refuses_negative_amounts():
    telemetry = Telemetry()
    telemetry.count("pacing_sleeps_total")
    with pytest.raises(ValueError):
        telemetry.count("pacing_sleeps_total", -1)
    with pytest.raises(ValueError):
        telemetry.count("fresh_total", -1)


def test_derived_name_cannot_be_reused_as_another_kind(counted_run):
    telemetry, _, _ = counted_run
    with pytest.raises(ValueError, match="histogram"):
        telemetry.count("stage_ms")
    with pytest.raises(ValueError, match="counter"):
        telemetry.observe("frames_created_total", 1.0)


def test_live_name_cannot_be_reused_as_another_kind():
    telemetry = Telemetry()
    telemetry.observe("pacing_sleep_ms", 2.0)
    with pytest.raises(ValueError, match="histogram"):
        telemetry.count("pacing_sleep_ms")
    telemetry.queue_depth("send_queue", 1)
    with pytest.raises(ValueError, match="gauge"):
        telemetry.count("queue_depth")


def test_session_views_write_into_one_log():
    root = Telemetry()
    s0 = root.for_session("s0")
    s1 = root.for_session("s1")
    frame = Frame(frame_id=1)
    s0.frame_opened(frame, at=0.0, gate_delay_ms=1.0)
    s1.frame_opened(frame, at=0.0)
    s1.stage_complete(frame, "render", 0.0, 4.0)
    assert len(root.spans) == 2
    s0.frame_displayed(frame, at=9.0)
    # The spans read earlier extend as the shared log grows.
    assert root.spans.get(1, session="s0").displayed
    assert s1.spans is root.spans
    s0.count("pacing_sleeps_total")
    s0.count("pacing_sleeps_total")
    snap = s1.snapshot()
    assert snap.counter_value("frames_created_total", session="s0") == 1
    assert snap.counter_value("frames_created_total", session="s1") == 1
    assert snap.counter_value("stage_frames_total", stage="render", session="s1") == 1
    assert snap.histogram_stats("frame_pipeline_ms", session="s0").max == pytest.approx(9.0)
    assert snap.counter_value("pacing_sleeps_total", session="s0") == 2
    assert snap == root.snapshot()
