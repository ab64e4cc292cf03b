"""The telemetry facade the pipeline publishes into.

Each frame/stage hook appends exactly one plain tuple to a per-run
event log shared by every session view; frame spans
(:attr:`Telemetry.spans`) and the frame/stage metric series
(:meth:`Telemetry.snapshot`) are derived from that log when read.  The
metrics registry (:mod:`repro.obs.registry`) holds only the series
that are live during the run — queue gauges, :meth:`Telemetry.count`,
:meth:`Telemetry.observe` — and each view binds their handles once.

**Zero overhead by default.**  Telemetry is opt-in: a
:class:`~repro.pipeline.system.CloudSystem` (or multi-tenant
:class:`~repro.multitenant.server.SharedServer`) constructed without a
telemetry object keeps ``system.telemetry is None`` and every call
site guards with a single ``is not None`` check, so disabled runs pay
no method calls, no allocations, and no dictionary lookups.

**Multi-tenant labeling.**  :meth:`Telemetry.for_session` returns a
view on the same log and registry that stamps every entry and series
with a ``session`` label, so a consolidated server's sessions stay
separable.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, DefaultDict, Dict, List, Optional, Tuple

from repro.obs.probes import EngineProbe
from repro.obs.registry import HistogramStats, MetricsRegistry, MetricsSnapshot, SeriesKey
from repro.obs.spans import SpanStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.frames import Frame

__all__ = ["Telemetry"]

# Event-log entries, keyed by their first field; the second is the session:
#   (_OPENED, session, frame_id, at, gate_delay_ms, priority, input_triggered)
#   (_STAGE, session, frame_id, stage, start, end)
#   (_DROPPED, session, frame_id, at, reason)
#   (_DISPLAYED, session, frame_id, at)
_OPENED, _STAGE, _DROPPED, _DISPLAYED = range(4)

#: The series each entry kind derives: a counter of entries, a histogram
#: of their values, and the label key (besides ``session``) both carry.
#: Their names are reserved in the registry, so no live instrument of
#: any kind can shadow one.
_DERIVED = {
    _OPENED: ("frames_created_total", "gate_delay_ms", ""),
    _STAGE: ("stage_frames_total", "stage_ms", "stage"),
    _DROPPED: ("frames_dropped_total", "", "reason"),
    _DISPLAYED: ("frames_displayed_total", "frame_pipeline_ms", ""),
}


class Telemetry:
    """Event log + live metrics registry + engine probe behind one handle.

    Parameters
    ----------
    engine_probe:
        Attach an :class:`EngineProbe` so environments built with this
        telemetry also report engine-level statistics (events, heap
        depth, wall-clock per simulated second).
    """

    def __init__(self, engine_probe: bool = False):
        self.registry = MetricsRegistry()
        for counter, histogram, _ in _DERIVED.values():
            self.registry.claim(counter, "derived counter")
            if histogram:
                self.registry.claim(histogram, "derived histogram")
        self.probe: Optional[EngineProbe] = EngineProbe() if engine_probe else None
        #: Injected-fault windows (:mod:`repro.faults`), as plain dicts
        #: ``{kind, label, start_ms, end_ms, session}`` — exporters turn
        #: them into labeled trace regions.
        self.fault_windows: List[Dict[str, object]] = []
        #: Session namespace for spans and metric labels ("" = single run).
        self.session = ""
        self._events: List[Tuple[Any, ...]] = []
        self._log = self._events.append
        self._handles: Dict[Tuple[str, str, Tuple[Any, ...]], Any] = {}
        # Spans derived so far (shared by views through the root).
        self._root = self
        self._span_store = SpanStore()
        self._spans_at = 0

    def for_session(self, session: str) -> "Telemetry":
        """A view on the same log and registry labeled for one tenant session."""
        view = Telemetry.__new__(Telemetry)
        view.__dict__.update(self.__dict__)
        view.session = str(session)
        view._handles = {}
        return view

    # -- span hooks (called by pipeline stages) --------------------------

    def frame_opened(self, frame: "Frame", at: float, gate_delay_ms: float = 0.0) -> None:
        """A frame was created after the regulator's gate released."""
        self._log(
            (_OPENED, self.session, frame.frame_id, at, gate_delay_ms,
             frame.priority, frame.triggered_by_input)
        )

    def stage_complete(self, frame: "Frame", stage: str, start: float, end: float) -> None:
        """One pipeline stage finished processing ``frame``."""
        self._log((_STAGE, self.session, frame.frame_id, stage, start, end))

    def frame_dropped(self, frame: "Frame", at: float, reason: str) -> None:
        """``frame`` was discarded before reaching the screen."""
        self._log((_DROPPED, self.session, frame.frame_id, at, reason))

    def frame_displayed(self, frame: "Frame", at: float) -> None:
        """``frame`` became photons at the client; its span closes."""
        self._log((_DISPLAYED, self.session, frame.frame_id, at))

    def fault_window(
        self, kind: str, label: str, start_ms: float, end_ms: float
    ) -> None:
        """An injected fault is active over ``[start_ms, end_ms)``.

        Recorded when the fault plan is applied (windows are known up
        front), so traces show the fault region even if the run is cut
        short.
        """
        self.fault_windows.append(
            {"kind": kind, "label": label, "start_ms": float(start_ms),
             "end_ms": float(end_ms), "session": self.session}
        )
        self.count("fault_windows_total", kind=kind)

    # -- live metric hooks -----------------------------------------------

    def queue_depth(self, stage: str, depth: int) -> None:
        """Publish the current depth of an inter-stage queue."""
        self._handle("gauge", "queue_depth", {"stage": stage}).set(depth)

    def queue_bytes(self, stage: str, nbytes: int) -> None:
        """Publish the current byte occupancy of an inter-stage queue."""
        self._handle("gauge", "queue_bytes", {"stage": stage}).set(nbytes)

    def count(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Increment an arbitrary counter (session label auto-applied)."""
        self._handle("counter", name, labels).inc(amount)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record an arbitrary histogram observation."""
        self._handle("histogram", name, labels).observe(value)

    def _handle(self, kind: str, name: str, labels: Dict[str, object]) -> Any:
        """This view's instrument for one live series, bound on first use."""
        key = (kind, name, tuple(labels.items()))
        handle = self._handles.get(key)
        if handle is None:
            if self.session:
                labels["session"] = self.session
            handle = self._handles[key] = getattr(self.registry, kind)(name, **labels)
        return handle

    # -- reading ---------------------------------------------------------

    @property
    def spans(self) -> SpanStore:
        """Every frame span of the run, derived from the event log."""
        root = self._root
        store = root._span_store
        for kind, session, frame_id, *fields in self._events[root._spans_at :]:
            if kind == _STAGE:  # fields: stage, start, end
                store.stage(frame_id, *fields, session=session)
            elif kind == _OPENED:  # fields: at, gate_delay_ms, priority, input_triggered
                at, gate_delay_ms, priority, input_triggered = fields
                store.open(frame_id, at, session, gate_delay_ms, priority, input_triggered)
            elif kind == _DROPPED:  # fields: at, reason
                store.drop(frame_id, *fields, session=session)
            else:  # fields: at
                store.close(frame_id, *fields, session=session)
        root._spans_at = len(self._events)
        return store

    def gate_delays(self) -> HistogramStats:
        """The unlabelled ``gate_delay_ms`` series, without a full snapshot.

        Equal to ``snapshot().histogram_stats("gate_delay_ms")``: that key
        carries no labels, so it is exactly the session-``""`` opens.
        """
        return HistogramStats.from_values(
            float(entry[4]) for entry in self._events if entry[0] == _OPENED and not entry[1]
        )

    def snapshot(self) -> MetricsSnapshot:
        """Point-in-time copy of every metric series, live and derived."""
        # One pass groups the log by (kind, session, label); None marks
        # an entry that counts but has no histogram value.
        grouped: DefaultDict[Tuple[int, str, str], List[Optional[float]]] = defaultdict(list)
        opened: Dict[Tuple[str, int], float] = {}
        for entry in self._events:
            kind = entry[0]
            if kind == _STAGE:
                grouped[kind, entry[1], entry[3]].append(entry[5] - entry[4])
            elif kind == _OPENED:
                opened.setdefault((entry[1], entry[2]), entry[3])
                grouped[kind, entry[1], ""].append(entry[4])
            elif kind == _DROPPED:
                grouped[kind, entry[1], entry[4]].append(None)
            else:
                at = opened.get((entry[1], entry[2]))
                grouped[kind, entry[1], ""].append(None if at is None else entry[3] - at)
        live = self.registry.snapshot()
        counters, histograms = dict(live.counters), dict(live.histograms)
        for (kind, session, label), values in grouped.items():
            counter, histogram, label_key = _DERIVED[kind]
            labels = {label_key: label} if label_key else {}
            if session:
                labels["session"] = session
            counters[SeriesKey.make(counter, labels)] = float(len(values))
            observed = [float(v) for v in values if v is not None]
            if histogram and observed:
                histograms[SeriesKey.make(histogram, labels)] = HistogramStats.from_values(observed)
        return MetricsSnapshot(counters=counters, gauges=live.gauges, histograms=histograms)
