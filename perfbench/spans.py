"""In-memory spans recorded around calls into the program's layers.

Each span has a name, a start and an end (host seconds,
``time.perf_counter``), the span that caused it and a request id that
every span of one client operation shares.  Spans stay in memory while
the benchmark runs and are written once, at exit.

A span's *self time* is its duration minus the part of its interval
that its child spans cover; overlapping children count once.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(interval: Tuple[float, float], parts: Sequence[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in parts if b > lo and a < hi)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """Collects spans; a disabled tracer records nothing.

    Parents are tracked per thread, so the two client threads of a
    gateway workload each build their own span trees.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(
            span_id=span_id,
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent.span_id if parent is not None else None,
            request=request if request is not None else (parent.request if parent else None),
        )
        stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> Dict[int, float]:
        """span_id → self time (duration minus child coverage)."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        return {
            span.span_id: span.duration
            - covered((span.start, span.end), children.get(span.span_id, []))
            for span in self.spans
        }

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request": span.request,
                        }
                    )
                    + "\n"
                )
