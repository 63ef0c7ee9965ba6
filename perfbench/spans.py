"""In-memory span recorder used by the traced benchmark run.

Spans are recorded by the benchmark's own code around each call into a
layer's public API (nothing inside ``src/`` is instrumented).  Each span
has a name, start, end, parent span and query id; spans stay in memory
and are written out once, when the run ends, so a layer's self time (its
span minus what its children cover) can be read off the file.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    qid: str


class Tracer:
    """Records nested spans per thread; ``span()`` is a context manager."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0

    @contextmanager
    def span(self, name: str, qid: str = ""):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = self._next
            self._next += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, qid))

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every span called ``name``, in record order."""
        return [s.end - s.start for s in self.spans if s.name == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
