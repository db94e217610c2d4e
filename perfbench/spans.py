"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own code around calls into the
library's layers.  Each span has a name ``layer.step``, start and end on
the ``perf_counter`` clock, the span that caused it, and the trace id it
belongs to.  A *step* span is one step of the evaluation call being
replayed; step spans never overlap, so their durations add up.  A
*detail* span re-runs part of a step on its own to time it, so it is
counted inside that step and is not added again; the span around the
whole replayed call is not a step either.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    trace: str
    parent: str | None
    step: bool
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._open: list[str] = []

    @contextmanager
    def span(self, name: str, *, parent: str | None = None, step: bool = True):
        """Record one span; its parent defaults to the innermost open span."""
        if parent is None and self._open:
            parent = self._open[-1]
        rec = Span(name, self.trace_id, parent, step, time.perf_counter())
        self._open.append(name)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()
            self.spans.append(rec)

    def total(self, name: str) -> float:
        """Summed seconds of every span with this name (0 when none ran)."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def step_total(self) -> float:
        return sum(s.seconds for s in self.spans if s.step)

    def write(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans], **extra},
                      fh, indent=1)

