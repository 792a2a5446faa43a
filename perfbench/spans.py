"""In-memory spans and counts for the traced benchmark pass.

A span records one call into a c2patch layer, or one whole case, as
(name, start, end, parent span, case id).  Spans stay in memory and are
written out when the run ends.  The untraced pass uses ``NullTracer``, whose
spans and counts do nothing, so that end-to-end timings carry no tracing cost.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

_NULL_SPAN = nullcontext()


class NullTracer:
    """Tracer of the untraced pass: every span and count is a no-op."""

    case = None

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer:
    """Records nested spans, and named counts per case id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.case: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "case": self.case, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name, self.case] += n

    def self_times(self) -> dict[tuple[str, str | None], float]:
        """Total self time per (span name, case id): duration minus children.

        Children of one span run one after another, so the part of the
        parent's interval they cover is the sum of their durations.
        """
        covered: defaultdict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: defaultdict[tuple, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"], s["case"]] += s["end"] - s["start"] - covered[s["id"]]
        return dict(out)


@contextmanager
def counting(tracer: Tracer, cls: type, attr: str, name: str):
    """Count calls to the method ``cls.attr`` under ``name`` while active."""
    original = cls.__dict__[attr]

    def counted(*args, **kwargs):
        tracer.count(name)
        return original(*args, **kwargs)

    setattr(cls, attr, counted)
    try:
        yield
    finally:
        setattr(cls, attr, original)
