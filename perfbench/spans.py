"""In-memory spans around the benchmark's calls into codedmm.

A span records (name, start, end, parent, job).  Spans are opened only from
the benchmark's own code, at the boundary of each library call; the library
itself carries no instrumentation.  Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter


class Span:
    """One span; as a context manager it closes itself, and may be renamed first."""

    __slots__ = ("name", "start", "end", "parent", "job", "work", "_stack")

    def __init__(self, name: str, parent: int | None, job: int | None, stack: list[int]):
        self.name = name
        self.start = perf_counter()
        self.end = self.start
        self.parent = parent
        self.job = job
        self.work = None  # kernel mul-adds and bytes, computed from shapes
        self._stack = stack

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> bool:
        self.end = perf_counter()
        self._stack.pop()
        return False


class Tracer:
    """Collects spans; `job` tags every span opened while it is set."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job: int | None = None

    def span(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, parent, self.job, self._stack)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        return sp

    def self_times(self) -> dict[str, list[float]]:
        """Seconds of self time per span, grouped by span name.

        Self time is the span's duration minus the time its direct children
        cover; children never overlap because the benchmark is one thread.
        """
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        out: dict[str, list[float]] = defaultdict(list)
        for i, sp in enumerate(self.spans):
            out[sp.name].append(sp.end - sp.start - child[i])
        return out

    def durations(self, name: str) -> list[float]:
        """Durations of the spans called `name`, in the order they opened."""
        return [sp.end - sp.start for sp in self.spans if sp.name == name]

    def work(self, prefix: str) -> tuple[int, int]:
        """Summed (mul-adds, bytes) recorded on spans whose name starts with prefix."""
        mul_adds = nbytes = 0
        for sp in self.spans:
            if sp.work is not None and sp.name.startswith(prefix):
                mul_adds += sp.work[0]
                nbytes += sp.work[1]
        return mul_adds, nbytes

    def write(self, path, header: dict) -> None:
        """Write the header and then one JSON object per span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, sp in enumerate(self.spans):
                rec = {
                    "id": i, "name": sp.name, "job": sp.job, "parent": sp.parent,
                    "start_s": sp.start - t0, "end_s": sp.end - t0,
                }
                if sp.work is not None:
                    rec["mul_adds"], rec["bytes"] = sp.work
                fh.write(json.dumps(rec) + "\n")


class NullTracer:
    """Tracing off: spans cost one shared no-op context manager."""

    enabled = False
    job = None

    def __init__(self):
        self._ctx = nullcontext(Span("", None, None, []))

    def span(self, name: str):
        return self._ctx


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0
