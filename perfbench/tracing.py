"""In-memory spans recorded around the benchmark's calls into each layer."""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    """Spans (name, start, end, parent, op id), kept in memory until the run ends.

    `parent` is the index of the enclosing span in `spans`, or None; times are
    `time.perf_counter()` seconds.
    """

    enabled = True

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str, op_id=None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, op_id)

    def durations(self, name: str, op_id) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[4] == op_id]

    def summary(self) -> dict:
        """Per span name: count, total seconds and self seconds (minus child spans)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op_id")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class NullTracer:
    """Same interface with no recording, for the untraced measurement."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str, op_id=None):
        return self._null
