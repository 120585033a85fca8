"""In-memory spans recorded around calls into ppheap's public functions.

A span has a name ``<layer>.<what>``, start and end times, the index of the
span that was open when it started, and an id shared by every span of one
build or one query. Probe spans time calls made only to measure a layer
(they are not on the CLI path) and are left out of the self-time table.
"""

from __future__ import annotations

import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, trace_id, probe]
        self._open: list[int] = []

    def begin(self, name: str, trace_id: str, probe: bool = False) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, clock(), 0.0, parent, trace_id, probe])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self) -> float:
        k = self._open.pop()
        span = self.spans[k]
        span[2] = clock()
        return span[2] - span[1]

    def call(self, name: str, trace_id: str, fn, *args, probe: bool = False):
        self.begin(name, trace_id, probe)
        try:
            return fn(*args)
        finally:
            self.end()

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            if not s[5]:
                out[s[0].split(".", 1)[0]] += t
        return dict(out)

    def probe_seconds_under(self, root: int) -> float:
        """Time spent in probe spans that are direct children of ``root``."""
        return sum(s[2] - s[1] for s in self.spans if s[3] == root and s[5])

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "trace_id", "probe"],
            "spans": self.spans,
            "self_s": self.self_seconds(),
        }
