"""In-memory spans recorded around calls into the program's layers.

A span is (id, name, start, end, parent, request).  The layer of a span
is the part of its name before the first dot; the root span of each
replayed request is named ``request``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterable, Iterator


class Tracer:
    """Collects the spans of one replayed request, in start order."""

    def __init__(self, request: str):
        self.request = request
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"id": sid, "name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "request": self.request}
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: Iterable[dict]) -> dict[str, float]:
    """Summed self time per span name: duration minus direct children's.

    Spans of one request share ids, so children are matched within a
    request only.
    """
    spans = list(spans)
    covered: dict[tuple[str, int], float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["request"], s["parent"])
            covered[key] = covered.get(key, 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - covered.get((s["request"], s["id"]), 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out
