"""In-memory span recorder for the traced benchmark run.

A span records its name, start, end, parent span and the operation it
belongs to; spans of one operation share that operation's id.  Spans
stay in memory until ``write`` dumps them as JSON when the run ends.
A disabled tracer hands out one shared no-op context, so untraced code
pays a method call per boundary and records nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Optional

_NO_SPAN = nullcontext()


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.op: Optional[int] = None
        self.spans: list[list] = []  # [name, op, parent, start, end]
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NO_SPAN

    @contextmanager
    def _span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, self.op, parent, time.perf_counter(), None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def totals(self, ops: range) -> dict[str, float]:
        """Seconds per span name, over spans outside any operation
        (set-up) and spans of the operations in ``ops``."""
        out: dict[str, float] = {}
        for name, op, parent, start, end in self.spans:
            if op is None or op in ops:
                out[name] = out.get(name, 0.0) + end - start
        return out

    def write(self, path: str) -> None:
        rows = [
            {"id": i, "name": name, "op": op, "parent": parent, "start": start, "end": end}
            for i, (name, op, parent, start, end) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(rows, fh)
