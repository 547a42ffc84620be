"""In-memory span recorder for the benchmark's traced mode.

A span is one call into a module's public function, recorded from the
benchmark's side of the call: name, start, end, the span that contained
it, the round it belongs to and the host-speed scale applied to it later.
Spans stay in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.round = None
        self.spans = []
        self._open = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "round": self.round,
            "start": time.perf_counter(),
            "end": None,
            "scale": 1.0,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called name."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def adopt(self, spans):
        """Append spans recorded by a child process under the open span.

        Both processes read the same monotonic clock, so start and end
        need no conversion.
        """
        base = len(self.spans)
        outer = self._open[-1] if self._open else None
        for s in spans:
            parent = outer if s["parent"] is None else base + s["parent"]
            self.spans.append(dict(s, id=base + s["id"], parent=parent, round=self.round))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
