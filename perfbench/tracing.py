"""Spans recorded by the benchmark around its calls into the program.

A span has a name, a start and an end (``time.perf_counter``, which is
one monotonic clock for every process on the host), the span that caused
it and a trace id shared by every span of one job.  Spans stay in memory
and are written out once, as a Chrome ``trace_event`` file, when the run
ends.  Nothing here changes the program: :meth:`Tracer.wrap` swaps a
module attribute for a timing wrapper while a replay runs and restores it
afterwards.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._stack: list[dict] = []

    def begin(self, name: str, parent: dict | None = None, **args) -> dict:
        if parent is None and self._stack:
            parent = self._stack[-1]
        sid = next(self._ids)
        return {"id": sid, "name": name,
                "parent": parent["id"] if parent else None,
                "trace": parent["trace"] if parent else sid,
                "start": time.perf_counter(), "end": None, "args": args}

    def end(self, span: dict, **args) -> None:
        span["end"] = time.perf_counter()
        span["args"].update(args)
        self.spans.append(span)

    def record(self, name: str, start: float, end: float,
               parent: dict | None = None, **args) -> None:
        """A span timed elsewhere (a pool worker, the server)."""
        span = self.begin(name, parent, **args)
        span["start"], span["end"] = start, end
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, **args):
        span = self.begin(name, **args)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            self.end(span)

    @contextlib.contextmanager
    def wrap(self, module: str, attr: str, name: str | None = None,
             annotate=None):
        """Record a span around every call of ``module.attr`` meanwhile.

        ``annotate(result)``, when given, returns extra span arguments; it
        runs after the span has ended, so its cost is not counted.
        """
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        label = name or f"{module}.{attr}"

        def traced(*args, **kwargs):
            self.calls[label] += 1
            with self.span(label) as span:
                result = original(*args, **kwargs)
            if annotate is not None:
                span["args"].update(annotate(result))
            return result

        setattr(mod, attr, traced)
        try:
            yield
        finally:
            setattr(mod, attr, original)

    def durations_ms(self, name: str, **match) -> list[float]:
        return [(s["end"] - s["start"]) * 1e3 for s in self.spans
                if s["name"] == name
                and all(s["args"].get(k) == v for k, v in match.items())]

    def write(self, path) -> None:
        """Chrome trace_event JSON (open in Perfetto or chrome://tracing)."""
        if not self.spans:
            origin = 0.0
        else:
            origin = min(s["start"] for s in self.spans)
        events = [{"name": s["name"], "ph": "X", "pid": 1,
                   "tid": s["trace"],
                   "ts": (s["start"] - origin) * 1e6,
                   "dur": (s["end"] - s["start"]) * 1e6,
                   "args": {**s["args"], "id": s["id"], "parent": s["parent"]}}
                  for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(events, fh)
