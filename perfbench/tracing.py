"""Spans and counters recorded around calls into lilbound's modules.

A Tracer keeps spans (name, start, end, parent, run id) in memory and writes
them as JSON when the run ends.  Functions called tens of thousands of times
per run get a call counter and an accumulated time instead of one span per
call.  Wrappers are installed on module and class attributes only for the
traced run and removed afterwards; every traced call happens on the main
thread, so the span stack needs no lock.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class NullTracer:
    """Stand-in for untraced runs: spans cost one empty context manager."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self._installed = []  # (owner, attribute, original)

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _replace(self, owner, attr, wrapper):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap_span(self, owner, attr, name):
        fn = getattr(owner, attr)
        span = self.span

        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def wrap_counter(self, owner, attr, name):
        fn = getattr(owner, attr)
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start
                calls[name] += 1

        self._replace(owner, attr, wrapper)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def total(self, name, parent_name=None) -> float:
        """Summed duration of spans called name (optionally only under parent_name)."""
        out = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name != name:
                continue
            if parent_name is not None and (parent < 0 or self.spans[parent][0] != parent_name):
                continue
            out += end - start
        return out

    def count(self, name) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_seconds(self) -> dict:
        """Per span name: duration minus the time its direct child spans cover."""
        own = defaultdict(float)
        for name, start, end, _ in self.spans:
            own[name] += end - start
        for name, start, end, parent in self.spans:
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return dict(own)

    def dump(self, path: str, extra: dict) -> None:
        doc = {
            "run_id": self.run_id,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
                for n, s, e, p in self.spans
            ],
            "self_seconds": self.self_seconds(),
            "counters": {k: {"calls": self.calls[k], "seconds": self.seconds[k]} for k in self.calls},
            **extra,
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)
