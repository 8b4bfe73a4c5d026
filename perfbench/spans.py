"""In-memory span recording for the traced benchmark run.

A span is (name, start, end, parent, run id, thread). Spans are appended to
a list while the traced run executes and written out as JSONL at the end.
Each thread keeps its own stack of open spans; a span opened on a thread
with an empty stack (a campaign worker) is parented to the run's root span.

Two derived views:

* self time: a span's duration minus the union of its children's intervals;
* attributed time: every instant of the root span is shared equally among
  the self-intervals active at that instant, across threads. Attributed
  times therefore sum to the root span's wall time exactly, even when
  campaign workers run children in parallel.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into Tracer.spans, -1 for a root
    run: int
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = -1
        self._run = -1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]].name if stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is threading.main_thread():
                parent = -1
                self._run += 1
            else:
                parent = self._root
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self._run,
                                   threading.get_ident()))
            if parent == -1:
                self._root = idx
        stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter_ns()
            stack.pop()

    def wrap(self, fn, name):
        """fn wrapped in a span; ``name`` is a string or a function of the call's args."""
        def traced(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name(*args, **kwargs)):
                return fn(*args, **kwargs)
        return traced

    def write_jsonl(self, fh, section: str):
        for s in self.spans:
            fh.write(json.dumps({"section": section, "name": s.name, "start_ns": s.start,
                                 "end_ns": s.end, "parent": s.parent, "run": s.run,
                                 "thread": s.thread}))
            fh.write("\n")

    def durations_ns(self, name: str) -> list[int]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def total_ns(self, name: str) -> int:
        return sum(self.durations_ns(name))


class NullTracer:
    """Stands in for a Tracer where nothing is recorded (the timed run)."""

    _ctx = contextlib.nullcontext()

    def span(self, name: str):
        return self._ctx


NULL = NullTracer()


@contextlib.contextmanager
def patched(*replacements):
    """Temporarily set attributes: each replacement is (owner, attribute, new value)."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _union(intervals):
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def _children(spans: list[Span]) -> dict[int, list[int]]:
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_intervals(spans: list[Span]) -> list[list[tuple[int, int]]]:
    """Per span, the parts of its interval no child span covers."""
    kids = _children(spans)
    out = []
    for i, s in enumerate(spans):
        cur, pieces = s.start, []
        for lo, hi in _union((spans[k].start, spans[k].end) for k in kids.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if lo > cur:
                pieces.append((cur, lo))
            cur = max(cur, hi)
        if s.end > cur:
            pieces.append((cur, s.end))
        out.append(pieces)
    return out


def attributed_ns(spans: list[Span]) -> dict[str, float]:
    """Wall time per span name, sharing each instant among concurrent self-intervals."""
    events = []
    for i, pieces in enumerate(self_intervals(spans)):
        for lo, hi in pieces:
            events.append((lo, 1, i))
            events.append((hi, -1, i))
    events.sort()
    out: dict[str, float] = defaultdict(float)
    active: dict[int, int] = defaultdict(int)
    prev = None
    for t, delta, i in events:
        if prev is not None and t > prev and active:
            share = (t - prev) / len(active)
            for j in active:
                out[spans[j].name] += share
        active[i] += delta
        if active[i] == 0:
            del active[i]
        prev = t
    return dict(out)
