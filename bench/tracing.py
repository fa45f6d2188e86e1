"""Span tracer for the benchmark's traced runs.

Wrappers are installed from outside the package: each one rebinds a name
in the module where its caller looks it up (``ewire.denote`` imports
``compose_tensored`` by name, so the wrapper replaces
``ewire.denote.compose_tensored``).  No file of the package changes.

A span records its name, start, end, parent span, op id and whether it
is the outermost span of its name (recursive calls nest).  Spans stay in
memory until the run ends.  Counts are kept per op, at the same
boundaries as the spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# span fields
NAME, START, END, PARENT, OP, OUTER = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(Counter)
        self.peaks: dict = defaultdict(dict)
        self.op = None
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.op][name] += n

    def peak(self, name: str, value: int) -> None:
        peaks = self.peaks[self.op]
        peaks[name] = max(peaks.get(name, 0), value)

    def open_span(self, name: str) -> int:
        idx = len(self.spans)
        stack = self._stack
        outer = self._depth[name] == 0
        self._depth[name] += 1
        self.spans.append(
            [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, outer]
        )
        stack.append(idx)
        return idx

    def close_span(self, idx: int) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self._depth[span[NAME]] -= 1

    def wrapper(self, name: str, fn, hook=None):
        """A traced stand-in for ``fn``; ``hook(tracer, args, result)``
        records counts after each call that returns."""

        def traced(*args, **kwargs):
            idx = self.open_span(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close_span(idx)
            if hook is not None:
                hook(self, args, out)
            return out

        return traced

    # -- installing ----------------------------------------------------------

    def patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- aggregation ---------------------------------------------------------

    def summarize(self, ops) -> tuple[dict, dict]:
        """Times and counts over the spans of the given op ids.

        Returns ``(times, counts)``: ``times[name]`` is the summed
        duration of the outermost spans of that name, ``times[layer +
        ".self_s"]`` the summed self time (duration minus child spans) of
        every span of that layer; ``counts`` adds up the per-op counters
        and the number of spans of each name (``name + ".calls"``), and
        keeps the largest of each peak.
        """
        ops = set(ops)
        child = Counter()
        for s in self.spans:
            if s[OP] in ops and s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        times: Counter = Counter()
        counts: Counter = Counter()
        for idx, s in enumerate(self.spans):
            if s[OP] not in ops:
                continue
            dur = s[END] - s[START]
            if s[OUTER]:
                times[s[NAME] + ".s"] += dur
            times[s[NAME].split(".")[0] + ".self_s"] += dur - child[idx]
            counts[s[NAME] + ".calls"] += 1
        for op in ops:
            counts.update(self.counts.get(op, {}))
            for name, value in self.peaks.get(op, {}).items():
                counts[name] = max(counts.get(name, 0), value)
        return dict(times), dict(counts)
