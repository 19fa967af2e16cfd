"""In-memory spans around the calls between ``uavrf`` modules.

The benchmark never edits the library.  It replaces a public function
in the namespace of the module that calls it (``uavrf.scheduling``
imports ``cost_matrix`` into its own globals, so the wrapper goes on
``uavrf.scheduling.cost_matrix``) and records one span per call: name,
start, end and the span that was open when the call began.  Spans stay
in memory until :meth:`Tracer.write` runs after the timed region.

Functions called millions of times (the LOS-probability integrand) are
only counted: a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []          # index = span id; (name, start, end, parent id or -1)
        self._open = []          # ids of the spans currently running, innermost last
        self.counts = defaultdict(int)
        self.notes = defaultdict(list)

    def _begin(self, name):
        sid = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._open[-1] if self._open else -1))
        self._open.append(sid)
        return sid, time.perf_counter()

    def _end(self, sid, start):
        end = time.perf_counter()
        self._open.pop()
        name, _, _, parent = self.spans[sid]
        self.spans[sid] = (name, start, end, parent)

    @contextmanager
    def span(self, name):
        sid, start = self._begin(name)
        try:
            yield
        finally:
            self._end(sid, start)

    def wrap(self, module, attr, name, note=None):
        """Record a span for every call of ``module.attr``.

        ``note(args, kwargs, result)`` may return a value that is kept
        under ``name`` for the per-layer summary.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, start = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(sid, start)
            if note is not None:
                self.notes[name].append(note(args, kwargs, result))
            return result

        setattr(module, attr, traced)

    def count(self, module, attr, name):
        """Count calls of ``module.attr`` without timing them."""
        fn = getattr(module, attr)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, counted)

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; one thread runs everything, so children nest inside
        their parent's interval.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for sid, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f}\n")
