"""In-memory span recorder for the traced pass.

The benchmark measures layers from outside: every span is recorded by a
``bench/`` file around one call into ``repro``.  A span is the tuple
``(name, start, end, parent, op)``; ``parent`` is the index of the span
that caused it (-1 for a root) and ``op`` groups the spans of one
operation.  Spans stay in memory and are written once, at exit.
"""

import json
import time
from collections import defaultdict

COLUMNS = ("name", "start", "end", "parent", "op")


class Recorder:
    """Collects spans; ``call`` times one function call as one span."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []

    def open(self, name, op, parent=-1):
        """Start a span that other spans nest under; returns its index."""
        self.spans.append([name, self.clock(), None, parent, op])
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index][2] = self.clock()

    def call(self, name, op, parent, fn, *args, **kwargs):
        clock = self.clock
        start = clock()
        result = fn(*args, **kwargs)
        end = clock()
        self.spans.append((name, start, end, parent, op))
        return result

    def totals(self, first=0, last=None):
        """Per span name that occurred: ``(calls, total seconds, self
        seconds)`` over spans ``first..last`` (whole operations: parents
        inside).

        Self time is a span's duration minus the durations of the spans
        that name it as their parent.
        """
        spans = self.spans[first:last]
        child_time = defaultdict(float)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _, _) in enumerate(spans, first):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time.get(index, 0.0)
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path, **header):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {**header, "columns": COLUMNS, "spans": self.spans},
                handle,
                separators=(",", ":"),
            )


class NullRecorder:
    """Same interface, records nothing: the untraced side of
    ``trace.overhead_share``."""

    enabled = False
    spans = ()

    def open(self, name, op, parent=-1):
        return -1

    def close(self, index):
        pass

    def call(self, name, op, parent, fn, *args, **kwargs):
        return fn(*args, **kwargs)
