"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark around its own calls into the package's
public functions, one layer name per package module; nothing inside the
package is instrumented. Each span keeps its name, start, end, parent span
and op id. Spans stay in memory until the run ends and are then written out
in one file.
"""

import time
from contextlib import contextmanager


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op_id = None
        self._stack = []

    @contextmanager
    def span(self, name):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount


def layer_times(spans):
    """Per span name: busy seconds, self seconds and number of spans.

    A span's self time is its duration minus that of its direct children;
    children never overlap because every call is sequential.
    """
    durations = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, durations):
        if s["parent"] is not None:
            child_time[s["parent"]] += d
    table = {}
    for s, d, c in zip(spans, durations, child_time):
        row = table.setdefault(s["name"], {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        row["busy_s"] += d
        row["self_s"] += d - c
        row["calls"] += 1
    return table
