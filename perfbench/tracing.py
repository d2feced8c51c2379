"""Span capture around calls into gaussform's public functions.

Spans are recorded from the benchmark's own code, one per call: name,
start, end, parent span, item id and whether the call raised.  They stay in
memory until the run ends.  ``NullTracer`` has the same interface and only
forwards calls, so untraced runs pay one extra Python call per wrapped call.
"""

import statistics
import time


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def record(self, name, start, end, failed=False):
        pass

    def begin_item(self, item_id):
        pass

    def end_item(self, failed):
        pass


class Tracer:
    """Keeps spans as tuples (id, name, start, end, parent, item, failed)."""

    enabled = True
    ITEM = "bench.item"

    def __init__(self):
        self.spans = []
        self._item_span = None      # (span id, item id, start) while an item runs
        self._next_id = 0

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def _append(self, name, start, end, failed):
        parent, item = (self._item_span[0], self._item_span[1]) \
            if self._item_span else (0, None)
        self.spans.append((self._new_id(), name, start, end, parent, item, failed))

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._append(name, start, time.perf_counter(), True)
            raise
        self._append(name, start, time.perf_counter(), False)
        return out

    def record(self, name, start, end, failed=False):
        """A span measured elsewhere, such as inside a child process."""
        self._append(name, start, end, failed)

    def begin_item(self, item_id):
        self._item_span = (self._new_id(), item_id, time.perf_counter())

    def end_item(self, failed):
        span_id, item_id, start = self._item_span
        self._item_span = None
        self.spans.append((span_id, self.ITEM, start, time.perf_counter(),
                           0, item_id, failed))

    def aggregate(self, names):
        """Per-name calls, failed, busy_s and p50_us, plus the item's self time.

        Self time is busy time minus the time covered by child spans; from
        outside the program only item spans have children, and those are
        sequential, so their durations add up without overlap.
        """
        durations = {}
        failed = {}
        child_s = {}
        for _, name, start, end, parent, _, bad in self.spans:
            durations.setdefault(name, []).append(end - start)
            failed[name] = failed.get(name, 0) + bool(bad)
            if parent:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        out = {}
        for name in names:
            d = durations.get(name, [])
            out[name] = {
                "calls": len(d),
                "failed": failed.get(name, 0),
                "busy_s": sum(d),
                "p50_us": statistics.median(d) * 1e6 if d else 0.0,
            }
        items = [(sid, end - start) for sid, name, start, end, *_ in self.spans
                 if name == self.ITEM]
        out[self.ITEM]["self_s"] = sum(dur - child_s.get(sid, 0.0)
                                       for sid, dur in items)
        return out

    def write(self, path):
        """Write the spans as tab-separated lines, times in microseconds."""
        t0 = self.spans[0][2] if self.spans else 0.0
        lines = ["id\tname\tstart_us\tend_us\tparent\titem\tfailed"]
        lines.extend(
            f"{sid}\t{name}\t{(s - t0) * 1e6:.1f}\t{(e - t0) * 1e6:.1f}\t"
            f"{parent}\t{'' if item is None else item}\t{int(bad)}"
            for sid, name, s, e, parent, item, bad in self.spans)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
