"""In-memory span tracer used by the traced benchmark run.

A span records its name, start and end (perf_counter_ns), the index of its
parent span, the request id it belongs to and whether it ended by an
exception.  Counters are recorded at the same boundaries.  Nothing is
written until `dump` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


_NO_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans and counters cost one no-op call each."""

    def span(self, name):
        return _NO_SPAN

    def count(self, name, n=1):
        pass


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent_index, request_id, failed)
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.request_id = -1

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        failed = False
        try:
            yield
        except BaseException:
            failed = True
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.request_id, failed)

    def count(self, name, n=1):
        self.counters[name] += n

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) / 1e9
        return out

    def calls_and_errors(self) -> tuple[dict[str, int], dict[str, int]]:
        calls: dict[str, int] = defaultdict(int)
        errors: dict[str, int] = defaultdict(int)
        for name, _, _, _, _, failed in self.spans:
            calls[name] += 1
            errors[name] += failed
        return calls, errors

    def dump(self, path: str):
        """Write one JSON object per span (JSON lines)."""
        with open(path, "w") as f:
            for name, start, end, parent, rid, failed in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start,
                                    "end_ns": end, "parent": parent,
                                    "request": rid, "failed": failed}) + "\n")
