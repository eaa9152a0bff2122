"""In-memory spans for the traced benchmark run.

A span is one timed call into a layer: span id, trace id, parent span id,
name, start and end (perf_counter nanoseconds).  Spans opened while
another span of the same thread is open become its children and share its
trace id, so every span of one operation, history or interleaving carries
the id of the root span the benchmark opened for it.

Spans live in per-thread flat int64 arrays (six numbers each) until the
run ends, so tracing a few hundred thousand calls stays within tens of MB.
"""

from __future__ import annotations

import gzip
import itertools
import threading
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional

FIELDS = 6  # span, trace, parent, name index, start ns, end ns


@dataclass
class Layer:
    """Totals over every span of one name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0

    def mean_self_us(self) -> float:
        return self.self_ns / self.calls / 1e3

    def mean_total_s(self) -> float:
        return self.total_ns / self.calls / 1e9


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[array] = []
        self._lock = threading.Lock()  # guards name and buffer registration
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_index:
                self._name_index[name] = len(self.names)
                self.names.append(name)
            return self._name_index[name]

    def _thread_state(self) -> tuple[list, array]:
        local = self._local
        try:
            return local.stack, local.rows
        except AttributeError:
            local.stack = []
            local.rows = array("q")
            with self._lock:
                self._buffers.append(local.rows)
            return local.stack, local.rows

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """fn, with every call recorded as a span called name."""
        name_id = self._name_id(name)
        ids = self._ids
        state = self._thread_state

        def traced(*args, **kwargs):
            stack, rows = state()
            span = next(ids)
            trace, parent = (stack[-1][0], stack[-1][1]) if stack else (span, 0)
            stack.append((trace, span))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                rows.extend((span, trace, parent, name_id, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def rows(self) -> array:
        merged = array("q")
        for rows in self._buffers:
            merged.extend(rows)
        return merged

    def summarize(self) -> dict[str, Layer]:
        """Per span name: calls, total time and self time, where self time
        is a span's duration minus the time its child spans cover."""
        rows = self.rows()
        child_ns: Counter = Counter()
        for i in range(0, len(rows), FIELDS):
            if rows[i + 2]:
                child_ns[rows[i + 2]] += rows[i + 5] - rows[i + 4]
        layers = {name: Layer() for name in self.names}
        for i in range(0, len(rows), FIELDS):
            layer = layers[self.names[rows[i + 3]]]
            duration = rows[i + 5] - rows[i + 4]
            layer.calls += 1
            layer.total_ns += duration
            layer.self_ns += duration - child_ns[rows[i]]
        return layers

    def write(self, path) -> int:
        """Write every span as gzipped CSV; returns the span count."""
        rows = self.rows()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span,trace,parent,name,start_ns,end_ns\n")
            for i in range(0, len(rows), FIELDS):
                span, trace, parent, name_id, start, end = rows[i : i + FIELDS]
                out.write(f"{span},{trace},{parent},{self.names[name_id]},{start},{end}\n")
        return len(rows) // FIELDS
