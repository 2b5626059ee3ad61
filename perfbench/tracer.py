"""Span tracer for wrapping functions from outside a package.

A wrapped call is a span. The tracer does not keep the spans; it aggregates,
per (tag, name), the call count, busy time (sum of span durations), self
time (duration minus the part covered by direct child spans) and work
counters that a per-function callback derives from the call's arguments and
result. ``tag`` labels the pass a span belongs to, so one tracer can hold a
run at several thread counts side by side.

The tracer assumes that wrapped functions are entered from one thread, the
benchmark's caller thread; worker threads inside a wrapped call are part of
that call's span.
"""

import time
from collections import defaultdict
from contextlib import contextmanager


class Stat:
    """Aggregate of the spans that share a (tag, name) key."""

    __slots__ = ("calls", "busy", "self_time", "work")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.work = defaultdict(int)


class Tracer:
    def __init__(self):
        self.tag = ""
        self.stats = defaultdict(Stat)  # (tag, name) -> Stat
        self.child_busy = defaultdict(float)  # (tag, parent, name) -> seconds
        self._stack = []  # open spans: [name, start, covered_by_children]

    def _close(self, frame, end, classes=(), work=None):
        name, start, covered = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
            self.child_busy[(self.tag, parent[0], name)] += duration
        for key in (name, *(f"{name}[{c}]" for c in classes)):
            st = self.stats[(self.tag, key)]
            st.calls += 1
            st.busy += duration
            st.self_time += duration - covered
            for counter, value in (work or {}).items():
                st.work[counter] += value

    @contextmanager
    def span(self, name):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._close(frame, end)

    def wrap(self, name, fn, describe=None):
        """fn timed as span ``name``.

        describe(args, kwargs, result) -> (classes, work) names the
        sub-classes the call is also counted under (as ``name[class]``) and
        its work counters; it runs after the span's end time is taken.
        """

        def traced(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                self._stack.pop()
                self._close(frame, end)
                raise
            end = time.perf_counter()
            self._stack.pop()
            classes, work = describe(args, kwargs, result) if describe else ((), None)
            self._close(frame, end, classes, work)
            return result

        traced.__wrapped__ = fn
        return traced
