"""In-memory span recording for the benchmark's traced run.

A span is one call across a layer boundary: its name, start and end on
``time.perf_counter``, the span that caused it, the thread it ran on, and
the benchmark op it belongs to.  Spans opened on a worker thread that has
no open span of its own (the block workers of ``_map_blocks``) take the
innermost open span of the op's thread as their parent, so a kernel span
run by the thread pool still hangs under the estimator that dispatched it.

Only the standard library is used here, so the set-up timer in ``run.py``
still sees the cost of importing numpy through ``asianvol``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int  # 0 for a root span
    thread: int
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a collection of half-open (lo, hi) intervals.

    Overlapping and nested intervals count once; empty or reversed ones
    count zero.  Works on floats (span coverage) and ints (counter words).
    """
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the coverage of its children on its thread.

    Children that ran on other threads (pool workers) overlap their parent
    in wall time without taking the parent's thread, so they are not
    subtracted; the parent was waiting for them, and that wait is its own.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.sid, ())
            if c.thread == s.thread
        )
        out[s.sid] = s.duration - covered
    return out


class Tracer:
    """Collects spans and integer counters while ``active`` is true.

    ``wrap`` returns a function that records a span around each call when
    the tracer is active and calls straight through when it is not, so
    wrappers can stay installed while untraced work (correctness checks)
    runs between traced batches.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.addresses: list = []  # (seed, first word, end word) per draw
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op = 0
        self._op_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _dispatch_parent(self) -> int:
        # the op thread is blocked in the dispatching call while pool
        # workers run, so its innermost open span is the dispatcher
        try:
            return self._op_stack[-1]
        except IndexError:
            return 0

    def count(self, name: str, n=1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, fn, name: str, error_counter: str, before=None, after=None):
        """Trace calls to ``fn`` as spans called ``name``.

        ``before(args, kwargs)`` runs ahead of the call (counts taken from
        the arguments) and ``after(result, args, kwargs)`` after it returns
        (counts taken from the result).  A call that raises increments
        ``error_counter`` and re-raises.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._dispatch_parent()
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.count(error_counter)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), tracer._op)
                )
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def run_op(self, op_id: int, fn):
        """Run one benchmark op under a root span named ``op``."""
        self._op = op_id
        stack = self._stack()
        self._op_stack = stack
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, "op", start, end, 0, threading.get_ident(), op_id))
            self._op_stack = []

    def take(self):
        """Return and clear everything recorded since the last take."""
        with self._lock:
            out = (self.spans, dict(self.counts), self.addresses)
            self.spans, self.counts, self.addresses = [], defaultdict(int), []
        return out
