"""Spans recorded around calls into the program, and their arithmetic.

A span is ``(id, parent, name, t0, t1)``.  ``parent`` is the id of the
span that was open on the calling thread when this one started; a span
started on a worker thread with nothing open there takes the innermost
open span of the main thread as its parent.  Spans stay in memory until
the traced process ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter


class Recorder:
    """Collects spans and counters from wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call; ``observe(counts, result)`` runs after it."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            if stack:
                parent = stack[-1]
            else:
                main = rec._main_stack
                parent = main[-1] if main else None
            sid = next(rec._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec.spans.append((sid, parent, name, t0, t1))
            if observe is not None:
                observe(rec.counts, result)
            return result

        return traced

    def count(self, name: str, fn):
        """``fn`` counting its calls under ``name``, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, _, t0, t1 in spans:
        kids = [(max(lo, t0), min(hi, t1)) for lo, hi in children.get(sid, ()) if hi > t0 and lo < t1]
        out[sid] = (t1 - t0) - union_length(kids)
    return out


def by_name(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (union of its spans) and ``self_s``."""
    selfs = self_times(spans)
    intervals = defaultdict(list)
    out: dict[str, dict[str, float]] = {}
    for sid, _, name, t0, t1 in spans:
        intervals[name].append((t0, t1))
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[sid]
    for name, ivs in intervals.items():
        out[name]["busy_s"] = union_length(ivs)
    return out


def busy_of(spans, names) -> float:
    """Union of the intervals of every span whose name is in ``names``."""
    return union_length([(t0, t1) for _, _, name, t0, t1 in spans if name in names])


def count_within(spans, name: str, ancestor: str) -> int:
    """Spans called ``name`` that have a span called ``ancestor`` above them."""
    info = {sid: (parent, n) for sid, parent, n, _, _ in spans}
    hits = 0
    for sid, parent, n, _, _ in spans:
        if n != name:
            continue
        while parent is not None:
            parent, pname = info.get(parent, (None, None))
            if pname == ancestor:
                hits += 1
                break
    return hits
