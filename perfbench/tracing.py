"""Spans recorded from outside the mcvd package.

A ``Tracer`` replaces module-level names of the package (``mcvd.pipeline.fit``,
``mcvd.channel.erfc``, ...) with timing wrappers for the duration of a
``with`` block and puts the original objects back on exit. Each call records
one span: name, start, end, parent and attributes taken from its arguments
and result. Spans stay in memory until the caller writes them out.

Parents come from a span stack kept per thread. A call on a thread whose
stack is empty (a worker of the program's own pool) takes as parent the span
open on the main thread at that moment, which is the call that started the
pool.
"""
from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable


class MissingCallError(RuntimeError):
    """A layer that must run on a workload recorded no calls when traced."""


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# attrs(args, kwargs, result) -> dict, evaluated after the call returns
AttrFn = Callable[[tuple, dict, object], dict]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, attrs: AttrFn | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            try:
                parent = (stack or self._main_stack)[-1].id
            except IndexError:   # no open span on this thread or the main one
                parent = None
            with self._lock:
                span = Span(len(self.spans), name, parent, 0.0)
                self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result
        return traced

    def patch(self, module: str, attr: str, name: str, attrs: AttrFn | None = None) -> None:
        """Replace ``module.attr`` by a traced wrapper until ``restore``."""
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._patched.append((mod, attr, original))
        setattr(mod, attr, self.wrap(name, original, attrs))

    def restore(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    Children of one parent may overlap (concurrent workers); the union of
    their intervals is subtracted, so self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered_length(children.get(s.id, []), s.start, s.end)
            for s in spans}


def require_calls(spans: list[Span], required: list[str]) -> None:
    """Raise when any required span name recorded zero calls."""
    counts = Counter(s.name for s in spans)
    missing = [name for name in required if counts[name] == 0]
    if missing:
        raise MissingCallError("traced run recorded no calls to " + ", ".join(missing)
                               + "; a call site moved and the trace point must follow it")
