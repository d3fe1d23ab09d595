"""Spans recorded from the benchmark's own code around calls into the program.

The benchmark never edits the program to time it.  Instead a :class:`Tracer`
replaces a layer function at the name the program calls it by (a class
method, or a module attribute at its import site) with a wrapper that records
one span per call, and puts the original back afterwards.

A span knows its lane (the rank thread it ran on) and its parent (the span
open on the same thread when it started).  A span's *self time* is its
duration minus the part of its interval that its child spans cover; the
time in a root span that no layer span covers is *unattributed*.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

#: Lane of spans recorded on the benchmark's main thread.
MAIN_LANE = ("main", 0)


@dataclass
class Span:
    """One timed call: ``[start, end]`` in ``time.perf_counter`` seconds."""

    name: str
    lane: tuple
    start: float
    end: float = 0.0
    parent: Optional[int] = None  # index of the enclosing span, same thread
    seq: int = 0  # how many spans of this name the lane opened before
    attrs: dict = field(default_factory=dict)
    phase: str = "op"

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the union of its children, clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
            if end > span.start and start < span.end
        ]
        out.append(span.duration - union_length(clipped))
    return out


def unattributed_ratio(spans: Sequence[Span], root_names: Iterable[str]) -> float:
    """Share of root-span time that no child span covers (0 with no roots)."""
    roots = set(root_names)
    total = uncovered = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span.name in roots:
            total += span.duration
            uncovered += own
    return uncovered / total if total > 0 else 0.0


class Tracer:
    """Collects spans from every thread; off until :meth:`install`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        #: stamped on each new span; set to "setup" around work outside the
        #: measured operations, which per-operation counts leave out
        self.phase = "op"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seq: dict[tuple, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._sites: list[tuple[str, Any, str, Optional[Callable]]] = []

    # -- lanes and spans --------------------------------------------------

    def set_lane(self, lane: tuple) -> None:
        """Name the calling thread's lane (e.g. ``(run_id, rank)``)."""
        self._local.lane = lane

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, name: str, start: float, end: float, parent: Optional[int]) -> int:
        lane = getattr(self._local, "lane", MAIN_LANE)
        with self._lock:
            seq = self._seq.get((lane, name), 0)
            self._seq[(lane, name)] = seq + 1
            self.spans.append(Span(name, lane, start, end, parent, seq, {}, self.phase))
            return len(self.spans) - 1

    def _open(self, name: str, start: float) -> int:
        stack = self._stack()
        index = self._append(name, start, 0.0, stack[-1] if stack else None)
        stack.append(index)
        return index

    def _close(self, index: int, end: float) -> None:
        self.spans[index].end = end
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block of the benchmark's own code (no-op while off)."""
        if not self.enabled:
            yield
            return
        index = self._open(name, time.perf_counter())
        try:
            yield
        finally:
            self._close(index, time.perf_counter())

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured elsewhere, as a root on the calling lane."""
        if self.enabled:
            self._append(name, start, end, None)

    # -- wrapping program functions ---------------------------------------

    def site(
        self,
        name: str,
        owner: Any,
        attr: str,
        attrs_fn: Optional[Callable[[tuple, dict, Any], dict]] = None,
    ) -> None:
        """Register ``owner.attr`` to be wrapped as span ``name`` on install.

        ``attrs_fn(args, kwargs, result)`` adds counts to each span.  The
        attribute must exist now: a renamed function fails here instead of
        silently recording nothing.
        """
        if attr not in vars(owner):
            raise AttributeError(
                f"{getattr(owner, '__name__', owner)!r} has no attribute {attr!r} "
                "to trace; the program was renamed"
            )
        self._sites.append((name, owner, attr, attrs_fn))

    def _wrap(self, name: str, site: str, fn: Callable, attrs_fn) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer._open(name, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, time.perf_counter())
            span_attrs = tracer.spans[index].attrs
            span_attrs["site"] = site
            if attrs_fn is not None:
                span_attrs.update(attrs_fn(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every registered site and start recording."""
        if self.enabled:
            return
        for name, owner, attr, attrs_fn in self._sites:
            original = vars(owner)[attr]
            if inspect.ismodule(owner):
                site = f"{owner.__name__}.{attr}"
            else:
                site = f"{owner.__module__}.{owner.__qualname__}.{attr}"
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, site, original, attrs_fn))
        self.enabled = True

    def uninstall(self) -> None:
        """Put every original back and stop recording."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.enabled = False

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts


@contextmanager
def patched(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.attr`` with ``make(original)`` for the block."""
    original = vars(owner)[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)
