"""Metrics: the one counter/histogram registry.

:class:`MetricsRegistry` holds flat-named counters (:meth:`~MetricsRegistry.incr`,
:meth:`~MetricsRegistry.gauge`) and duration histograms kept both per rank
and aggregated across ranks (:meth:`~MetricsRegistry.observe`, and
:meth:`~MetricsRegistry.ingest` for closed trace spans).  One summary
prints both.

The process-wide instance :data:`METRICS` carries the runtime's counters:

* ``fault.<kind>`` — injected faults and recoveries (``repro.faults``;
  ``FaultLayer.install`` resets ``fault.*``);
* ``resilience.<name>`` — recoveries, deposits, replays and resizes
  (``repro.resilience``, ``repro.intransit``);
* ``transfer.copies.<kind>``, ``transfer.bytes_copied.<kind>``,
  ``transfer.allocations``, ``transfer.bytes_allocated``,
  ``transfer.pool_evictions``, ``transfer.bytes_evicted`` — copy and
  staging accounting from the transport layer, so tests and benches can
  *assert* copy counts instead of inferring them from timings.  Counted
  only inside :func:`counting_transfers`; every hot-path hook is one
  ``METRICS.transfers_enabled`` check otherwise.

Under the process executor each forked rank resets :data:`METRICS` and
ships its counters back with its result; the parent merges them, so a
counter reads the same on either executor.  A component that needs a
private view (a serving hub, an autoscaler) owns its own instance.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .tracer import SpanRecord

__all__ = ["Histogram", "METRICS", "MetricsRegistry", "counting_transfers"]

#: Histogram bucket upper bounds, in seconds (log-spaced; +inf overflow).
BUCKET_BOUNDS_S = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

#: Copy kinds the transport layer reports.
COPY_KINDS = ("pack", "unpack", "payload", "direct")


@dataclass
class Histogram:
    """Streaming histogram over seconds: count/sum/min/max + log buckets."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: list[int] = field(
        default_factory=lambda: [0] * (len(BUCKET_BOUNDS_S) + 1)
    )

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(BUCKET_BOUNDS_S):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for index, n in enumerate(other.buckets):
            self.buckets[index] += n


class MetricsRegistry:
    """Thread-safe counters + named histograms, per rank and aggregate."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.counters: dict[str, float] = {}
        #: aggregate across all ranks
        self.histograms: dict[str, Histogram] = {}
        #: rank -> name -> Histogram (rank ``None`` = driver thread)
        self.by_rank: dict[Optional[int], dict[str, Histogram]] = {}
        #: Hot-path guard for ``transfer.*`` accounting; see
        #: :func:`counting_transfers`.  Survives :meth:`reset`.
        self.transfers_enabled = False

    # -- counters ------------------------------------------------------------

    def incr(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a counter to an instantaneous value (gauge semantics: the
        latest observation wins — pool bytes, queue depth, ladder level)."""
        with self._lock:
            self.counters[name] = float(value)

    def get(self, name: str) -> float:
        with self._lock:
            return self.counters.get(name, 0)

    def snapshot(self, prefix: str = "") -> dict[str, float]:
        """The counters under ``prefix``, keyed with the prefix stripped."""
        with self._lock:
            return {
                name[len(prefix):]: value
                for name, value in self.counters.items()
                if name.startswith(prefix)
            }

    def reset(self, prefix: str = "") -> dict[str, float]:
        """Drop the counters under ``prefix``; returns what was dropped
        (as :meth:`snapshot` would have)."""
        with self._lock:
            dropped = self.snapshot(prefix)
            for name in dropped:
                del self.counters[prefix + name]
            return dropped

    def merge(self, counters: dict[str, float], prefix: str = "") -> None:
        """Add ``{name: value}`` into the counters under ``prefix``."""
        with self._lock:
            for name, value in counters.items():
                full = prefix + name
                self.counters[full] = self.counters.get(full, 0) + value

    # -- transfer accounting (call behind ``transfers_enabled``) -------------

    def count_copy(self, kind: str, nbytes: int) -> None:
        if kind not in COPY_KINDS:
            raise ValueError(
                f"unknown copy kind {kind!r}; expected one of {COPY_KINDS}"
            )
        self.merge({f"copies.{kind}": 1, f"bytes_copied.{kind}": int(nbytes)}, "transfer.")

    def count_alloc(self, nbytes: int) -> None:
        self.merge({"allocations": 1, "bytes_allocated": int(nbytes)}, "transfer.")

    def count_eviction(self, nbytes: int) -> None:
        self.merge({"pool_evictions": 1, "bytes_evicted": int(nbytes)}, "transfer.")

    # -- histograms ----------------------------------------------------------

    def observe(self, name: str, seconds: float, rank: Optional[int] = None) -> None:
        with self._lock:
            self._histogram(self.histograms, name).observe(seconds)
            self._histogram(self.by_rank.setdefault(rank, {}), name).observe(seconds)

    @staticmethod
    def _histogram(table: dict[str, Histogram], name: str) -> Histogram:
        hist = table.get(name)
        if hist is None:
            hist = table[name] = Histogram()
        return hist

    def ingest(self, records: Iterable[SpanRecord]) -> None:
        """Fold closed spans into duration histograms and byte counters."""
        for record in records:
            self.observe(record.name, record.dur_us / 1e6, rank=record.rank)
            nbytes = record.attrs.get("nbytes")
            if nbytes is not None:
                self.incr(f"{record.name}.bytes", int(nbytes))

    # -- reporting -----------------------------------------------------------

    def summary(self, per_rank: bool = False) -> str:
        """Human-readable table: one histogram row per span name."""
        lines = []
        if self.histograms:
            lines.append(
                f"{'span':<24} {'count':>7} {'total_s':>10} {'mean_ms':>10} "
                f"{'min_ms':>10} {'max_ms':>10}"
            )
            for name in sorted(self.histograms):
                lines.append(self._row(name, self.histograms[name]))
        if per_rank:
            for rank in sorted(self.by_rank, key=lambda r: (r is None, r)):
                label = "driver" if rank is None else f"rank {rank}"
                lines.append(f"-- {label}")
                for name in sorted(self.by_rank[rank]):
                    lines.append(self._row(name, self.by_rank[rank][name]))
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name:<38} {self.counters[name]:>14.0f}")
        return "\n".join(lines)

    @staticmethod
    def _row(name: str, hist: Histogram) -> str:
        return (
            f"{name:<24} {hist.count:>7d} {hist.total:>10.4f} {hist.mean * 1e3:>10.3f} "
            f"{hist.min * 1e3:>10.3f} {hist.max * 1e3:>10.3f}"
        )


#: Process-wide registry the runtime's counters report into.  All SPMD
#: "ranks" of the thread executor share it; forked ranks merge into it.
METRICS = MetricsRegistry()


@contextmanager
def counting_transfers() -> Iterator[MetricsRegistry]:
    """Count ``transfer.*`` in :data:`METRICS` within a block.

    The block starts from zero, and nesting is safe: the prior
    ``transfer.*`` counts and ``transfers_enabled`` flag are saved on
    entry and restored on exit with the block's counts added in, so an
    outer block sees everything that happened inside it and keeps
    counting.

    >>> with counting_transfers() as metrics:
    ...     metrics.snapshot("transfer.")
    {}
    """
    with METRICS._lock:
        prior_enabled = METRICS.transfers_enabled
        prior = METRICS.reset("transfer.")
        METRICS.transfers_enabled = True
    try:
        yield METRICS
    finally:
        with METRICS._lock:
            METRICS.transfers_enabled = prior_enabled
            METRICS.merge(prior, "transfer.")
