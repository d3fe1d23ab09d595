"""MetricsRegistry: histograms, ingestion, counters by prefix, summary."""

from __future__ import annotations

import math
import sys
import threading

from repro.obs import Histogram, MetricsRegistry, SpanRecord
from repro.obs.metrics import BUCKET_BOUNDS_S


def record(name, rank=0, dur_us=1000.0, **attrs):
    return SpanRecord(
        name=name, rank=rank, tid=1, start_us=0.0, dur_us=dur_us, attrs=attrs
    )


class TestHistogram:
    def test_observe_streams_stats(self):
        hist = Histogram()
        for value in (1e-5, 1e-3, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert math.isclose(hist.total, 1e-5 + 1e-3 + 2.0)
        assert hist.min == 1e-5
        assert hist.max == 2.0
        assert math.isclose(hist.mean, hist.total / 3)
        assert sum(hist.buckets) == 3

    def test_bucket_placement_and_overflow(self):
        hist = Histogram()
        hist.observe(5e-4)  # <= 1e-3 bound
        hist.observe(100.0)  # beyond the last bound -> overflow bucket
        assert hist.buckets[BUCKET_BOUNDS_S.index(1e-3)] == 1
        assert hist.buckets[-1] == 1

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.observe(1e-4)
        b.observe(1.0)
        a.merge(b)
        assert a.count == 2
        assert a.min == 1e-4 and a.max == 1.0
        assert sum(a.buckets) == 2


class TestRegistry:
    def test_observe_keeps_aggregate_and_per_rank(self):
        registry = MetricsRegistry()
        registry.observe("phase.render", 0.01, rank=0)
        registry.observe("phase.render", 0.03, rank=1)
        assert registry.histograms["phase.render"].count == 2
        assert registry.by_rank[0]["phase.render"].count == 1
        assert registry.by_rank[1]["phase.render"].count == 1

    def test_ingest_spans_durations_and_bytes(self):
        registry = MetricsRegistry()
        registry.ingest(
            [
                record("mpi.Send", rank=0, dur_us=500.0, nbytes=1024),
                record("mpi.Send", rank=1, dur_us=700.0, nbytes=2048),
                record("ddr.round", rank=0, dur_us=900.0),
            ]
        )
        send = registry.histograms["mpi.Send"]
        assert send.count == 2
        assert math.isclose(send.total, 1.2e-3)
        assert registry.counters["mpi.Send.bytes"] == 3072
        assert "ddr.round.bytes" not in registry.counters

    def test_snapshot_get_by_prefix(self):
        registry = MetricsRegistry()
        registry.incr("fault.delays", 2)
        registry.incr("fault.retries")
        registry.incr("transfer.allocations")
        assert registry.snapshot("fault.") == {"delays": 2, "retries": 1}
        assert registry.snapshot() == {
            "fault.delays": 2, "fault.retries": 1, "transfer.allocations": 1,
        }
        assert registry.get("fault.delays") == 2
        assert registry.get("fault.crashes") == 0

    def test_reset_by_prefix_returns_what_it_dropped(self):
        registry = MetricsRegistry()
        registry.incr("fault.delays", 3)
        registry.incr("resilience.recoveries")
        registry.transfers_enabled = True
        assert registry.reset("fault.") == {"delays": 3}
        assert registry.counters == {"resilience.recoveries": 1}
        assert registry.reset() == {"resilience.recoveries": 1}
        assert registry.counters == {}
        assert registry.transfers_enabled  # the guard survives a reset

    def test_merge_adds_under_prefix(self):
        registry = MetricsRegistry()
        registry.incr("resilience.recoveries")
        registry.merge({"recoveries": 2, "deposits": 7}, "resilience.")
        registry.merge({"fault.drops": 1})
        assert registry.snapshot("resilience.") == {"recoveries": 3, "deposits": 7}
        assert registry.get("fault.drops") == 1

    def test_transfer_accounting_names(self):
        registry = MetricsRegistry()
        registry.count_copy("pack", 100)
        registry.count_copy("pack", 50)
        registry.count_alloc(4096)
        registry.count_eviction(64)
        assert registry.snapshot("transfer.") == {
            "copies.pack": 2,
            "bytes_copied.pack": 150,
            "allocations": 1,
            "bytes_allocated": 4096,
            "pool_evictions": 1,
            "bytes_evicted": 64,
        }

    def test_concurrent_counts_lose_no_update(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(2000):
                registry.count_copy("pack", 2)

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert registry.snapshot("transfer.") == {
            "copies.pack": 16000, "bytes_copied.pack": 32000,
        }

    def test_summary_lists_spans_and_counters(self):
        registry = MetricsRegistry()
        registry.ingest([record("mpi.Send", rank=0, nbytes=10)])
        registry.observe("phase.render", 0.01, rank=1)
        text = registry.summary(per_rank=True)
        assert "mpi.Send" in text
        assert "phase.render" in text
        assert "rank 0" in text and "rank 1" in text
        assert "mpi.Send.bytes" in text

    def test_summary_empty(self):
        assert MetricsRegistry().summary() == ""
