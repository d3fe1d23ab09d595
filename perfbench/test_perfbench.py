"""Unit tests of the benchmark's own arithmetic and bookkeeping.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import threading
import types
from pathlib import Path

import pytest

from spans import Span, Tracer, self_times, union_length, unattributed_ratio

HERE = Path(__file__).resolve().parent


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert union_length([(0.0, 2.0), (1.0, 3.0), (1.5, 2.5)]) == pytest.approx(3.0)
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    spans = [
        Span("root", (1, 0), 0.0, 10.0),
        Span("a", (1, 0), 1.0, 4.0, parent=0),
        Span("a1", (1, 0), 2.0, 3.0, parent=1),
        Span("b", (1, 0), 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_unions_overlapping_children_and_clips_them():
    # Children overlap each other ([1, 5] and [3, 6]) and one pokes past
    # the parent's end ([8, 12] inside a parent ending at 10).
    spans = [
        Span("root", (1, 0), 0.0, 10.0),
        Span("x", (1, 0), 1.0, 5.0, parent=0),
        Span("y", (1, 0), 3.0, 6.0, parent=0),
        Span("z", (1, 0), 8.0, 12.0, parent=0),
    ]
    # covered: [1, 6] + [8, 10] = 7, so self = 3
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_unattributed_ratio_sums_root_self_over_root_time():
    spans = [
        Span("bench.rank", (1, 0), 0.0, 10.0),
        Span("layer", (1, 0), 0.0, 8.0, parent=0),
        Span("bench.rank", (1, 1), 0.0, 10.0),
        Span("layer", (1, 1), 2.0, 4.0, parent=2),
        Span("layer", (1, 1), 3.0, 6.0, parent=2),  # overlaps its sibling
        Span("elsewhere", (1, 1), 20.0, 30.0),  # not a root: ignored
    ]
    # rank 0: 2 of 10 unattributed; rank 1: 10 - 4 = 6 of 10
    assert unattributed_ratio(spans, ["bench.rank"]) == pytest.approx(8.0 / 20.0)
    assert unattributed_ratio(spans, ["absent"]) == 0.0


def test_tracer_records_parents_per_thread_and_restores_originals():
    module = types.ModuleType("fake_layer")
    module.work = lambda n: n * 2
    original = module.work
    tracer = Tracer()
    tracer.site("fake.work", module, "work", lambda a, k, r: {"result": r})
    tracer.install()
    try:
        def rank(lane: int) -> None:
            tracer.set_lane((7, lane))
            with tracer.span("bench.rank"):
                module.work(lane)

        threads = [threading.Thread(target=rank, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        tracer.uninstall()
    assert module.work is original
    assert tracer.calls() == {"bench.rank": 3, "fake.work": 3}
    for span in (s for s in tracer.spans if s.name == "fake.work"):
        parent = tracer.spans[span.parent]
        assert parent.name == "bench.rank" and parent.lane == span.lane
        assert span.attrs["result"] == 2 * span.lane[1]
        assert span.attrs["site"] == "fake_layer.work"


def test_tracing_a_missing_name_fails_at_registration():
    tracer = Tracer()
    with pytest.raises(AttributeError, match="renamed"):
        tracer.site("fake.gone", types.ModuleType("fake_layer"), "gone")


def test_ledger_matches_benchmark_json():
    ledger = json.loads((HERE / "ledger.json").read_text())
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(ledger["workloads"])
    assert [
        {"name": e["name"], "unit": e["unit"], "better": e["better"]}
        for e in ledger["per_layer"]
    ] == bench["per_layer"]
    workloads = set(ledger["workloads"])
    for entry in ledger["per_layer"]:
        assert set(entry["heavy_on"]) <= workloads
        assert set(entry["no_change_on"]) <= workloads
        assert not set(entry["heavy_on"]) & set(entry["no_change_on"])
        for move in entry["moves"]:
            assert move["workload"] in workloads | {"*"}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    from layers import tail_of

    value, percentile = tail_of([float(i) for i in range(40)])
    assert (value, percentile) == (29.0, 75.0)
    assert sum(1 for i in range(40) if i > value) == 10
    value, percentile = tail_of([1.0] * 10)
    assert percentile == 0.0 and value != value  # nan
