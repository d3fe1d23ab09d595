"""Metrics computed from a run's spans and operation samples.

``_ms`` metrics are milliseconds per call of the traced function on one
rank (``_self_ms``: minus the time its traced children cover).  ``_calls``,
``bytes``, ``slices_read`` and ``layouts_per_frame`` are per workload
operation, summed over ranks, and count only spans of traced operations.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Sequence

from spans import Span, self_times, unattributed_ratio

LEDGER = json.loads((Path(__file__).parent / "ledger.json").read_text())


def _sum(spans: Sequence[Span], key: str) -> float:
    return float(sum(span.attrs.get(key, 0) for span in spans))


def _ms_per_call(durations: Sequence[float]) -> float:
    return 1e3 * sum(durations) / len(durations) if durations else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _exchange_groups(exchanges: Sequence[Span]) -> list[list[Span]]:
    """Spans of one collective exchange: the k-th call of each rank of a run."""
    groups: dict[tuple, list[Span]] = defaultdict(list)
    for span in exchanges:
        groups[(span.lane[0], span.seq)].append(span)
    return list(groups.values())


def layer_metrics(
    spans: Sequence[Span],
    roots: Sequence[str],
    ops: int,
    extra: dict[str, float],
    overhead_ratio: float,
) -> dict[str, float]:
    """Every per-layer metric of ``LEDGER`` (0 for layers a workload skips)."""
    selfs = self_times(spans)
    by_name: dict[str, list[tuple[Span, float]]] = defaultdict(list)
    for span, own in zip(spans, selfs):
        by_name[span.name].append((span, own))

    def all_of(name: str) -> list[Span]:
        return [span for span, _ in by_name[name]]

    def in_ops(name: str) -> list[Span]:
        return [span for span in all_of(name) if span.phase == "op"]

    def per_call(name: str) -> float:
        return _ms_per_call([span.duration for span in all_of(name)])

    def self_per_call(name: str) -> float:
        return _ms_per_call([own for _, own in by_name[name]])

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    lbm_s = sum(span.duration for span in all_of("lbm.step") + all_of("lbm.vorticity"))
    step_s = sum(span.duration for span in all_of("lbm.step"))
    exchanges = all_of("core.exchange")
    groups = _exchange_groups(exchanges)
    group_wall = sum(max(s.end for s in g) - min(s.start for s in g) for g in groups)
    skews = [
        max(s.duration for s in g) - min(s.duration for s in g) for g in groups
    ]
    encodes = all_of("jpeg.encode")
    reads = all_of("imaging.read")
    publishes = in_ops("serve.publish")

    values = {
        "mpisim.spawn_ms": per_call("mpisim.spawn"),
        "mpisim.gather_ms": per_call("mpisim.gather"),
        "lbm.step_ms": 1e3 * _ratio(lbm_s, _sum(all_of("lbm.step"), "steps")),
        "lbm.mlups": _ratio(_sum(all_of("lbm.step"), "cells"), step_s) / 1e6,
        "intransit.send_ms": per_call("intransit.send"),
        "intransit.recv_wait_ms": per_call("intransit.recv"),
        "core.setup_ms": per_call("core.setup"),
        "core.setup_calls": per_op(len(in_ops("core.setup"))),
        "core.exchange_ms": per_call("core.exchange"),
        "core.exchange_calls": per_op(len(in_ops("core.exchange"))),
        "core.rounds": _ratio(_sum(exchanges, "rounds"), len(exchanges)),
        "core.bytes": per_op(_sum(in_ops("core.exchange"), "bytes")),
        "core.exchange_gib_s": _ratio(_sum(exchanges, "bytes"), group_wall) / 2**30,
        "core.skew_ms": 1e3 * _ratio(sum(skews), len(skews)),
        "viz.render_ms": per_call("viz.render"),
        "viz.assemble_ms": per_call("viz.assemble"),
        "jpeg.encode_ms": per_call("jpeg.encode"),
        "jpeg.mpix_per_s": _ratio(
            _sum(encodes, "pixels"), sum(s.duration for s in encodes)
        ) / 1e6,
        "jpeg.bytes": per_op(_sum(in_ops("jpeg.encode"), "bytes")),
        "serve.publish_self_ms": self_per_call("serve.publish"),
        "serve.layouts_per_frame": _ratio(_sum(publishes, "layouts"), len(publishes)),
        "serve.register_ms": per_call("serve.register"),
        "imaging.read_ms": per_call("imaging.read"),
        "imaging.slices_read": per_op(len(in_ops("imaging.read"))),
        "imaging.decode_mb_s": _ratio(
            _sum(reads, "bytes"), sum(s.duration for s in reads)
        ) / 1e6,
        "io.load_self_ms": self_per_call("io.load"),
        "volren.render_ms": per_call("volren.render"),
        "volren.composite_ms": per_call("volren.composite"),
        "trace.unattributed_ratio": unattributed_ratio(spans, roots),
        "trace.overhead_ratio": overhead_ratio,
        "serve.mapping_hit_ratio": 0.0,
        "serve.lateness_ms": 0.0,
    }
    values.update(extra)
    names = [entry["name"] for entry in LEDGER["per_layer"]]
    mismatch = set(names) ^ set(values)
    if mismatch:
        raise KeyError(f"ledger and computed per-layer metrics disagree on {sorted(mismatch)}")
    return {name: values[name] for name in names}


def heavy_gaps(workload: str, calls: dict[str, int]) -> list[str]:
    """Spans the ledger marks heavy on ``workload`` that recorded no call."""
    gaps = []
    for entry in LEDGER["per_layer"]:
        if workload in entry["heavy_on"]:
            gaps += [
                f"{entry['name']}: {name}"
                for name in entry["spans"]
                if not calls.get(name)
            ]
    return gaps


def overhead(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Traced over untraced median operation time, minus one."""
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced) - 1.0


def tail_of(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; ``(nan, 0)`` with ten samples or fewer.
    """
    n = len(samples)
    if n <= 10:
        return float("nan"), 0.0
    return sorted(samples)[n - 11], round(100.0 * (n - 10) / n, 1)
