"""Memory-budget benchmark: measured staging peak vs budget, lowering overhead.

Runs the slab-to-tile redistribution that motivates the budget machinery
(row slabs in, grid tiles out) under three budget levels — 100%, 75%, and
50% of the unbounded staging peak — on the ``p2p`` engine, which lowers
each round into budget-sized pieces, and records whether the *measured*
ledger peak stayed within each budget into ``benchmarks/BENCH_memory.json``.
The CI gate (``check_regression.py --field peak_within_budget``) fails the
build if a budget level that used to hold stops holding.

Also records the lowering's wall-clock overhead (``p2p`` at the 50% budget
against unbudgeted ``alltoallw``: the price of the per-piece handshakes)
and a tracemalloc cross-check of the analytic estimate, so estimate drift
is diffable across commits.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core import Redistributor, compute_global_plan, global_schedules
from repro.lbm.decompose import slab_box
from repro.mpisim.executor import run_spmd
from repro.utils.membudget import MEMORY_BUDGET, auditing_memory, budget_scope
from repro.volren.decompose import grid_boxes, grid_shape

BENCH_RECORD = Path(__file__).resolve().parent / "BENCH_memory.json"
NPROCS = 4
NX, NY = 1024, 512  # big enough that lanes dwarf the 64 KiB piece floor
ITERS = 3
#: Budget levels as fractions of the unbounded staging peak.  The lowered
#: ``p2p`` engine must hold all three; ``alltoallw`` refuses below 1.0.
LEVELS = (1.0, 0.75, 0.5)


def _layout(nprocs: int, rank: int):
    own = slab_box(NX, NY, nprocs, rank)
    need = grid_boxes((NX, NY), grid_shape(nprocs, (NX, NY)))[rank]
    return own, need


def unbounded_peak_bytes() -> int:
    """The schedule's conservative per-round staging estimate (worst rank)."""
    layouts = [_layout(NPROCS, r) for r in range(NPROCS)]
    plan = compute_global_plan(
        [[own] for own, _ in layouts],
        [need for _, need in layouts],
        element_size=4,
    )
    return max(
        rnd.max_round_bytes for s in global_schedules(plan) for rnd in s.rounds
    )


def _exchange(comm, backend: str, iters: int = ITERS):
    # fill= (not reuse_out=) so the output never enters the staging pool:
    # pooled arrays are intentionally retained across calls, which would
    # read as a ledger leak in the drained-to-zero assertion below.
    own_box, need_box = _layout(comm.size, comm.rank)
    red = Redistributor(
        comm, ndims=2, dtype=np.float32, backend=backend, transport="packed"
    )
    red.setup(own=[own_box], need=need_box)
    field = np.arange(NX * NY, dtype=np.float32).reshape(NY, NX)
    ox, oy = own_box.offset
    h, w = own_box.np_shape()
    own = np.ascontiguousarray(field[oy : oy + h, ox : ox + w])
    out = None
    for _ in range(iters):
        out = red.gather_need([own], fill=-1.0)
    return np.array(out, copy=True)


def _record(name: str, entry: dict) -> None:
    record = {}
    if BENCH_RECORD.exists():
        record = json.loads(BENCH_RECORD.read_text())
    record[name] = entry
    BENCH_RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _timed(backend: str) -> tuple[float, list]:
    start = time.perf_counter()
    outs = run_spmd(NPROCS, _exchange, backend)
    return time.perf_counter() - start, outs


def test_peak_within_budget():
    """The headline gate: the lowered ``p2p`` engine's measured ledger peak
    must stay within every budget level, bitwise-equal to the collective."""
    peak = unbounded_peak_bytes()
    _, expected = _timed("alltoallw")
    for fraction in LEVELS:
        budget = int(peak * fraction)
        with budget_scope(limit_bytes=budget):
            seconds, outs = _timed("p2p")
            measured = MEMORY_BUDGET.peak_bytes()
            drained = MEMORY_BUDGET.total_used_bytes()
        within = measured <= budget and drained == 0
        _record(
            f"budget_{int(fraction * 100)}pct",
            {
                "backend": "p2p",
                "nprocs": NPROCS,
                "budget_bytes": budget,
                "estimated_unbounded_peak_bytes": peak,
                "measured_peak_bytes": measured,
                "peak_within_budget": 1.0 if within else 0.0,
                "seconds": seconds,
                "timestamp": time.time(),
            },
        )
        assert within, (
            f"p2p peak {measured} exceeded the {budget}-byte budget "
            f"({fraction:.0%} of unbounded {peak}), or leaked {drained} bytes"
        )
        for want, have in zip(expected, outs):
            assert np.array_equal(want, have)


def test_lowering_overhead():
    """``p2p`` lowered under the 50% budget vs unbudgeted ``alltoallw``:
    the wall-clock price of the per-piece handshakes."""
    strict_s, expected = _timed("alltoallw")
    with budget_scope(limit_bytes=int(unbounded_peak_bytes() * 0.5)):
        lowered_s, outs = _timed("p2p")
    for want, have in zip(expected, outs):
        assert np.array_equal(want, have)
    _record(
        "lowering_overhead",
        {
            "nprocs": NPROCS,
            "alltoallw_s": strict_s,
            "lowered_p2p_s": lowered_s,
            "overhead_ratio": lowered_s / strict_s if strict_s else 0.0,
            "timestamp": time.time(),
        },
    )


def test_estimate_vs_tracemalloc():
    """Cross-check: the analytic estimate must not *under*state measured
    allocations by more than the workload's own buffers account for."""
    peak = unbounded_peak_bytes()
    with budget_scope(limit_bytes=4 * peak):
        with auditing_memory() as audit:
            # One exchange: repeated generations pipeline (a fast sender
            # posts generation g+1 before g is drained), which would let
            # the measured peak legitimately exceed one round's estimate.
            run_spmd(NPROCS, _exchange, "alltoallw", 1)
        ledger_peak = MEMORY_BUDGET.peak_bytes()
    # The ledger (staging only, per rank) is bounded by the estimate; the
    # tracemalloc number is process-wide and includes user buffers.
    assert 0 < ledger_peak <= peak
    _record(
        "estimate_audit",
        {
            "nprocs": NPROCS,
            "estimated_peak_bytes": peak,
            "ledger_peak_bytes": ledger_peak,
            "tracemalloc_peak_bytes": audit.measured_peak_bytes,
            "timestamp": time.time(),
        },
    )
