"""Engine ablation: alltoallw vs p2p vs auto on sparse and dense patterns.

Executes the same plan through all three engines on the threaded runtime
(measured) and prices it with the per-engine analytic model (predicted),
recording both into ``benchmarks/BENCH_engine.json`` so the CI regression
gate (``check_regression.py --field throughput_gib_s``) can diff runs.

Two 8-rank patterns bracket the sparsity spectrum:

- ``sparse_ring``: each rank's slab moves one neighbour over — 2 partners
  per rank, the regime where the paper's §V direct-send idea wins;
- ``dense_transpose``: row slabs become column slabs — every rank talks to
  every other, the regime the collective was built for.

The auto engine must pick p2p on the ring and alltoallw on the transpose,
and its executed per-round choices must equal the model's predicted ones
(they share the selection rule by construction — this bench pins that).
The ring also pins how few messages direct sends post, and the model's
p2p saving over the collective at 64 ranks of the paper's TIFF load.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core import Box, Redistributor, compute_global_plan
from repro.io.assignment import Assignment, StackGeometry
from repro.mpisim.executor import run_spmd
from repro.netmodel import COOLEY, ddr_plan, engine_cost

BENCH_RECORD = Path(__file__).resolve().parent / "BENCH_engine.json"
NPROCS = 8
SIDE = 256  # 256x256 float32 = 256 KiB per rank slab
ROWS = SIDE // NPROCS
ITERS = 5  # exchanges per timed run (setup done once, the paper's hot loop)
BACKENDS = ("alltoallw", "p2p", "auto")


def _ring_layout(rank: int) -> tuple[list[Box], Box]:
    own = [Box((0, rank * ROWS), (SIDE, ROWS))]
    need = Box((0, ((rank + 1) % NPROCS) * ROWS), (SIDE, ROWS))
    return own, need


def _transpose_layout(rank: int) -> tuple[list[Box], Box]:
    own = [Box((0, rank * ROWS), (SIDE, ROWS))]
    need = Box((rank * ROWS, 0), (ROWS, SIDE))
    return own, need


PATTERNS = {
    "sparse_ring": _ring_layout,
    "dense_transpose": _transpose_layout,
}


def _global_plan(pattern: str):
    layout = PATTERNS[pattern]
    owns = [layout(rank)[0] for rank in range(NPROCS)]
    needs = [layout(rank)[1] for rank in range(NPROCS)]
    return compute_global_plan(owns, needs, element_size=4)


def _run_pattern(pattern: str, backend: str) -> list:
    """Setup once, exchange ITERS times; returns every rank's final block."""
    layout = PATTERNS[pattern]

    def fn(comm):
        own, need = layout(comm.rank)
        red = Redistributor(comm, ndims=2, dtype=np.float32, backend=backend)
        red.setup(own=own, need=need)
        data = np.arange(SIDE * ROWS, dtype=np.float32).reshape(ROWS, SIDE)
        data += comm.rank * SIDE * ROWS
        out = None
        for _ in range(ITERS):
            out = red.gather_need([data], reuse_out=True)
        return None if out is None else out.copy()

    return run_spmd(NPROCS, fn)


def _executed_choices(pattern: str) -> list:
    """Per rank: auto's round choices and the messages p2p would post."""

    def fn(comm):
        own, need = PATTERNS[pattern](comm.rank)
        red = Redistributor(comm, ndims=2, dtype=np.float32, backend="auto")
        red.setup(own=own, need=need)
        return red.engine_choices(), red.mapping.schedule.message_count

    return run_spmd(NPROCS, fn)


def _best_seconds(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _record(name: str, entry: dict) -> None:
    record = {}
    if BENCH_RECORD.exists():
        record = json.loads(BENCH_RECORD.read_text())
    record[name] = entry
    BENCH_RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _measure_and_record(pattern: str, benchmark) -> dict[str, float]:
    plan = _global_plan(pattern)
    bytes_per_exchange = plan.total_bytes_moved(exclude_self=True)
    measured: dict[str, float] = {}
    for backend in BACKENDS:
        if backend == BACKENDS[0]:
            seconds = benchmark.pedantic(
                _best_seconds, args=(lambda: _run_pattern(pattern, backend),),
                rounds=1, iterations=1,
            )
        else:
            seconds = _best_seconds(lambda: _run_pattern(pattern, backend))
        measured[backend] = seconds
        predicted = engine_cost(COOLEY, plan, backend)
        _record(
            f"{pattern}_{backend}",
            {
                "pattern": pattern,
                "backend": backend,
                "nprocs": NPROCS,
                "bytes_moved": bytes_per_exchange * ITERS,
                "seconds": seconds,
                "throughput_gib_s": bytes_per_exchange * ITERS / seconds / 2**30,
                "predicted_s": predicted.total_s,
                "predicted_round_engines": list(predicted.round_engines),
                "timestamp": time.time(),
            },
        )
    return measured


def test_sparse_ring_engines(benchmark):
    measured = _measure_and_record("sparse_ring", benchmark)
    assert set(measured) == set(BACKENDS)
    # Predicted and executed auto-selection must agree: sparse -> p2p.
    predicted = engine_cost(COOLEY, _global_plan("sparse_ring"), "auto")
    assert predicted.round_engines == ("p2p",)
    executed = _executed_choices("sparse_ring")
    for choices, _ in executed:
        assert choices == list(predicted.round_engines)
    # Direct sends post one message per partner, not one per rank.
    assert all(count == 1 for _, count in executed)


def test_dense_transpose_engines(benchmark):
    measured = _measure_and_record("dense_transpose", benchmark)
    assert set(measured) == set(BACKENDS)
    # Predicted and executed auto-selection must agree: dense -> alltoallw.
    predicted = engine_cost(COOLEY, _global_plan("dense_transpose"), "auto")
    assert predicted.round_engines == ("alltoallw",)
    for choices, _ in _executed_choices("dense_transpose"):
        assert choices == list(predicted.round_engines)


def test_engines_bit_identical(benchmark):
    def all_patterns():
        return {
            pattern: [_run_pattern(pattern, backend) for backend in BACKENDS]
            for pattern in PATTERNS
        }

    results = benchmark.pedantic(all_patterns, rounds=1, iterations=1)
    for pattern, per_backend in results.items():
        baseline = per_backend[0]
        for backend, outputs in zip(BACKENDS[1:], per_backend[1:]):
            for rank, (a, b) in enumerate(zip(baseline, outputs)):
                assert np.array_equal(a, b), (pattern, backend, rank)


def test_modeled_p2p_savings_at_full_scale(benchmark):
    """At 64 procs of the paper's TIFF load each rank talks to a handful of
    partners, not 64: the direct backend avoids the O(P) collective
    posting overhead."""
    stack = StackGeometry(width=1024, height=512, n_images=512, bytes_per_pixel=4)

    def compare():
        plan = ddr_plan(64, Assignment.CONSECUTIVE, stack)
        return (
            engine_cost(COOLEY, plan, "alltoallw").total_s,
            engine_cost(COOLEY, plan, "p2p").total_s,
            max(plan.partners_per_rank()),
        )

    alltoallw_s, p2p_s, max_partners = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    print(
        f"\nmodeled exchange @64 procs: alltoallw {alltoallw_s:.4f}s, "
        f"p2p {p2p_s:.4f}s, max partners/rank {max_partners}"
    )
    assert max_partners < 64  # the pattern is sparse ...
    assert p2p_s < alltoallw_s  # ... so direct sends win in the model
