"""Memory-budget enforcement end to end: strict refusal, bounded lowering.

The acceptance story of the budget machinery: a slab-to-tile redistribution
whose staged peak exceeds ``DDR_MEM_BUDGET_MB`` must *refuse* (typed, before
allocating) under the strict ``alltoallw`` engine, and *complete
bitwise-equal* under ``p2p`` — which lowers each round into budget-sized
pieces, a window of peers at a time — at roughly half the unbounded peak,
with the ledger drained back to zero afterwards (no staging leaks).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Box, Redistributor, compute_global_plan, global_schedules
from repro.core.schedule import (
    MIN_CHUNK_BYTES,
    PIECE_INFLIGHT,
    auto_backend,
    chunk_bytes_for,
)
from repro.lbm.decompose import slab_box
from repro.mpisim import RankFailure
from repro.mpisim.errors import MemoryBudgetError
from repro.utils.membudget import MEMORY_BUDGET, budget_scope
from repro.volren.decompose import grid_boxes, grid_shape
from tests.conftest import spmd, thread_only

NPROCS = 4
NX, NY = 256, 128
#: Geometry big enough that ``PIECE_INFLIGHT * MIN_CHUNK_BYTES`` fits under
#: half the unbounded peak, so lanes really are cut into several pieces.
BIG_NX, BIG_NY = 1024, 512


def _layout(nprocs: int, rank: int, nx: int, ny: int):
    own = slab_box(nx, ny, nprocs, rank)
    need = grid_boxes((nx, ny), grid_shape(nprocs, (nx, ny)))[rank]
    return own, need


def _exchange(comm, backend: str, nx: int = NX, ny: int = NY, generations: int = 2):
    """Slab-to-tile remap; returns the gathered tiles, one per generation."""
    own_box, need_box = _layout(comm.size, comm.rank, nx, ny)
    red = Redistributor(
        comm, ndims=2, dtype=np.float32, backend=backend, transport="packed"
    )
    red.setup(own=[own_box], need=need_box)
    field = np.arange(nx * ny, dtype=np.float32).reshape(ny, nx)
    ox, oy = own_box.offset
    h, w = own_box.np_shape()
    own = np.ascontiguousarray(field[oy : oy + h, ox : ox + w])
    outs = []
    for generation in range(1, generations + 1):
        out = red.gather_need([own * np.float32(generation)], fill=-1.0)
        outs.append(np.array(out, copy=True))
    return outs


def _global_plan(nprocs: int, nx: int, ny: int):
    layouts = [_layout(nprocs, r, nx, ny) for r in range(nprocs)]
    return compute_global_plan(
        [[own] for own, _ in layouts],
        [need for _, need in layouts],
        element_size=4,
    )


def unbounded_peak_bytes(nprocs: int = NPROCS, nx: int = NX, ny: int = NY) -> int:
    """The strict engine's conservative per-round staging estimate."""
    plan = _global_plan(nprocs, nx, ny)
    return max(
        rnd.max_round_bytes for s in global_schedules(plan) for rnd in s.rounds
    )


def peer_window(limit: int) -> int:
    return max(1, limit // (PIECE_INFLIGHT * chunk_bytes_for(limit)))


def _assert_bitwise(expected, got):
    for want, have in zip(expected, got):
        for w, h in zip(want, have):
            assert np.array_equal(w, h)


@thread_only
class TestBudgetEnforcement:
    def test_strict_engine_refuses_over_budget_typed(self):
        budget = unbounded_peak_bytes() // 2
        with budget_scope(limit_bytes=budget):
            with pytest.raises(RankFailure) as info:
                spmd(NPROCS, _exchange, "alltoallw")
        assert isinstance(info.value.original, MemoryBudgetError)
        # The refusal message routes the user to the way out.
        assert "'p2p' (or 'auto')" in str(info.value.original)

    def test_bounded_completes_bitwise_at_half_budget(self):
        # The acceptance criterion: the same redistribution that the strict
        # engine refuses at half the unbounded peak completes byte-for-byte
        # identically via p2p's budget-bounded lowering.
        expected = spmd(NPROCS, _exchange, "alltoallw")
        budget = unbounded_peak_bytes() // 2
        with budget_scope(limit_bytes=budget):
            got = spmd(NPROCS, _exchange, "p2p")
            assert MEMORY_BUDGET.peak_bytes() <= budget
            assert MEMORY_BUDGET.total_used_bytes() == 0  # ledger drained
        _assert_bitwise(expected, got)

    def test_auto_routes_through_bounded_under_budget(self):
        expected = spmd(NPROCS, _exchange, "auto", BIG_NX, BIG_NY)
        budget = unbounded_peak_bytes(NPROCS, BIG_NX, BIG_NY) // 2
        assert budget >= PIECE_INFLIGHT * MIN_CHUNK_BYTES  # lowering can fit
        with budget_scope(limit_bytes=budget):
            got = spmd(NPROCS, _exchange, "auto", BIG_NX, BIG_NY)
            assert MEMORY_BUDGET.peak_bytes() <= budget
        _assert_bitwise(expected, got)

    @pytest.mark.parametrize(
        "nprocs, fraction, windowed",
        [(4, 1.0, True), (4, 0.75, True), (8, 1.0, False), (8, 0.5, False)],
    )
    def test_budgeted_p2p_is_bitwise(self, nprocs, fraction, windowed):
        # 4 ranks: big budgets let two peers share a step; 8 ranks: one
        # peer per step.  Either way the bytes match the collective's.
        expected = spmd(nprocs, _exchange, "alltoallw", BIG_NX, BIG_NY)
        budget = int(unbounded_peak_bytes(nprocs, BIG_NX, BIG_NY) * fraction)
        assert (peer_window(budget) > 1) == windowed
        with budget_scope(limit_bytes=budget):
            got = spmd(nprocs, _exchange, "p2p", BIG_NX, BIG_NY)
            assert MEMORY_BUDGET.peak_bytes() <= budget
            assert MEMORY_BUDGET.total_used_bytes() == 0
        _assert_bitwise(expected, got)

    def test_lowered_steps_come_from_the_cache(self):
        budget = unbounded_peak_bytes(NPROCS, BIG_NX, BIG_NY) // 2

        def fn(comm):
            own_box, need_box = _layout(comm.size, comm.rank, BIG_NX, BIG_NY)
            red = Redistributor(
                comm, ndims=2, dtype=np.float32, backend="p2p", transport="packed"
            )
            red.setup(own=[own_box], need=need_box)
            own = np.ones(own_box.np_shape(), dtype=np.float32)
            seen = []
            for _ in range(3):
                red.gather_need([own])
                seen.append(dict(red.mapping.rounds[0]._step_cache))
            return seen

        with budget_scope(limit_bytes=budget):
            per_rank = spmd(NPROCS, fn)
        key = (chunk_bytes_for(budget), peer_window(budget))
        for seen in per_rank:
            assert all(list(cache) == [key] for cache in seen)
            assert len(seen[0][key]) > 1  # really lowered into several steps
            assert all(cache[key] is seen[0][key] for cache in seen)

    def test_generous_budget_admits_strict_engine(self):
        with budget_scope(limit_bytes=4 * unbounded_peak_bytes()):
            got = spmd(NPROCS, _exchange, "alltoallw")
            assert MEMORY_BUDGET.total_used_bytes() == 0
        assert len(got) == NPROCS


def _transpose_round(nprocs: int, side: int):
    """Row slabs to column slabs: every rank talks to every other."""
    rows = side // nprocs
    plan = compute_global_plan(
        [[Box((0, r * rows), (side, rows))] for r in range(nprocs)],
        [Box((r * rows, 0), (rows, side)) for r in range(nprocs)],
        element_size=4,
    )
    return global_schedules(plan)[0].rounds[0]


class TestAutoPick:
    def test_tight_budget_picks_p2p(self):
        rnd = _transpose_round(NPROCS, 512)
        assert auto_backend(rnd) == "alltoallw"  # dense
        limit = rnd.max_round_bytes // 2
        assert auto_backend(rnd, zero_copy=False, limit_bytes=limit) == "p2p"
        # Zero-copy stages only the self-copy, so the collective still fits.
        assert auto_backend(rnd, zero_copy=True, limit_bytes=limit) == "alltoallw"

    def test_small_round_falls_back_best_effort(self):
        # Lanes below the MIN_CHUNK floor cannot be lowered further; the
        # rule still routes an over-budget round to p2p, and the ledger
        # enforces the hard line at run time.
        rnd = _transpose_round(NPROCS, 64)
        assert rnd.max_round_bytes // 2 < PIECE_INFLIGHT * MIN_CHUNK_BYTES
        limit = rnd.max_round_bytes // 2
        assert auto_backend(rnd, zero_copy=False, limit_bytes=limit) == "p2p"

    def test_generous_budget_keeps_static_rule(self):
        for rnd in (_transpose_round(NPROCS, 64), _transpose_round(NPROCS, 512)):
            unbudgeted = auto_backend(rnd)
            limit = 64 * rnd.max_round_bytes
            assert auto_backend(rnd, False, limit) == unbudgeted
        schedule = global_schedules(_global_plan(NPROCS, NX, NY))[0]
        for rnd in schedule.rounds:
            assert auto_backend(rnd, False, 64 * rnd.max_round_bytes) == "p2p"
