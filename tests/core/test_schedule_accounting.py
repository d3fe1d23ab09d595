"""Accounting invariants of the exchange-schedule IR.

The memory-budget machinery trusts three properties of the schedule
statistics: bytes are conserved globally (every staged send is somebody's
staged receive), a lowered round's peak estimate shrinks — never
grows — as the budget-derived chunk shrinks, and the auto rule's per-round
engine choices are a pure function of the plan (identical across ranks and
across rebuilds, so no negotiation is ever needed).
"""

from __future__ import annotations

import pytest

from repro.core import (
    Box,
    MIN_CHUNK_BYTES,
    chunk_bytes_for,
    compute_global_plan,
    global_schedules,
)
from repro.core.schedule import PIECE_INFLIGHT
from repro.lbm.decompose import slab_box
from repro.volren.decompose import grid_boxes, grid_shape


def slab_to_tile_plan(nprocs: int, nx: int = 256, ny: int = 128):
    """The paper's motivating remap: row slabs in, grid tiles out."""
    shape = (nx, ny)
    tiles = grid_boxes(shape, grid_shape(nprocs, shape))
    return compute_global_plan(
        [[slab_box(nx, ny, nprocs, r)] for r in range(nprocs)],
        [tiles[r] for r in range(nprocs)],
        element_size=4,
    )


def multi_chunk_plan(nprocs: int):
    """Each rank owns two chunks -> a multi-round schedule."""
    owns = [
        [Box((2 * r,), (1,)), Box((2 * r + 1,), (1,))] for r in range(nprocs)
    ]
    needs = [
        Box(((2 * r + 3) % (2 * nprocs),), (2,) if 2 * r + 3 < 2 * nprocs - 1 else (1,))
        for r in range(nprocs)
    ]
    return compute_global_plan(owns, needs, element_size=8)


class TestGlobalConservation:
    @pytest.mark.parametrize("nprocs", [2, 4, 7])
    def test_bytes_in_equals_bytes_out(self, nprocs):
        schedules = global_schedules(slab_to_tile_plan(nprocs))
        total_out = sum(s.total_bytes_out for s in schedules)
        total_in = sum(r.bytes_in for s in schedules for r in s.rounds)
        assert total_out > 0
        assert total_out == total_in

    def test_per_round_conservation(self):
        # Rounds are synchronized: a lane sent in round k is received in
        # round k, so conservation holds round by round, not just in total.
        schedules = global_schedules(multi_chunk_plan(4))
        nrounds = max(s.nrounds for s in schedules)
        for k in range(nrounds):
            sent = sum(
                r.bytes_out for s in schedules for r in s.rounds if r.index == k
            )
            received = sum(
                r.bytes_in for s in schedules for r in s.rounds if r.index == k
            )
            assert sent == received

    def test_self_bytes_never_on_the_wire(self):
        schedules = global_schedules(slab_to_tile_plan(4))
        for schedule in schedules:
            for rnd in schedule.rounds:
                peers = {lane.peer for lane in rnd.sends}
                peers |= {lane.peer for lane in rnd.recvs}
                assert schedule.rank not in peers
                if rnd.self_send is not None:
                    assert rnd.self_send.peer == schedule.rank


class TestLoweredPeak:
    def test_monotone_in_chunk_bytes(self):
        # Shrinking the budget-derived chunk can only shrink the footprint.
        for schedule in global_schedules(slab_to_tile_plan(4)):
            for rnd in schedule.rounds:
                peaks = [
                    rnd.lowered_peak_bytes(chunk)
                    for chunk in (1, 64, 4096, 65536, 1 << 20, 1 << 30)
                ]
                assert peaks == sorted(peaks)
                assert all(p <= rnd.peak_bytes() for p in peaks)

    def test_lowering_caps_at_inflight_pieces(self):
        schedules = global_schedules(slab_to_tile_plan(4))
        rnd = next(
            r for s in schedules for r in s.rounds if r.sends or r.recvs
        )
        chunk = 4096
        assert rnd.lowered_peak_bytes(chunk) <= PIECE_INFLIGHT * chunk

    def test_zerocopy_stages_only_self_copy(self):
        for schedule in global_schedules(slab_to_tile_plan(4)):
            for rnd in schedule.rounds:
                assert rnd.peak_bytes("zerocopy") == rnd.self_bytes

    def test_schedule_peak_is_worst_round(self):
        for schedule in global_schedules(multi_chunk_plan(4)):
            assert schedule.peak_bytes() == max(
                (r.peak_bytes() for r in schedule.rounds), default=0
            )


class TestChunkBytesFor:
    def test_floor(self):
        assert chunk_bytes_for(0) == MIN_CHUNK_BYTES
        assert chunk_bytes_for(MIN_CHUNK_BYTES) == MIN_CHUNK_BYTES

    def test_monotone_and_below_limit(self):
        limits = [1 << 20, 8 << 20, 64 << 20, 1 << 30]
        chunks = [chunk_bytes_for(limit) for limit in limits]
        assert chunks == sorted(chunks)
        for limit, chunk in zip(limits, chunks):
            # PIECE_INFLIGHT resident pieces (x2 slack) stay within budget.
            assert PIECE_INFLIGHT * chunk <= limit


class TestEngineChoicesStable:
    def test_stable_across_rebuilds(self):
        plan = slab_to_tile_plan(4)
        first = [s.engine_choices() for s in global_schedules(plan)]
        second = [s.engine_choices() for s in global_schedules(plan)]
        assert first == second

    def test_identical_across_ranks(self):
        # The choice feeds the wire protocol: every rank must agree.
        for schedules in (
            global_schedules(slab_to_tile_plan(5)),
            global_schedules(multi_chunk_plan(4)),
        ):
            choices = {tuple(s.engine_choices()) for s in schedules}
            assert len(choices) == 1
