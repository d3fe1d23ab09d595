"""Runtime instrumentation: spans from the engines, transports and pipeline.

The acceptance bar: every exchange round is visible in the trace, including
which backend AutoEngine picked for it, under all three engines and both
transports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Box, Redistributor
from repro.intransit import PipelineConfig, run_pipeline
from repro.lbm import LbmConfig
from repro.lbm.decompose import slab_box
from repro.mpisim import TRANSPORT_PACKED, TRANSPORT_ZEROCOPY, transport
from repro.obs import tracing
from repro.utils.membudget import budget_scope
from repro.volren.decompose import grid_boxes, grid_shape
from tests.conftest import spmd, thread_only

NPROCS = 4


def dense_layout(nprocs, rank):
    """Dense: rank owns cell ``rank``, needs the whole domain."""
    return [Box((rank,), (1,))], Box((0,), (nprocs,))


def run_exchange(backend):
    """One dense 1-D exchange on NPROCS ranks; returns auto's round choices."""

    def fn(comm):
        red = Redistributor(comm, ndims=1, dtype=np.float32, backend=backend)
        own, need = dense_layout(comm.size, comm.rank)
        red.setup(own=own, need=need)
        data = np.full(1, float(comm.rank), dtype=np.float32)
        out = red.gather_need([data])
        np.testing.assert_array_equal(out, np.arange(comm.size, dtype=np.float32))
        return red.engine_choices()

    return spmd(NPROCS, fn)


def spans_named(records, name):
    return [r for r in records if r.name == name]


@pytest.mark.parametrize("mode", [TRANSPORT_ZEROCOPY, TRANSPORT_PACKED])
@pytest.mark.parametrize("backend", ["alltoallw", "p2p", "auto"])
class TestEngineSpans:
    def test_every_round_traced_with_backend_choice(self, backend, mode):
        with tracing() as tracer, transport(mode):
            choices_per_rank = run_exchange(backend)
        records = tracer.records()

        exchanges = spans_named(records, "ddr.exchange")
        assert len(exchanges) == NPROCS  # one per rank
        for span in exchanges:
            assert span.attrs["backend"] == backend
            assert span.attrs["transport"] == mode
            assert span.rank in range(NPROCS)

        rounds = spans_named(records, "ddr.round")
        assert rounds, "no per-round spans captured"
        per_rank = {}
        for span in rounds:
            per_rank.setdefault(span.rank, []).append(span)
        assert sorted(per_rank) == list(range(NPROCS))
        for rank, rank_rounds in per_rank.items():
            rank_rounds.sort(key=lambda s: s.attrs["round"])
            picked = [s.attrs["backend"] for s in rank_rounds]
            if backend == "auto":
                # The trace shows exactly what AutoEngine decided per round.
                assert picked == choices_per_rank[rank]
            else:
                assert picked == [backend] * len(rank_rounds)
            for span in rank_rounds:
                assert span.attrs["lanes"] >= 1
                assert span.attrs["nbytes"] >= 0

    def test_mpi_spans_carry_bytes(self, backend, mode):
        with tracing() as tracer, transport(mode):
            run_exchange(backend)
        mpi = [r for r in tracer.records() if r.category == "mpi"]
        assert mpi, "no mpi.* spans captured"
        moved = [r for r in mpi if "nbytes" in r.attrs]
        assert moved and all(r.attrs["nbytes"] >= 0 for r in moved)
        if backend == "alltoallw":
            collectives = spans_named(mpi, "mpi.Alltoallw")
            assert len(collectives) == NPROCS
            assert all(r.attrs["transport"] == mode for r in collectives)


@thread_only
@pytest.mark.parametrize("mode", [TRANSPORT_ZEROCOPY, TRANSPORT_PACKED])
def test_budgeted_auto_traces_the_protocol_it_ran(mode):
    """A 1024x512 slab-to-tile remap under a half-peak budget: every
    ``ddr.round`` span names the engine that ran, which is what
    ``engine_choices()`` reports, and ``ddr.lowering`` appears only where a
    round really ran in several steps (the staged transport)."""
    nx, ny = 1024, 512

    def fn(comm):
        red = Redistributor(comm, ndims=2, dtype=np.float32, backend="auto")
        red.setup(
            own=[slab_box(nx, ny, comm.size, comm.rank)],
            need=grid_boxes((nx, ny), grid_shape(comm.size, (nx, ny)))[comm.rank],
        )
        own = np.ones(red.mapping.own_chunks[0].np_shape(), dtype=np.float32)
        assert (red.gather_need([own]) == 1).all()
        return red.engine_choices()

    with tracing() as tracer, transport(mode), budget_scope(limit_bytes=393216):
        choices = spmd(NPROCS, fn)
    records = tracer.records()
    assert choices == [["p2p"]] * NPROCS
    rounds = spans_named(records, "ddr.round")
    assert len(rounds) == NPROCS
    for span in rounds:
        assert span.attrs["backend"] == choices[span.rank][span.attrs["round"]]
    assert not spans_named(records, "mpi.Alltoallw")
    lowerings = spans_named(records, "ddr.lowering")
    if mode == TRANSPORT_PACKED:
        assert sorted(s.rank for s in lowerings) == list(range(NPROCS))
        assert all(s.attrs["steps"] > 1 for s in lowerings)
    else:
        assert not lowerings


class TestDisabledPath:
    def test_no_records_when_disabled(self):
        from repro.obs import TRACER

        assert not TRACER.enabled
        before = len(TRACER)
        run_exchange("auto")
        assert len(TRACER) == before


#: One driver serves every reconfiguration mode; each must trace alike.
PIPELINE_MODES = {
    "fixed": {},
    "shrink": {"on_rank_loss": "shrink"},
    "resize": {"on_load": "resize", "resize_schedule": ((1, 4, 2),)},
}


class TestPipelineSpans:
    @pytest.mark.parametrize("mode", sorted(PIPELINE_MODES))
    def test_phase_spans_cover_the_frame_loop(self, mode):
        config = PipelineConfig(
            lbm=LbmConfig(nx=32, ny=16), m=4, n=2, steps=20, output_every=10,
            **PIPELINE_MODES[mode],
        )

        with tracing() as tracer:
            spmd(6, lambda comm: run_pipeline(comm, config))
        names = {r.name for r in tracer.records()}
        for expected in (
            "phase.sim_step",
            "phase.stream_send",
            "phase.stream_recv",
            "phase.ddr_setup",
            "phase.redistribute",
            "phase.render",
            "phase.encode",
            "ddr.exchange",
        ):
            assert expected in names, f"missing {expected} span"

    def test_phase_spans_land_on_world_ranks(self):
        """Analysis ranks use a Split subcommunicator; their DDR spans must
        still file under world pids."""
        config = PipelineConfig(
            lbm=LbmConfig(nx=32, ny=16), m=4, n=2, steps=10, output_every=10
        )

        with tracing() as tracer:
            spmd(6, lambda comm: run_pipeline(comm, config))
        exchange_ranks = {
            r.rank for r in tracer.records() if r.name == "ddr.exchange"
        }
        assert exchange_ranks == {4, 5}  # the two analysis world ranks
