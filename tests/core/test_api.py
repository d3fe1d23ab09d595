"""End-to-end tests of the paper's three-call API and the Redistributor."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Box,
    DATA_TYPE_2D,
    DDR_NewDataDescriptor,
    DDR_ReorganizeData,
    DDR_SetupDataMapping,
    Redistributor,
)
from repro.core import get_engine
from repro.mpisim import FLOAT
from tests.conftest import spmd


def run_e1(backend: str = "alltoallw"):
    """Algorithm 1 verbatim: 8x8 domain, 4 ranks, rows -> quadrants."""

    def fn(comm):
        rank = comm.rank
        desc = DDR_NewDataDescriptor(4, DATA_TYPE_2D, FLOAT, 4)
        # Table I values for this rank:
        dims_own = [8, 1, 8, 1]
        offsets_own = [0, rank, 0, rank + 4]
        right, bottom = rank % 2, rank // 2
        DDR_SetupDataMapping(
            comm, rank, 4, 2, dims_own, offsets_own, [4, 4], [4 * right, 4 * bottom], desc
        )
        g = np.arange(64, dtype=np.float32).reshape(8, 8)  # g[y, x] = 8y + x
        data_own = [g[rank].copy(), g[rank + 4].copy()]
        data_need = np.zeros((4, 4), dtype=np.float32)
        if backend == "p2p":
            get_engine("p2p").execute(comm, desc.plan, data_own, data_need)
        else:
            DDR_ReorganizeData(comm, 4, data_own, data_need, desc)
        expect = g[4 * bottom : 4 * bottom + 4, 4 * right : 4 * right + 4]
        assert np.array_equal(data_need, expect), (rank, data_need, expect)
        return desc.plan.nrounds

    return spmd(4, fn)


class TestPaperE1:
    def test_alltoallw_backend(self):
        assert run_e1("alltoallw") == [2, 2, 2, 2]

    def test_p2p_backend(self):
        assert run_e1("p2p") == [2, 2, 2, 2]

    def test_rank_argument_checked(self):
        def fn(comm):
            desc = DDR_NewDataDescriptor(2, DATA_TYPE_2D, FLOAT, 4)
            with pytest.raises(ValueError, match="rank argument"):
                DDR_SetupDataMapping(
                    comm, (comm.rank + 1) % 2, 2, 1, [4, 4], [0, 0], [4, 4], [0, 0], desc
                )

        spmd(2, fn)

    def test_nprocs_argument_checked(self):
        def fn(comm):
            desc = DDR_NewDataDescriptor(2, DATA_TYPE_2D, FLOAT, 4)
            with pytest.raises(ValueError, match="nprocs"):
                DDR_SetupDataMapping(
                    comm, comm.rank, 3, 1, [4, 4], [0, 0], [4, 4], [0, 0], desc
                )

        spmd(2, fn)

    def test_reorganize_before_setup_raises(self):
        def fn(comm):
            desc = DDR_NewDataDescriptor(2, DATA_TYPE_2D, FLOAT, 4)
            with pytest.raises(RuntimeError, match="SetupDataMapping"):
                DDR_ReorganizeData(comm, 2, np.zeros(1, np.float32), np.zeros(1, np.float32), desc)

        spmd(2, fn)

    def test_descriptor_nprocs_vs_comm_size(self):
        def fn(comm):
            desc = DDR_NewDataDescriptor(8, DATA_TYPE_2D, FLOAT, 4)
            from repro.core import setup_data_mapping

            with pytest.raises(ValueError, match="communicator"):
                setup_data_mapping(comm, desc, [Box((0, comm.rank), (4, 1))], Box((0, 0), (2, 2)))

        spmd(2, fn)


class TestRedistributor:
    def test_reuse_across_timesteps(self):
        """Paper §III-C: with layout fixed, exchange repeats on new data
        without re-running setup — the in-transit use case's core property."""

        def fn(comm):
            rank, size = comm.rank, comm.size
            red = Redistributor(comm, ndims=1, dtype=np.float64)
            n = 16
            per = n // size
            red.setup(
                own=[Box((rank * per,), (per,))],
                need=Box(((size - 1 - rank) * per,), (per,)),
            )
            for step in range(5):
                data = np.arange(rank * per, (rank + 1) * per, dtype=np.float64) + 100 * step
                out = red.gather_need([data])
                lo = (size - 1 - rank) * per
                expect = np.arange(lo, lo + per, dtype=np.float64) + 100 * step
                assert np.array_equal(out, expect)
            return True

        assert all(spmd(4, fn))

    def test_backend_switch(self):
        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32, backend="p2p")
            red.set_backend("alltoallw")
            with pytest.raises(ValueError):
                red.set_backend("smoke-signals")

        spmd(2, fn)

    def test_mapping_before_setup_raises(self):
        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32)
            with pytest.raises(RuntimeError):
                _ = red.mapping

        spmd(2, fn)

    def test_buffer_validation(self):
        def fn(comm):
            rank = comm.rank
            red = Redistributor(comm, ndims=1, dtype=np.float32)
            red.setup(own=[Box((rank * 4,), (4,))], need=Box((rank * 4,), (4,)))
            with pytest.raises(ValueError, match="buffers"):
                red.exchange([], np.zeros(4, np.float32))
            with pytest.raises(ValueError, match="dtype"):
                red.exchange([np.zeros(4, np.float64)], np.zeros(4, np.float32))
            with pytest.raises(ValueError, match="values"):
                red.exchange([np.zeros(3, np.float32)], np.zeros(4, np.float32))
            with pytest.raises(ValueError, match="need buffer"):
                red.exchange([np.zeros(4, np.float32)], np.zeros(9, np.float32))

        spmd(2, fn)

    def test_validation_catches_overlapping_owners(self):
        def fn(comm):
            from repro.core import MappingValidationError

            red = Redistributor(comm, ndims=1, dtype=np.float32)
            with pytest.raises(MappingValidationError):
                red.setup(own=[Box((0,), (5,))], need=Box((0,), (2,)))  # both own [0,5)

        spmd(2, fn)

    def test_validation_can_be_disabled(self):
        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32)
            # Overlapping owners: undefined which copy wins, but setup passes.
            red.setup(own=[Box((0,), (4,))], need=Box((0,), (4,)), validate=False)
            out = red.gather_need([np.full(4, comm.rank, dtype=np.float32)])
            assert out.shape == (4,)

        spmd(2, fn)

    def test_gather_need_with_no_need(self):
        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32)
            if comm.rank == 0:
                red.setup(own=[Box((0,), (8,))], need=Box((0,), (8,)))
                out = red.gather_need([np.arange(8, dtype=np.float32)])
                assert out.tolist() == list(range(8))
            else:
                red.setup(own=[], need=None)
                assert red.gather_need([]) is None

        spmd(2, fn)
