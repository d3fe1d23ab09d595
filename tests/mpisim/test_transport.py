"""Zero-copy vs packed transport: selection, equivalence, error paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpisim import (
    FLOAT,
    INT,
    CommunicatorError,
    SubarrayType,
    TRANSPORT_PACKED,
    TRANSPORT_ZEROCOPY,
    TruncationError,
    get_transport,
    set_transport,
    transport,
)
from tests.conftest import counted_region, spmd, thread_only

TRANSPORTS = [TRANSPORT_ZEROCOPY, TRANSPORT_PACKED]


class TestSelection:
    def test_default_is_zerocopy(self):
        assert get_transport() == TRANSPORT_ZEROCOPY

    def test_context_manager_restores(self):
        before = get_transport()
        with transport(TRANSPORT_PACKED):
            assert get_transport() == TRANSPORT_PACKED
        assert get_transport() == before

    def test_set_rejects_unknown(self):
        with pytest.raises(CommunicatorError):
            set_transport("carrier-pigeon")
        with pytest.raises(CommunicatorError):
            with transport("bogus"):
                pass

    @thread_only
    def test_per_communicator_override(self):
        def fn(comm):
            assert comm.resolve_transport() == get_transport()
            comm.transport = TRANSPORT_PACKED
            assert comm.resolve_transport() == TRANSPORT_PACKED
            # per-call override beats the communicator attribute
            assert comm.resolve_transport(TRANSPORT_ZEROCOPY) == TRANSPORT_ZEROCOPY
            with pytest.raises(CommunicatorError):
                comm.resolve_transport("bogus")
            return True

        assert all(spmd(2, fn))


def _transpose(comm, mode):
    """Row->column redistribution; returns the received matrix."""
    size, rank = comm.size, comm.rank
    g = np.arange(size * size, dtype=np.float32).reshape(size, size) + 100 * rank
    recv = np.full((size, size), -1, dtype=np.float32)
    stypes = [
        SubarrayType(FLOAT, (size, size), (size, 1), (0, d)) for d in range(size)
    ]
    rtypes = [
        SubarrayType(FLOAT, (size, size), (size, 1), (0, s)) for s in range(size)
    ]
    comm.Alltoallw(g, stypes, recv, rtypes, transport=mode)
    return recv


class TestEquivalence:
    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_alltoallw_bit_identical(self, size):
        def fn(comm):
            a = _transpose(comm, TRANSPORT_ZEROCOPY)
            b = _transpose(comm, TRANSPORT_PACKED)
            assert np.array_equal(a, b)
            # column s of the result is column rank of source s's matrix
            for s in range(comm.size):
                expect = np.arange(size * size, dtype=np.float32).reshape(size, size)
                assert np.array_equal(a[:, s], expect[:, comm.rank] + 100 * s)
            return True

        assert all(spmd(size, fn))

    def test_mixed_transports_interoperate(self):
        """Receive is handle-aware regardless of mode, so ranks may disagree."""

        def fn(comm):
            mode = TRANSPORTS[comm.rank % 2]
            return _transpose(comm, mode)

        results = spmd(4, fn)
        reference = spmd(4, lambda comm: _transpose(comm, TRANSPORT_PACKED))
        for got, expect in zip(results, reference):
            assert np.array_equal(got, expect)

    @thread_only
    def test_counter_profiles(self):
        """Zero-copy: one direct copy per lane, no staging allocations."""

        def fn(comm):
            _, zc = counted_region(comm, lambda: _transpose(comm, TRANSPORT_ZEROCOPY))
            _, pk = counted_region(comm, lambda: _transpose(comm, TRANSPORT_PACKED))
            return zc, pk

        zc, pk = spmd(4, fn)[0]
        assert zc.get("copies.pack", 0) == 0 and zc.get("copies.unpack", 0) == 0
        assert zc.get("copies.direct", 0) == 16  # 4 ranks x 4 lanes
        assert zc.get("allocations", 0) == 0
        assert pk.get("copies.direct", 0) == 0
        assert pk.get("copies.pack", 0) == 16 and pk.get("copies.unpack", 0) == 16
        assert pk.get("allocations", 0) == 16


class TestRendezvousP2P:
    @pytest.mark.parametrize("mode", TRANSPORTS)
    def test_sendrecv_ring(self, mode):
        def fn(comm):
            comm.transport = mode
            size, rank = comm.size, comm.rank
            send = np.full(8, rank, dtype=np.int32)
            recv = np.zeros(8, dtype=np.int32)
            comm.Sendrecv(
                send, (rank + 1) % size, recv, (rank - 1) % size,
                sendtag=7, recvtag=7,
            )
            assert recv.tolist() == [(rank - 1) % size] * 8
            return True

        assert all(spmd(4, fn))

    @pytest.mark.parametrize("mode", TRANSPORTS)
    def test_sendrecv_self_overlapping(self, mode):
        """Self-exchange may alias; must behave like a simultaneous exchange."""

        def fn(comm):
            comm.transport = mode
            buf = np.arange(4, dtype=np.int32)
            comm.Sendrecv(buf, comm.rank, buf, comm.rank, sendtag=3, recvtag=3)
            assert buf.tolist() == [0, 1, 2, 3]
            return True

        assert all(spmd(2, fn))

    @thread_only
    def test_isend_rendezvous_blocks_until_drained(self):
        def fn(comm):
            if comm.rank == 0:
                send = np.arange(16, dtype=np.float64)
                req = comm.Isend(send, 1, tag=5, rendezvous=True)
                assert not req.Test()  # receiver has not copied yet
                comm.Barrier()
                req.Wait()
            else:
                comm.Barrier()  # hold the send un-drained across the barrier
                recv = np.zeros(16)
                comm.Recv(recv, 0, tag=5)
                assert recv.tolist() == list(range(16))
            return True

        assert all(spmd(2, fn))

    def test_isend_rendezvous_strided_falls_back_eager(self):
        """A non-contiguous buffer cannot be posted by reference."""

        def fn(comm):
            if comm.rank == 0:
                strided = np.arange(8, dtype=np.int32)[::2]
                req = comm.Isend(strided, 1, tag=2, rendezvous=True)
                req.Wait()
            else:
                recv = np.zeros(4, dtype=np.int32)
                comm.Recv(recv, 0, tag=2)
                assert recv.tolist() == [0, 2, 4, 6]
            return True

        assert all(spmd(2, fn))


@pytest.mark.parametrize("mode", TRANSPORTS)
class TestAlltoallwErrorPaths:
    def test_self_type_mismatch(self, mode):
        def fn(comm):
            size = comm.size
            stypes: list = [None] * size
            rtypes: list = [None] * size
            stypes[comm.rank] = FLOAT.Create_contiguous(4)
            rtypes[comm.rank] = FLOAT.Create_contiguous(3)
            with pytest.raises(CommunicatorError, match="self send/recv"):
                comm.Alltoallw(
                    np.zeros(4, dtype=np.float32), stypes,
                    np.zeros(4, dtype=np.float32), rtypes,
                    transport=mode,
                )
            return True

        assert all(spmd(2, fn))

    def test_truncation_releases_sender(self, mode):
        """Receiver-local truncation must not strand a rendezvous sender."""

        def fn(comm):
            stypes: list = [None] * comm.size
            rtypes: list = [None] * comm.size
            if comm.rank == 0:
                stypes[1] = INT.Create_contiguous(2)
                comm.Alltoallw(
                    np.arange(2, dtype=np.int32), stypes, None, rtypes,
                    transport=mode,
                )
            else:
                rtypes[0] = INT.Create_contiguous(4)  # expects more than sent
                with pytest.raises(TruncationError, match="lane 0->1"):
                    comm.Alltoallw(
                        None, stypes, np.zeros(4, dtype=np.int32), rtypes,
                        transport=mode,
                    )
            return True

        assert all(spmd(2, fn))

    def test_all_none_rows(self, mode):
        def fn(comm):
            none_row: list = [None] * comm.size
            comm.Alltoallw(None, none_row, None, none_row, transport=mode)
            return True

        assert all(spmd(3, fn))

    def test_zero_size_lanes(self, mode):
        """Zero-element types move nothing and need no buffer on that lane."""

        def fn(comm):
            size, rank = comm.size, comm.rank
            empty = SubarrayType(INT, (4, 4), (0, 4), (0, 0))
            stypes: list = [empty] * size
            rtypes: list = [empty] * size
            if rank == 0:
                stypes[1] = SubarrayType(INT, (4, 4), (1, 4), (2, 0))
            if rank == 1:
                rtypes[0] = SubarrayType(INT, (4, 4), (1, 4), (0, 0))
            send = np.arange(16, dtype=np.int32)
            recv = np.full(16, -1, dtype=np.int32)
            comm.Alltoallw(send, stypes, recv, rtypes, transport=mode)
            if rank == 1:
                assert recv[:4].tolist() == [8, 9, 10, 11]
                assert (recv[4:] == -1).all()
            return True

        assert all(spmd(3, fn))
