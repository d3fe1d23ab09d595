"""Execution engines and the mapping lifecycle.

Covers the engine registry and ``DDR_BACKEND`` override, the auto engine's
plan-driven protocol selection (sparse -> direct sends, dense -> collective,
mixed plans -> both in one exchange), and the first-class mapping handles:
re-``setup()`` invalidates the previous mapping, independent handles from
``new_mapping()`` stay live concurrently, and stale use fails loudly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Box,
    Redistributor,
    StaleMappingError,
    default_backend,
    get_engine,
)
from repro.core.engine import ENGINES
from repro.utils.membudget import budget_scope
from tests.conftest import spmd


class TestEngineRegistry:
    def test_known_engines(self):
        assert set(ENGINES) == {"alltoallw", "p2p", "auto"}
        for name in ENGINES:
            assert get_engine(name).name == name

    def test_engines_are_singletons(self):
        assert get_engine("auto") is get_engine("auto")

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_engine("carrier-pigeon")

    def test_default_backend_plain(self, monkeypatch):
        monkeypatch.delenv("DDR_BACKEND", raising=False)
        assert default_backend() == "alltoallw"

    def test_default_backend_env_override(self, monkeypatch):
        monkeypatch.setenv("DDR_BACKEND", "auto")
        assert default_backend() == "auto"

        def fn(comm):
            return Redistributor(comm, ndims=1, dtype=np.float32).backend

        assert spmd(2, fn) == ["auto", "auto"]

    def test_default_backend_env_invalid(self, monkeypatch):
        monkeypatch.setenv("DDR_BACKEND", "smoke-signals")
        with pytest.raises(ValueError, match="DDR_BACKEND"):
            default_backend()


def ring_layout(nprocs: int, rank: int):
    """Sparse: rank owns cell ``rank``, needs cell ``rank + 1`` (mod P)."""
    return [Box((rank,), (1,))], Box(((rank + 1) % nprocs,), (1,))


def dense_layout(nprocs: int, rank: int):
    """Dense: rank owns cell ``rank``, needs the whole domain."""
    return [Box((rank,), (1,))], Box((0,), (nprocs,))


class TestAutoEngine:
    def test_picks_p2p_on_sparse_plan(self):
        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32, backend="auto")
            own, need = ring_layout(comm.size, comm.rank)
            red.setup(own=own, need=need)
            data = np.full(1, float(comm.rank), dtype=np.float32)
            out = red.gather_need([data])
            assert out[0] == (comm.rank + 1) % comm.size
            return red.engine_choices()

        for choices in spmd(6, fn):
            assert choices == ["p2p"]

    def test_picks_alltoallw_on_dense_plan(self):
        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32, backend="auto")
            own, need = dense_layout(comm.size, comm.rank)
            red.setup(own=own, need=need)
            data = np.full(1, float(comm.rank), dtype=np.float32)
            out = red.gather_need([data])
            assert np.array_equal(out, np.arange(comm.size, dtype=np.float32))
            return red.engine_choices()

        for choices in spmd(6, fn):
            assert choices == ["alltoallw"]

    def test_mixed_plan_uses_both_protocols_in_one_exchange(self):
        # Rank 0 owns a wide chunk feeding three ranks (collective round) and
        # a narrow chunk feeding exactly one (direct round); the other ranks
        # own nothing and just receive.
        nprocs = 4

        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32, backend="auto")
            own = [Box((0,), (6,)), Box((6,), (2,))] if comm.rank == 0 else []
            need = Box((comm.rank * 2,), (2,))
            red.setup(own=own, need=need)
            assert red.engine_choices() == ["alltoallw", "p2p"]
            buffers = (
                [np.arange(6, dtype=np.float32), np.arange(6, 8, dtype=np.float32)]
                if comm.rank == 0
                else []
            )
            out = red.gather_need(buffers)
            assert np.array_equal(
                out, np.arange(comm.rank * 2, comm.rank * 2 + 2, dtype=np.float32)
            )
            return True

        assert all(spmd(nprocs, fn))

    def test_choices_helper_matches_schedule(self):
        # engine_choices() asks the decision auto executes, with this
        # instance's resolved transport and the installed budget: a dense
        # round over budget goes direct on the staged transport only.
        def fn(comm, mode):
            red = Redistributor(
                comm, ndims=1, dtype=np.float32, backend="auto", transport=mode
            )
            own, need = dense_layout(comm.size, comm.rank)
            red.setup(own=own, need=need)
            out = red.gather_need([np.full(1, float(comm.rank), dtype=np.float32)])
            assert np.array_equal(out, np.arange(comm.size, dtype=np.float32))
            return red.engine_choices()

        assert spmd(4, fn, "packed") == [["alltoallw"]] * 4
        with budget_scope(limit_bytes=16):
            assert spmd(4, fn, "packed") == [["p2p"]] * 4
            assert spmd(4, fn, "zerocopy") == [["alltoallw"]] * 4


class TestMappingLifecycle:
    def test_resetup_invalidates_previous_mapping(self):
        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32)
            own, need = ring_layout(comm.size, comm.rank)
            first = red.setup(own=own, need=need)
            data = np.zeros(1, dtype=np.float32)
            out = np.zeros(1, dtype=np.float32)
            red.exchange([data], out)  # populates first's buffer cache
            assert first.buffer_cache.signature([data], out) == first.buffer_cache._signature

            second = red.setup(own=own, need=need)
            assert first.stale and not second.stale
            assert red.mapping is second
            # The superseded mapping dropped its caches.
            assert first.buffer_cache._signature is None
            with pytest.raises(StaleMappingError, match="invalidated"):
                red.exchange([data], out, mapping=first)
            return True

        assert all(spmd(3, fn))

    def test_concurrent_mappings_exchange_independently(self):
        def fn(comm):
            nprocs, rank = comm.size, comm.rank
            red = Redistributor(comm, ndims=1, dtype=np.float32)
            ring_own, ring_need = ring_layout(nprocs, rank)
            red.setup(own=ring_own, need=ring_need)
            dense_own, dense_need = dense_layout(nprocs, rank)
            dense = red.new_mapping(own=dense_own, need=dense_need)

            data = np.full(1, float(rank), dtype=np.float32)
            for _ in range(2):  # repeat: per-mapping caches must not thrash
                ring_out = red.gather_need([data])
                assert ring_out[0] == (rank + 1) % nprocs
                dense_out = red.gather_need([data], mapping=dense)
                assert np.array_equal(dense_out, np.arange(nprocs, dtype=np.float32))
            return True

        assert all(spmd(4, fn))

    def test_new_mapping_survives_resetup(self):
        def fn(comm):
            nprocs, rank = comm.size, comm.rank
            red = Redistributor(comm, ndims=1, dtype=np.float32)
            dense_own, dense_need = dense_layout(nprocs, rank)
            handle = red.new_mapping(own=dense_own, need=dense_need)
            ring_own, ring_need = ring_layout(nprocs, rank)
            red.setup(own=ring_own, need=ring_need)
            red.setup(own=ring_own, need=ring_need)  # churn the active slot
            assert not handle.stale
            data = np.full(1, float(rank), dtype=np.float32)
            out = red.gather_need([data], mapping=handle)
            assert np.array_equal(out, np.arange(nprocs, dtype=np.float32))
            return True

        assert all(spmd(3, fn))

    def test_stale_error_is_loud_and_specific(self):
        def fn(comm):
            red = Redistributor(comm, ndims=1, dtype=np.float32)
            own, need = ring_layout(comm.size, comm.rank)
            first = red.setup(own=own, need=need)
            red.setup(own=own, need=need)
            data = np.zeros(1, dtype=np.float32)
            out = np.zeros(1, dtype=np.float32)
            try:
                red.exchange([data], out, mapping=first)
            except StaleMappingError as error:
                return str(error)
            return None

        for message in spmd(2, fn):
            assert message is not None
            assert "new_mapping" in message and "setup()" in message
        return None
