"""Plan persistence: roundtrip, file I/O, and reuse by a fresh descriptor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Box,
    DDR_ReorganizeData,
    DataDescriptor,
    attach_loaded_plan,
    compute_global_plan,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    save_plan,
)
from tests.conftest import spmd


def e1_plan():
    owns = [[Box((0, r), (8, 1)), Box((0, r + 4), (8, 1))] for r in range(4)]
    needs = [Box((4 * (r % 2), 4 * (r // 2)), (4, 4)) for r in range(4)]
    return compute_global_plan(owns, needs, element_size=4)


class TestRoundtrip:
    def test_dict_roundtrip_is_lossless(self):
        plan = e1_plan()
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored.nprocs == plan.nprocs
        assert restored.ndims == plan.ndims
        assert restored.element_size == plan.element_size
        assert restored.nrounds == plan.nrounds
        for a, b in zip(restored.rank_plans, plan.rank_plans):
            assert a.rank == b.rank
            assert a.own_chunks == b.own_chunks
            assert a.need == b.need
            assert a.sends == b.sends
            assert a.recvs == b.recvs

    def test_statistics_survive(self):
        plan = e1_plan()
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored.total_bytes_moved() == plan.total_bytes_moved()
        assert np.array_equal(restored.traffic_matrix(), plan.traffic_matrix())

    def test_none_need_roundtrip(self):
        plan = compute_global_plan(
            [[Box((0,), (4,))], [Box((4,), (4,))]], [Box((0,), (8,)), None], 1
        )
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored.rank_plans[1].need is None

    def test_file_roundtrip(self, tmp_path):
        plan = e1_plan()
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        restored = load_plan(path)
        assert restored.rank_plans[0].sends == plan.rank_plans[0].sends

    def test_version_checked(self):
        data = plan_to_dict(e1_plan())
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            plan_from_dict(data)


class TestAttachLoadedPlan:
    def test_reorganize_with_precomputed_plan(self, tmp_path):
        """Full cached-mapping workflow: plan offline, save, reload, run —
        skipping the collective setup entirely."""
        path = tmp_path / "plan.json"
        save_plan(path, e1_plan())

        def fn(comm):
            plan = load_plan(path)
            desc = DataDescriptor.create(4, 2, np.float32)
            attach_loaded_plan(desc, plan, comm.rank)
            g = np.arange(64, dtype=np.float32).reshape(8, 8)
            need = np.zeros((4, 4), dtype=np.float32)
            DDR_ReorganizeData(
                comm, 4, [g[comm.rank].copy(), g[comm.rank + 4].copy()], need, desc
            )
            r = comm.rank
            expect = g[4 * (r // 2) : 4 * (r // 2) + 4, 4 * (r % 2) : 4 * (r % 2) + 4]
            assert np.array_equal(need, expect)
            return True

        assert all(spmd(4, fn))

    def test_mismatches_rejected(self):
        plan = e1_plan()
        with pytest.raises(ValueError, match="ranks"):
            attach_loaded_plan(DataDescriptor.create(8, 2, np.float32), plan, 0)
        with pytest.raises(ValueError, match="-D"):
            attach_loaded_plan(DataDescriptor.create(4, 3, np.float32), plan, 0)
        with pytest.raises(ValueError, match="element size"):
            attach_loaded_plan(DataDescriptor.create(4, 2, np.float64), plan, 0)
