"""One driver, three modes: fixed, shrink-on-rank-loss and scheduled resize.

Every mode runs the same frame loop, so every mode must honour the same
frame-drop contract.  A scripted tag-scoped delay holds back exactly one
slab (sim rank 0, last frame) past its receive deadline: under ``skip``
the frame is dropped, a ``fault.frame_drop`` span records it, and the
end-of-run straggler sweep drains the late slab from the mailbox, whatever
the reconfiguration mode.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, FaultSpec, ReliabilityPolicy, fault_plan
from repro.intransit import FRAME_DROP_SKIP, PipelineConfig, frame_tag, run_pipeline
from repro.lbm import LbmConfig
from repro.obs import tracing
from tests.conftest import spmd

FRAMES = 3
LATE_FRAME = FRAMES - 1

POLICY = ReliabilityPolicy(backoff_base_s=0.0001, backoff_cap_s=0.001)

MODES = {
    "fixed": {},
    "shrink": {"on_rank_loss": "shrink"},
    "resize": {"on_load": "resize", "resize_schedule": ((1, 2, 1),)},
}


def _config(mode: str) -> PipelineConfig:
    return PipelineConfig(
        lbm=LbmConfig(nx=32, ny=16), m=2, n=1, steps=5 * FRAMES,
        output_every=5, frame_drop=FRAME_DROP_SKIP, frame_deadline_s=0.2,
        reliability=POLICY, **MODES[mode],
    )


@pytest.mark.parametrize("mode", sorted(MODES))
def test_late_last_frame_is_dropped_and_purged(mode):
    config = _config(mode)
    plan = FaultPlan(
        seed=0, nranks=3,
        events=(
            FaultSpec(kind="delay", rank=0, tag=frame_tag(LATE_FRAME), delay_s=0.3),
        ),
    )
    with tracing() as tracer, fault_plan(plan, POLICY):
        results = spmd(3, lambda comm: run_pipeline(comm, config))
    root = results[2]
    assert root.role == "analysis_root"
    assert root.frames == FRAMES
    assert root.frames_dropped == 1
    assert root.slabs_purged == 1
    drops = [r for r in tracer.records() if r.name == "fault.frame_drop"]
    assert [r.attrs.get("frame") for r in drops] == [LATE_FRAME]
