"""Chaos harness: randomized fault schedules against the full stack.

Each run draws a seeded :class:`~repro.faults.plan.FaultPlan`, installs it,
and drives a real workload — a slab-to-tile redistribution cycled across
every engine × transport combination, with an in-transit pipeline run mixed
in — then demands one of exactly two outcomes:

* **bitwise-correct output** (the self-healing machinery absorbed every
  fault; degraded pipeline frames are counted, not failed), or
* **a clean, typed error** (an :class:`~repro.mpisim.errors.MpiSimError`
  subclass naming what gave up — crash, exhausted retries, unhealable
  corruption, or a per-op deadline on a dropped message).

A hang (:class:`~repro.mpisim.executor.SpmdHangError`), a bare untyped
exception, or silently wrong output fails the run.  ``python -m repro
chaos`` drives this from the command line and CI.

This module imports the whole runtime and is therefore *not* re-exported
from :mod:`repro.faults` (the transport imports that package at module
level).
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from ..core.api import Redistributor
from ..core.box import Box
from ..intransit.pipeline import PipelineConfig, PipelineResult, run_pipeline
from ..lbm.decompose import slab_box
from ..lbm.simulation import LbmConfig
from ..mpisim.comm import TRANSPORT_PACKED, TRANSPORT_SHM, TRANSPORT_ZEROCOPY, Communicator
from ..mpisim.errors import MpiSimError, RankCrashError
from ..mpisim.executor import RankFailure, SpmdHangError, run_spmd
from ..resilience import ResilientRedistributor
from ..utils.membudget import MEMORY_BUDGET, budget_scope
from ..volren.decompose import grid_boxes, grid_shape
from .injector import FAULTS, fault_plan
from .plan import FaultPlan
from .policy import ReliabilityPolicy

__all__ = ["ChaosReport", "ChaosRun", "run_chaos"]

BACKENDS = ("alltoallw", "p2p", "auto")
TRANSPORTS = (TRANSPORT_PACKED, TRANSPORT_ZEROCOPY)

#: Memory-chaos runs cycle :data:`BACKENDS` on the thread executor and the
#: staged transport only: the budget ledger lives in this process, and only
#: staged payloads consume budgeted staging memory (zero-copy rounds stage
#: nothing).  ``alltoallw`` must surface a typed ``MemoryBudgetError`` when
#: a round cannot fit; ``p2p`` lowers rounds into budget-sized pieces and
#: ``auto`` picks between the two per round.
MEMORY_COMBO = ("thread", TRANSPORT_PACKED)

#: Memory-chaos field: big enough that lanes exceed the lowering's 64 KiB
#: minimum piece size, so tight budgets actually force sub-round lowering
#: rather than only ledger checks.
MEMORY_NX, MEMORY_NY = 256, 128

#: Budgets sweep from the full measured unbounded peak down to this
#: fraction of it as the run index advances — the "shrinking budget" axis.
MEMORY_MIN_FRACTION = 0.15

#: Probe limit (effectively unbounded) used to *measure* each workload's
#: staging peak before the sweep applies pressure.
PROBE_BUDGET_MB = 1024

#: executor × transport combinations the plain-exchange sweep cycles
#: through.  The process executor runs the shm transport (its only bulk
#: transport); the crash and pipeline sweeps stay on the thread executor —
#: their recovery machinery (buddy checkpoints on ``fabric.shared``) needs
#: one address space.
COMBOS = (
    ("thread", TRANSPORT_PACKED),
    ("thread", TRANSPORT_ZEROCOPY),
    ("process", TRANSPORT_SHM),
)

#: Outcome labels.
OK = "ok"  # bitwise-correct output, all faults absorbed
RECOVERED = "recovered"  # a rank crashed; survivors shrank and finished bitwise-correct
DEGRADED = "degraded"  # completed by dropping/staling frames or stale restores
TYPED_ERROR = "typed-error"  # a clean MpiSimError subclass surfaced
FAILED = "failed"  # hang, bare exception, or silent corruption

#: Every ``PIPELINE_EVERY``-th run drives the in-transit pipeline instead
#: of the plain redistribution workload.
PIPELINE_EVERY = 5

#: Watchdog budget for one chaos run: short enough that a hang fails fast,
#: long enough that injected delays and backoff never trip it spuriously.
DEADLOCK_TIMEOUT_S = 8.0

#: Default recovery policy for chaos runs: a tight per-op deadline so a
#: dropped message surfaces in under a second, and short backoffs so a
#: 50-run sweep stays fast.
CHAOS_POLICY = ReliabilityPolicy(
    max_retries=3,
    backoff_base_s=0.0005,
    backoff_cap_s=0.005,
    op_deadline_s=1.0,
    frame_deadline_s=0.5,
)


class ChaosVerificationError(AssertionError):
    """The exchange 'succeeded' but produced wrong bytes — the one outcome
    the fault fabric must never allow."""


@dataclass
class ChaosRun:
    """Outcome of one randomized schedule."""

    index: int
    seed: int
    workload: str  # "redistribute" | "pipeline"
    backend: str
    transport: str
    outcome: str  # OK | RECOVERED | DEGRADED | TYPED_ERROR | FAILED
    executor: str = "thread"  # "thread" | "process"
    error: str = ""  # exception type (and message head) when not OK
    injected: int = 0  # faults the plan actually fired
    duration_s: float = 0.0
    budget_bytes: int = 0  # staging budget applied (0 = unbudgeted run)
    peak_bytes: int = 0  # measured staging peak under that budget
    stats: dict = field(default_factory=dict)  # fault-layer counter snapshot

    @property
    def passed(self) -> bool:
        return self.outcome != FAILED

    def to_dict(self) -> dict:
        out = asdict(self)
        out["passed"] = self.passed
        return out


@dataclass
class ChaosReport:
    """Aggregate over a chaos sweep; ``passed`` is the CI gate."""

    runs: list[ChaosRun] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.runs) and all(run.passed for run in self.runs)

    def count(self, outcome: str) -> int:
        return sum(1 for run in self.runs if run.outcome == outcome)

    def summary(self) -> str:
        lines = [
            f"chaos: {len(self.runs)} runs — {self.count(OK)} ok, "
            f"{self.count(RECOVERED)} recovered, {self.count(DEGRADED)} "
            f"degraded, {self.count(TYPED_ERROR)} typed errors, "
            f"{self.count(FAILED)} failed"
        ]
        for run in self.runs:
            if not run.passed:
                lines.append(
                    f"  FAILED run {run.index} (seed {run.seed}, {run.workload}, "
                    f"{run.backend}/{run.transport}): {run.error}"
                )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Machine-readable sweep summary (``python -m repro chaos --json``)."""
        return {
            "passed": self.passed,
            "counts": {
                outcome: self.count(outcome)
                for outcome in (OK, RECOVERED, DEGRADED, TYPED_ERROR, FAILED)
            },
            "runs": [run.to_dict() for run in self.runs],
        }


# -- workloads ----------------------------------------------------------------


def _reference(nx: int, ny: int) -> np.ndarray:
    """Global field with a unique value per cell (bitwise comparisons)."""
    return np.arange(nx * ny, dtype=np.float32).reshape(ny, nx)


def _extract(reference: np.ndarray, box: Box) -> np.ndarray:
    ox, oy = box.offset
    h, w = box.np_shape()
    return reference[oy : oy + h, ox : ox + w]


def _exchange_worker(
    comm: Communicator, nx: int, ny: int, backend: str, transport: str,
    generations: int,
) -> bool:
    """Slab-to-tile redistribution, verified bitwise every generation."""
    rank = comm.rank
    own_box = slab_box(nx, ny, comm.size, rank)
    need_box = grid_boxes((nx, ny), grid_shape(comm.size, (nx, ny)))[rank]
    red = Redistributor(
        comm, ndims=2, dtype=np.float32, backend=backend, transport=transport
    )
    red.setup(own=[own_box], need=need_box)
    reference = _reference(nx, ny)
    base_own = np.ascontiguousarray(_extract(reference, own_box))
    base_expect = _extract(reference, need_box)
    for generation in range(1, generations + 1):
        own = base_own * np.float32(generation)
        out = red.gather_need([own], fill=-1.0)
        expect = base_expect * np.float32(generation)
        if not np.array_equal(out, expect):
            raise ChaosVerificationError(
                f"rank {rank} generation {generation}: exchange output does "
                f"not match the reference (silent corruption)"
            )
    return True


def _resilient_exchange_worker(
    comm: Communicator, nx: int, ny: int, backend: str, transport: str,
    generations: int,
) -> tuple[int, bool]:
    """Crash-surviving slab-to-tile redistribution.

    Regenerates data for *every* current own box each generation (adopted
    boxes included), so a recovered run is verified bitwise against the
    no-fault reference.  Regions the recovery had to restore from an older
    checkpoint epoch (``stale_boxes``) are masked out of the comparison
    and reported as degradation instead.  Returns ``(recoveries,
    degraded)``.
    """
    rank = comm.rank
    own_box = slab_box(nx, ny, comm.size, rank)
    need_box = grid_boxes((nx, ny), grid_shape(comm.size, (nx, ny)))[rank]
    red = ResilientRedistributor(
        comm, ndims=2, dtype=np.float32, backend=backend, transport=transport
    )
    red.setup([own_box], need_box)
    reference = _reference(nx, ny)
    expect_base = _extract(reference, need_box)
    degraded = False
    for generation in range(1, generations + 1):
        scale = np.float32(generation)
        buffers = [
            np.ascontiguousarray(_extract(reference, box)) * scale
            for box in red.own_boxes
        ]
        out = red.gather_need(buffers, fill=-1.0)
        expect = expect_base * scale
        mask = np.ones(expect.shape, dtype=bool)
        if red.stale_boxes:
            degraded = True
            for box in red.stale_boxes:
                overlap = box.intersect(need_box)
                if overlap is None:
                    continue
                r0, c0 = overlap.np_starts_within(need_box)
                h, w = overlap.np_shape()
                mask[r0 : r0 + h, c0 : c0 + w] = False
        if not np.array_equal(out[mask], expect[mask]):
            raise ChaosVerificationError(
                f"rank {rank} generation {generation}: recovered exchange "
                f"output does not match the reference (silent corruption)"
            )
    return red.recoveries, degraded


#: Resize-chaos geometry: exchange epochs per run and how far above
#: ``nprocs`` the seeded schedule may grow the world (spawn headroom).
RESIZE_GENERATIONS = 6
RESIZE_HEADROOM = 2

#: Resize sweeps stay on the thread executor — the schedule mixes grows
#: (rank spawn) and shrinks, and the point is the resize protocol under
#: transient faults, not the transport matrix.
RESIZE_COMBOS = (
    ("thread", TRANSPORT_PACKED),
    ("thread", TRANSPORT_ZEROCOPY),
)


def _chaos_slab(nx: int, ny: int, rank: int, n: int) -> Box:
    """``layout(rank, n)`` callable for resize: row slabs of the field."""
    return slab_box(nx, ny, n, rank)


def _declare_slab_to_tile(rr: ResilientRedistributor, nx: int, ny: int) -> None:
    own = slab_box(nx, ny, rr.comm.size, rr.comm.rank)
    need = grid_boxes((nx, ny), grid_shape(rr.comm.size, (nx, ny)))[rr.comm.rank]
    rr.setup([own], need)


def _resize_epochs(
    rr: ResilientRedistributor, nx: int, ny: int, generations: int,
    schedule: tuple,
) -> tuple[str, int]:
    """Shared epoch loop for resize chaos: stayers continue it, spawned
    joiners enter it (at the members' epoch), leavers return out of it.

    Every generation's slab-to-tile exchange is verified bitwise; every
    scheduled resize additionally verifies the migrated slab bitwise on
    every member — a resize that lands wrong bytes is silent corruption
    and fails the run.
    """
    reference = _reference(nx, ny)
    sched = dict(schedule)
    applied = 0
    while rr.epoch < generations:
        scale = np.float32(rr.epoch + 1)
        need_box = grid_boxes(
            (nx, ny), grid_shape(rr.comm.size, (nx, ny))
        )[rr.comm.rank]
        buffers = [
            np.ascontiguousarray(_extract(reference, box)) * scale
            for box in rr.own_boxes
        ]
        out = rr.gather_need(buffers, fill=-1.0)
        if not np.array_equal(out, _extract(reference, need_box) * scale):
            raise ChaosVerificationError(
                f"rank {rr.comm.rank} generation {int(scale)}: exchange "
                f"output does not match the reference (silent corruption)"
            )
        target = sched.get(rr.epoch)
        if target is not None and target != rr.comm.size:
            buffers = [
                np.ascontiguousarray(_extract(reference, box)) * scale
                for box in rr.own_boxes
            ]
            result = rr.resize(
                target,
                buffers,
                partial(_chaos_slab, nx, ny),
                worker=_resize_join,
                worker_args=(nx, ny, generations, schedule),
            )
            applied += 1
            if not result.member:
                return ("left", applied)
            migrated = result.data.reshape(result.own.np_shape())
            if not np.array_equal(
                migrated, _extract(reference, result.own) * scale
            ):
                raise ChaosVerificationError(
                    f"rank {rr.comm.rank}: resize to {target} migrated "
                    f"wrong bytes (silent corruption)"
                )
            _declare_slab_to_tile(rr, nx, ny)
    return ("done", applied)


def _resize_join(
    rr: ResilientRedistributor, result, nx: int, ny: int, generations: int,
    schedule: tuple,
) -> tuple[str, int]:
    """Spawned-rank entry: verify the adopted slab, then join the loop."""
    reference = _reference(nx, ny)
    migrated = result.data.reshape(result.own.np_shape())
    expect = _extract(reference, result.own) * np.float32(rr.epoch)
    if not np.array_equal(migrated, expect):
        raise ChaosVerificationError(
            f"spawned rank {rr.comm.rank} adopted wrong bytes "
            f"(silent corruption)"
        )
    _declare_slab_to_tile(rr, nx, ny)
    return _resize_epochs(rr, nx, ny, generations, schedule)


def _resize_worker(
    comm: Communicator, nx: int, ny: int, backend: str, transport: str,
    generations: int, schedule: tuple,
) -> tuple[str, int]:
    rr = ResilientRedistributor(
        comm, ndims=2, dtype=np.float32, backend=backend, transport=transport
    )
    _declare_slab_to_tile(rr, nx, ny)
    return _resize_epochs(rr, nx, ny, generations, schedule)


def _resize_schedule(
    plan_seed: int, nprocs: int, generations: int, max_ranks: int
) -> tuple:
    """Seeded ``(epoch, new_n)`` points; every point changes the size."""
    meta = random.Random(plan_seed * 7919 + 17)
    points = sorted(meta.sample(range(1, generations), k=2))
    current = nprocs
    schedule = []
    for epoch in points:
        target = meta.choice(
            [s for s in range(2, max_ranks + 1) if s != current]
        )
        schedule.append((epoch, target))
        current = target
    return tuple(schedule)


def _resize_pipeline_config(
    backend: str, frame_drop: str, plan_seed: int
) -> PipelineConfig:
    """Elastic (``on_load="resize"``) pipeline run with a seeded schedule."""
    meta = random.Random(plan_seed * 104729 + 3)
    splits = [(2, 2), (3, 1), (2, 1), (4, 1), (3, 2)]
    current = (3, 2)
    schedule = []
    for frame in (1, 3):
        choice = meta.choice([s for s in splits if s != current])
        schedule.append((frame, *choice))
        current = choice
    return PipelineConfig(
        lbm=LbmConfig(nx=32, ny=16),
        m=3,
        n=2,
        steps=20,
        output_every=5,
        backend=backend,
        frame_drop=frame_drop,
        frame_deadline_s=0.5,
        reliability=CHAOS_POLICY,
        on_load="resize",
        resize_schedule=tuple(schedule),
    )


def _pipeline_worker(comm: Communicator, config: PipelineConfig):
    result = run_pipeline(comm, config)
    # Degraded-mode leak check: abandoned-frame stragglers must be purged,
    # not left to accumulate in the fabric's mailboxes.  The bound allows a
    # straggler per (variable, sim rank) for a final in-flight frame or two
    # (a message can land after the end-of-run sweep); unbounded growth
    # over a long skip/stale run trips this immediately.
    depth = comm.fabric.mailbox_depth(world_rank=comm.world_rank_of(comm.rank))
    bound = 2 * max(1, len(config.variables)) * config.m
    if depth > bound:
        raise ChaosVerificationError(
            f"mailbox leak: rank {comm.rank} still holds {depth} queued "
            f"messages after a {config.frame_drop!r} pipeline run "
            f"(bound {bound}); abandoned frames are not being purged"
        )
    if MEMORY_BUDGET.active:
        # Staging-budget counterpart of the mailbox bound: every frame this
        # rank staged must have been released by delivery or by the
        # abandoned-frame purge, except charges still held by the straggler
        # allowance above (one full-field frame per allowed message).
        world = comm.world_rank_of(comm.rank)
        resident = MEMORY_BUDGET.used_bytes(world)
        frame_bytes = config.lbm.nx * config.lbm.ny * np.dtype(np.float64).itemsize
        if resident > bound * frame_bytes:
            raise ChaosVerificationError(
                f"staging leak: rank {comm.rank} still holds {resident} "
                f"budgeted bytes after a {config.frame_drop!r} pipeline run "
                f"(bound {bound * frame_bytes}); abandoned-frame staging is "
                f"not being released"
            )
    return result


def _pipeline_config(backend: str, frame_drop: str) -> PipelineConfig:
    return PipelineConfig(
        lbm=LbmConfig(nx=32, ny=16),
        m=2,
        n=2,
        steps=10,
        output_every=5,
        backend=backend,
        frame_drop=frame_drop,
        frame_deadline_s=0.5,
        reliability=CHAOS_POLICY,
    )


def _crash_pipeline_config(backend: str, frame_drop: str) -> PipelineConfig:
    # m=3 so a single simulation-rank death still leaves m' >= n.
    return PipelineConfig(
        lbm=LbmConfig(nx=32, ny=16),
        m=3,
        n=2,
        steps=10,
        output_every=5,
        backend=backend,
        frame_drop=frame_drop,
        frame_deadline_s=0.5,
        reliability=CHAOS_POLICY,
        on_rank_loss="shrink",
    )


def _crash_plan(plan_seed: int, nranks: int, ops: int, window: int) -> FaultPlan:
    """A single-crash schedule: one victim, one kill point, nothing else.

    ``window`` caps the kill point so it lands inside the workload's actual
    op count (the exchange performs far fewer transport ops than a full
    pipeline run); a crash point past the end would never fire.
    """
    meta = random.Random(plan_seed)
    return FaultPlan(
        seed=plan_seed,
        nranks=nranks,
        ops=ops,
        crash_rank=meta.randrange(nranks),
        crash_at_op=meta.randrange(3, max(4, min(ops, window))),
    )


# -- the sweep ----------------------------------------------------------------


def _memory_peaks(nprocs: int) -> dict[str, int]:
    """Measure each memory-chaos workload's unbounded staging peak.

    One clean (fault-free) probe run per workload under an effectively
    infinite budget: the ledger tracks without ever binding, and its
    high-water mark is the peak the shrinking sweep budgets against.
    """
    from ..core.plan import compute_global_plan
    from ..core.schedule import global_schedules

    peaks: dict[str, int] = {}
    with budget_scope(limit_mb=PROBE_BUDGET_MB):
        run_spmd(
            nprocs, _exchange_worker, MEMORY_NX, MEMORY_NY,
            "alltoallw", TRANSPORT_PACKED, 3,
        )
        measured = MEMORY_BUDGET.peak_bytes()
    # The strict engines guard on the schedule's *conservative* per-round
    # estimate (sends staged + receives in flight at once), which the
    # timing-dependent measured peak undercuts; budget against the larger
    # of the two so the full-fraction runs admit every backend.
    shape = (MEMORY_NX, MEMORY_NY)
    tiles = grid_boxes(shape, grid_shape(nprocs, shape))
    plan = compute_global_plan(
        [[slab_box(MEMORY_NX, MEMORY_NY, nprocs, r)] for r in range(nprocs)],
        [tiles[r] for r in range(nprocs)],
        element_size=4,
    )
    estimated = max(
        (rnd.max_round_bytes for s in global_schedules(plan) for rnd in s.rounds),
        default=0,
    )
    peaks["redistribute"] = max(measured, estimated)
    config = _pipeline_config("alltoallw", "skip")
    with budget_scope(limit_mb=PROBE_BUDGET_MB):
        run_spmd(config.m + config.n, _pipeline_worker, config)
        # Frame staging is concurrent and timing-dependent; double the
        # probe's high-water mark so the full-fraction runs have headroom.
        peaks["pipeline"] = 2 * MEMORY_BUDGET.peak_bytes()
    return peaks


def _classify_failure(exc: BaseException) -> tuple[str, str]:
    """Map an escaped exception to (outcome, description)."""
    original = exc.original if isinstance(exc, RankFailure) else exc
    head = str(original).splitlines()[0][:160] if str(original) else ""
    label = f"{type(original).__name__}: {head}"
    if isinstance(original, ChaosVerificationError):
        return FAILED, label
    if isinstance(exc, SpmdHangError) or isinstance(original, SpmdHangError):
        return FAILED, label
    if isinstance(original, MpiSimError):
        return TYPED_ERROR, label
    return FAILED, label


def run_chaos(
    seed: int = 0,
    runs: int = 50,
    ops: int = 200,
    nprocs: int = 4,
    log=None,
    crashes: bool = False,
    resizes: bool = False,
    memory: bool = False,
) -> ChaosReport:
    """Sweep ``runs`` randomized fault schedules; see the module docstring.

    Run ``i`` uses plan seed ``seed + i`` and cycles through every
    engine × transport combination; every :data:`PIPELINE_EVERY`-th run
    drives the in-transit pipeline (alternating the ``skip`` and ``stale``
    frame-drop policies) instead of the plain redistribution.

    With ``crashes=True`` every plan is a seeded *single-crash* schedule
    (one victim rank, one kill point, no other faults) and the workloads
    run their crash-surviving variants — :class:`ResilientRedistributor`
    and the shrink-mode pipeline.  A run where the victim actually died
    must end recovered-bitwise-correct (:data:`RECOVERED`), degraded by
    policy (:data:`DEGRADED`), or with a typed error; a hang or silent
    corruption still fails the run.

    With ``resizes=True`` every plan draws only *self-healing* fault
    families (no crashes, no drops) and the workloads exercise the
    voluntary resize path instead: a seeded mid-epoch resize schedule
    (grows that spawn ranks, shrinks that retire them) against
    :meth:`ResilientRedistributor.resize`, plus elastic
    (``on_load="resize"``) pipeline runs.  Every generation — and every
    migrated slab — must be bitwise-correct or surface a typed error.

    With ``memory=True`` every run executes under a staging
    :class:`~repro.utils.membudget.MemoryBudget` that shrinks from each
    workload's measured unbounded peak (a fault-free probe run) down to
    :data:`MEMORY_MIN_FRACTION` of it across the sweep, the plans draw
    self-healing families plus seeded ``alloc`` faults, and every run uses
    the staged transport.  Acceptable endings are bitwise-correct output
    (the p2p/auto engines lowered their rounds under the budget),
    degraded-by-policy frames, or a typed ``MemoryBudgetError`` — never an
    OOM kill or a hang.
    """
    if nprocs < 2:
        raise ValueError(f"chaos needs nprocs >= 2, got {nprocs}")
    if sum((crashes, resizes, memory)) > 1:
        raise ValueError("crashes, resizes, and memory modes are mutually exclusive")
    peaks = _memory_peaks(nprocs) if memory else {}
    report = ChaosReport()
    for index in range(runs):
        plan_seed = seed + index
        backend = BACKENDS[index % len(BACKENDS)]
        executor, transport = COMBOS[(index // len(BACKENDS)) % len(COMBOS)]
        if memory:
            executor, transport = MEMORY_COMBO
        if resizes:
            executor, transport = RESIZE_COMBOS[
                (index // len(BACKENDS)) % len(RESIZE_COMBOS)
            ]
        elif crashes or index % PIPELINE_EVERY == PIPELINE_EVERY - 1:
            # Crash recovery and the pipeline need the shared-memory
            # blackboard (buddy checkpoints); keep those on threads.
            if executor == "process":
                executor, transport = "thread", TRANSPORT_PACKED
        is_pipeline = index % PIPELINE_EVERY == PIPELINE_EVERY - 1
        schedule: tuple = ()
        if is_pipeline:
            drop = "skip" if (index // PIPELINE_EVERY) % 2 == 0 else "stale"
            if resizes:
                config = _resize_pipeline_config(backend, drop, plan_seed)
            else:
                config = (
                    _crash_pipeline_config if crashes else _pipeline_config
                )(backend, drop)
            world_size = config.m + config.n
        else:
            config = None
            world_size = nprocs
        # The pipeline tolerates frame loss by policy; crashes there are
        # still allowed (they surface typed or recovered), but drops are
        # the interesting stimulus.  The plain exchange gets the full
        # fault menu; crash mode narrows it to one scripted death, and
        # resize mode narrows it to the self-healing families so bitwise
        # completion is the expected outcome.
        if crashes:
            window = 90 if is_pipeline else 20
            plan = _crash_plan(plan_seed, world_size, ops, window)
        elif resizes:
            plan = FaultPlan.random(
                plan_seed, nprocs, ops=ops,
                allow_crash=False, allow_drop=False,
            )
        elif memory:
            plan = FaultPlan.random(
                plan_seed, world_size, ops=ops,
                allow_crash=False, allow_drop=False, allow_alloc=True,
            )
        else:
            plan = FaultPlan.random(plan_seed, nprocs, ops=ops)
        budget_bytes = 0
        if memory:
            # The shrinking axis: full measured peak on run 0 down to
            # MEMORY_MIN_FRACTION of it on the last run.
            frac = 1.0 - (1.0 - MEMORY_MIN_FRACTION) * (index / max(1, runs - 1))
            workload_peak = peaks["pipeline" if is_pipeline else "redistribute"]
            budget_bytes = max(4096, int(workload_peak * frac))
        nx, ny = (MEMORY_NX, MEMORY_NY) if memory else (16, 8)
        outcome, error, injected = OK, "", 0
        run_peak = 0
        stats: dict = {}
        started = time.perf_counter()
        try:
            with fault_plan(plan, CHAOS_POLICY), (
                budget_scope(limit_bytes=budget_bytes)
                if budget_bytes
                else nullcontext()
            ):
                try:
                    if is_pipeline:
                        results = run_spmd(
                            world_size,
                            _pipeline_worker,
                            config,
                            resilient=crashes,
                            deadlock_timeout=DEADLOCK_TIMEOUT_S,
                        )
                        outcome = _classify_pipeline(results)
                    elif resizes:
                        schedule = _resize_schedule(
                            plan_seed, nprocs, RESIZE_GENERATIONS,
                            nprocs + RESIZE_HEADROOM,
                        )
                        results = run_spmd(
                            nprocs,
                            _resize_worker,
                            16,
                            8,
                            backend,
                            transport,
                            RESIZE_GENERATIONS,
                            schedule,
                            deadlock_timeout=DEADLOCK_TIMEOUT_S,
                            spawn_slots=nprocs + RESIZE_HEADROOM,
                        )
                        outcome = _classify_resize(results, schedule)
                    elif crashes:
                        results = run_spmd(
                            nprocs,
                            _resilient_exchange_worker,
                            16,
                            8,
                            backend,
                            transport,
                            3,
                            resilient=True,
                            deadlock_timeout=DEADLOCK_TIMEOUT_S,
                        )
                        outcome = _classify_exchange(results)
                    else:
                        run_spmd(
                            nprocs,
                            _exchange_worker,
                            nx,
                            ny,
                            backend,
                            transport,
                            3,
                            deadlock_timeout=DEADLOCK_TIMEOUT_S,
                            executor=executor,
                        )
                finally:
                    injected = FAULTS.stats.total_injected()
                    stats = FAULTS.stats.snapshot()
                    if budget_bytes:
                        run_peak = MEMORY_BUDGET.peak_bytes()
        except (RankFailure, SpmdHangError, MpiSimError) as exc:
            outcome, error = _classify_failure(exc)
        except Exception as exc:  # noqa: BLE001 - bare exceptions fail the run
            outcome, error = FAILED, f"{type(exc).__name__}: {exc}"
        if is_pipeline:
            workload = "pipeline-resize" if resizes else "pipeline"
        else:
            workload = "resize" if resizes else "redistribute"
        run = ChaosRun(
            index=index,
            seed=plan_seed,
            workload=workload,
            backend=backend,
            transport=transport,
            outcome=outcome,
            executor=executor,
            error=error,
            injected=injected,
            duration_s=time.perf_counter() - started,
            budget_bytes=budget_bytes,
            peak_bytes=run_peak,
            stats=stats,
        )
        report.runs.append(run)
        if log is not None:
            mark = "PASS" if run.passed else "FAIL"
            log(
                f"[{mark}] run {index:3d} seed {plan_seed} "
                f"{run.workload:<12} {backend:<9} {executor:<7} {transport:<8} "
                f"{outcome:<11} inj={injected:<3d} {run.duration_s:.2f}s"
                + (f" bud={budget_bytes} peak={run_peak}" if budget_bytes else "")
                + (f"  {error}" if error else "")
            )
    return report


def _classify_exchange(results: list) -> str:
    """Outcome of a resilient exchange run (no exception escaped)."""
    crashed = any(isinstance(r, RankCrashError) for r in results)
    survivors = [r for r in results if not isinstance(r, RankCrashError)]
    if any(degraded for _, degraded in survivors):
        return DEGRADED
    if crashed or any(recoveries for recoveries, _ in survivors):
        return RECOVERED
    return OK


def _classify_resize(results: list, schedule: tuple) -> str:
    """Outcome of a resize run (no exception escaped).

    Beyond per-rank bitwise checks (raised inside the workers), require
    that the whole schedule was applied: rank 0 stays a member throughout
    (every target is >= 2), so its counter must equal the schedule length.
    """
    outcomes = [r for r in results if isinstance(r, tuple) and len(r) == 2]
    if not outcomes:
        raise ChaosVerificationError("resize run returned no rank outcomes")
    applied = max(count for _, count in outcomes)
    if applied != len(schedule):
        raise ChaosVerificationError(
            f"resize schedule only partially applied: {applied} of "
            f"{len(schedule)} resizes"
        )
    return OK


def _classify_pipeline(results: list) -> str:
    """Outcome of a pipeline run (no exception escaped)."""
    crashed = any(isinstance(r, RankCrashError) for r in results)
    root = next(
        r
        for r in results
        if isinstance(r, PipelineResult) and r.role == "analysis_root"
    )
    if root.frames_dropped or root.frames_stale:
        return DEGRADED
    if crashed or root.recoveries:
        return RECOVERED
    return OK
