"""The four benchmark workloads, driven through the program's public API.

Each workload builds its inputs from the seed, times its set-up several
times, then runs operations until the time is up and checks every output
against an oracle outside the timed region.  In a traced run, operations
alternate between traced and untraced so the tracing overhead is measured
on the same inputs.

Every run uses the defaults users get: thread executor, default engine and
transport, no fault plan, no memory budget, and the pipeline's
``frame_drop="fail"``, ``on_rank_loss="fail"``, ``on_load="ignore"``.
"""

from __future__ import annotations

import itertools
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import repro.intransit.pipeline as pipeline_site
import repro.serve.hub as hub_site
from repro.core import Box, Redistributor
from repro.imaging import TiffStack, VolumeSpec, brain_slice, write_stack
from repro.intransit import PipelineConfig, StreamReceiver, StreamSender, run_pipeline
from repro.io import Assignment, StackGeometry, load_stack_ddr, owned_chunks
from repro.lbm import DistributedLbm, LbmConfig, SerialLbm
from repro.mpisim import Communicator, run_spmd
from repro.serve import ConsumerLayout, FrameHub, SyntheticSource
from repro.viz import BLUE_WHITE_RED, render_scalar_field
from repro.volren import (
    TOOTH_TF,
    composite_distributed,
    composite_over,
    grid_boxes,
    grid_shape,
    render_block,
)

from layers import tail_of
from spans import Tracer, patched

NRANKS = 4

#: Root spans: the benchmark's own per-rank or per-frame work.  Time in
#: them that no layer span covers is unattributed.
ROOT_SPANS = ("bench.rank", "bench.frame", "bench.churn")

# Workload sizes (ledger.json records them with the reason for each).
LBM_NX, LBM_NY, LBM_M, LBM_N, OUTPUT_EVERY, FRAMES_PER_RUN = 512, 256, 2, 2, 10, 8
TIFF_W, TIFF_H, TIFF_D, TIFF_GRID = 256, 256, 128, (2, 2, 1)
SERVE_NX, SERVE_NY, SERVE_M = 512, 256, 2
SERVE_VIEWERS, SERVE_STEADY, SERVE_POOL, SERVE_MAX_LAYOUTS = 200, 6, 20, 12
SERVE_CHURN, SERVE_FPS = 6, 1.5
SETUP_REPS = 5  # set-up timings per run (ddr_timestep: DDR_SETUP_REPS)
DDR_DIMS, DDR_BLOCK, DDR_STEPS_PER_RUN = (256, 256, 128), 8, 60
DDR_SETUP_REPS = 15  # its set-up takes ~20 ms, so it is timed more often


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)  # untraced operations
    traced_op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    traced_ops: int = 0
    errors: list[str] = field(default_factory=list)
    #: workload-specific end-to-end metrics: name -> (value, unit, "n=...")
    named: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    #: per-layer metrics the workload measures itself rather than from spans
    layer_extra: dict[str, float] = field(default_factory=dict)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    tracer: Tracer
    workdir: Path
    run_ids: Any = field(default_factory=lambda: itertools.count(1))


# -- tracing sites ------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _step_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    sim, steps = args[0], _arg(args, kwargs, 1, "n", 1)
    return {"steps": steps, "cells": sim.rows * sim.config.nx * steps}


def _exchange_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    red = args[0]
    need = _arg(args, kwargs, 2, "need_buffer")
    mapping = _arg(args, kwargs, 3, "mapping") or red.mapping
    # Computed from the need box (the buffer DDR fills), not counted.
    return {"bytes": 0 if need is None else need.nbytes, "rounds": mapping.nrounds}


def _encode_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    image = args[0]
    return {"bytes": len(result), "pixels": image.shape[0] * image.shape[1]}


def register_sites(tracer: Tracer) -> None:
    """Wrap each layer function at the name the program calls it by."""
    tracer.site("mpisim.gather", Communicator, "gather")
    tracer.site("mpisim.spawn", hub_site, "world_communicators")
    tracer.site("lbm.step", DistributedLbm, "step", _step_attrs)
    tracer.site("lbm.vorticity", DistributedLbm, "vorticity")
    tracer.site("intransit.send", StreamSender, "send_frame")
    tracer.site("intransit.recv", StreamReceiver, "recv_frame")
    tracer.site("core.setup", Redistributor, "setup")
    tracer.site("core.setup", Redistributor, "new_mapping")
    tracer.site("core.exchange", Redistributor, "exchange", _exchange_attrs)
    tracer.site("viz.render", pipeline_site, "render_scalar_field")
    tracer.site("viz.render", hub_site, "render_scalar_field")
    tracer.site("viz.assemble", pipeline_site, "assemble_tiles")
    tracer.site("jpeg.encode", pipeline_site, "encode_rgb", _encode_attrs)
    tracer.site("jpeg.encode", hub_site, "encode_rgb", _encode_attrs)
    tracer.site(
        "serve.publish", FrameHub, "publish", lambda a, k, r: {"layouts": r}
    )
    tracer.site("serve.register", FrameHub, "register")
    tracer.site(
        "imaging.read", TiffStack, "read_slice", lambda a, k, r: {"bytes": r.nbytes}
    )


def _spmd(ctx: Context, fn: Callable[..., Any], *args: Any) -> list[Any]:
    """``run_spmd`` on NRANKS rank threads, tracing the spawn as a span
    from the call until the last rank starts running ``fn``."""
    run_id = next(ctx.run_ids)
    entered = [0.0] * NRANKS

    def rank_main(comm: Communicator, *rank_args: Any) -> Any:
        entered[comm.rank] = time.perf_counter()
        ctx.tracer.set_lane((run_id, comm.rank))
        return fn(comm, *rank_args)

    started = time.perf_counter()
    results = run_spmd(NRANKS, rank_main, *args)
    ctx.tracer.record("mpisim.spawn", started, max(entered))
    return results


def _operations(ctx: Context, run_op: Callable[[bool], None]) -> None:
    """Run operations until ``ctx.seconds`` pass (at least one); in a
    traced run, every other operation is traced."""
    deadline = time.perf_counter() + ctx.seconds
    for index in itertools.count():
        if index and time.perf_counter() >= deadline:
            return
        traced = ctx.trace and index % 2 == 0
        if traced:
            ctx.tracer.install()
        try:
            run_op(traced)
        finally:
            ctx.tracer.uninstall()


def _record(out: Outcome, traced: bool, samples: list[float]) -> None:
    (out.traced_op_s if traced else out.op_s).extend(samples)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


# -- intransit_lbm ------------------------------------------------------------


def _lbm_reference(lbm: LbmConfig, frame: int, limit: float) -> np.ndarray:
    """Frame ``frame`` rendered from the serial solver."""
    sim = SerialLbm(lbm)
    sim.step(OUTPUT_EVERY * (frame + 1))
    field_ = sim.vorticity().astype(np.float32)
    return render_scalar_field(field_, BLUE_WHITE_RED, -limit, limit, symmetric=True)


def intransit_lbm(ctx: Context) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng(ctx.seed)
    lbm = LbmConfig(
        nx=LBM_NX,
        ny=LBM_NY,
        # Small perturbations: the flow, and so the JPEG work, stays alike.
        u0=float(rng.uniform(0.095, 0.105)),
        viscosity=float(rng.uniform(0.019, 0.021)),
    )
    sample = int(rng.integers(0, 3))

    def config(frames: int) -> PipelineConfig:
        return PipelineConfig(
            lbm=lbm, m=LBM_M, n=LBM_N, steps=OUTPUT_EVERY * frames,
            output_every=OUTPUT_EVERY, keep_frames=True,
        )

    def rank(comm: Communicator, cfg: PipelineConfig) -> Any:
        with ctx.tracer.span("bench.rank"):
            return run_pipeline(comm, cfg)

    def root_of(results: list[Any]) -> Any:
        return next(r for r in results if r.role == "analysis_root")

    # The frame clock: when the analysis root finishes encoding each frame.
    frame_done: list[float] = []

    def clock(encode: Callable) -> Callable:
        def timed(*args: Any, **kwargs: Any) -> bytes:
            blob = encode(*args, **kwargs)
            frame_done.append(time.perf_counter())
            return blob

        return timed

    def check(result: Any, frames: int, sampled: Optional[int]) -> None:
        if result.frames != frames or len(result.frames_rendered) != frames:
            out.fail(frames, f"pipeline produced {result.frames} frames, wanted {frames}")
        elif sampled is not None:
            want = _lbm_reference(lbm, sampled, config(1).vorticity_limit)
            if not np.array_equal(result.frames_rendered[sampled], want):
                out.fail(1, f"frame {sampled} differs from the serial LBM reference")

    with patched(pipeline_site, "encode_rgb", clock):
        for rep in range(SETUP_REPS):
            started = time.perf_counter()
            results = _spmd(ctx, rank, config(1))
            out.setup_s.append(time.perf_counter() - started)
            check(root_of(results), 1, 0 if rep == 0 else None)

        def run_op(traced: bool) -> None:
            frame_done.clear()
            out.attempted += FRAMES_PER_RUN
            try:
                results = _spmd(ctx, rank, config(FRAMES_PER_RUN))
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                out.fail(FRAMES_PER_RUN, f"pipeline raised {exc!r}")
                return
            if traced:
                out.traced_ops += FRAMES_PER_RUN
            _record(out, traced, list(np.diff(frame_done)))
            first = out.attempted == FRAMES_PER_RUN
            check(root_of(results), FRAMES_PER_RUN, sample if first else None)

        _operations(ctx, run_op)

    intervals = out.op_s
    out.named["frames_per_s"] = (
        len(intervals) / sum(intervals) if intervals else float("nan"),
        "frames/s",
        f"n={len(intervals)}",
    )
    return out


# -- tiff_volume --------------------------------------------------------------


def tiff_volume(ctx: Context) -> Outcome:
    out = Outcome()
    spec = VolumeSpec(TIFF_W, TIFF_H, TIFF_D, np.uint16)
    volume = np.empty((TIFF_D, TIFF_H, TIFF_W), dtype=np.uint16)

    def make_slice(z: int) -> np.ndarray:
        volume[z] = brain_slice(spec, z, seed=ctx.seed)
        return volume[z]

    stack = write_stack(ctx.workdir / "stack", TIFF_D, make_slice)
    dims = (TIFF_W, TIFF_H, TIFF_D)
    vmax = float(np.iinfo(np.uint16).max)
    boxes = grid_boxes(dims, TIFF_GRID)

    def image(comm: Communicator) -> tuple:
        comm.Barrier()
        started = time.perf_counter()
        with ctx.tracer.span("bench.rank"):
            with ctx.tracer.span("io.load"):
                block = load_stack_ddr(comm, stack, TIFF_GRID, Assignment.ROUND_ROBIN)
            loaded = time.perf_counter()
            with ctx.tracer.span("volren.render"):
                partial = render_block(block.data, TOOTH_TF, vmin=0.0, vmax=vmax)
            with ctx.tracer.span("volren.composite"):
                frame = composite_distributed(comm, block.box, partial, dims)
        return started, loaded, time.perf_counter(), block.box, block.data, frame

    def oracle_block(box: Box) -> np.ndarray:
        x, y, z = box.offset
        w, h, d = box.dims
        return volume[z : z + d, y : y + h, x : x + w]

    def reference_image() -> np.ndarray:
        """Render the oracle blocks and composite them front to back."""
        frame = np.zeros((TIFF_H, TIFF_W, 4))
        for box in sorted(boxes, key=lambda b: b.offset[2]):
            tile = render_block(oracle_block(box), TOOTH_TF, vmin=0.0, vmax=vmax)
            (x, y, _), (w, h, _) = box.offset, box.dims
            frame[y : y + h, x : x + w] = composite_over(frame[y : y + h, x : x + w], tile)
        return frame

    def check(results: list[tuple], with_image: bool) -> None:
        for rank, (_, _, _, box, data, _) in enumerate(results):
            if box != boxes[rank] or not np.array_equal(data, oracle_block(box)):
                out.fail(1, f"rank {rank} block differs from numpy slicing")
                return
        if with_image and not np.array_equal(results[0][5], reference_image()):
            out.fail(1, "composited image differs from the oracle-block render")

    for rep in range(SETUP_REPS):
        started = time.perf_counter()
        results = _spmd(ctx, image)
        out.setup_s.append(time.perf_counter() - started)
        check(results, rep == 0)

    loads: list[float] = []
    sample = int(np.random.default_rng(ctx.seed).integers(1, 4))

    def run_op(traced: bool) -> None:
        out.attempted += 1
        try:
            results = _spmd(ctx, image)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            out.fail(1, f"load/render raised {exc!r}")
            return
        if traced:
            out.traced_ops += 1
        start = min(r[0] for r in results)
        _record(out, traced, [max(r[2] for r in results) - start])
        if not traced:
            loads.append(max(r[1] for r in results) - start)
        check(results, out.attempted == sample)

    _operations(ctx, run_op)
    out.named["load_s_p50"] = (_median(loads), "s", f"n={len(loads)}")
    out.named["image_s_p50"] = (_median(out.op_s), "s", f"n={len(out.op_s)}")
    return out


# -- serve_fanout -------------------------------------------------------------


def _layout_pool(rng: np.random.Generator) -> list[ConsumerLayout]:
    """The full frame first, then distinct ROI/mip/parts layouts.

    Sizes, mip levels and part counts are the same for every seed, so every
    seed encodes about the same pixels per frame; the seed places the ROIs.
    """
    shapes = np.random.default_rng(0)
    pool = [ConsumerLayout.make(SERVE_NX, SERVE_NY)]
    keys = {pool[0].canonical_key()}
    while len(pool) < SERVE_POOL:
        w = int(shapes.integers(64, SERVE_NX + 1))
        h = int(shapes.integers(32, SERVE_NY + 1))
        mip, parts = int(shapes.integers(0, 3)), int(shapes.integers(1, 5))
        while True:
            layout = ConsumerLayout.make(
                SERVE_NX, SERVE_NY, w=w, h=h, mip=mip, parts=parts,
                x=int(rng.integers(0, SERVE_NX - w + 1)),
                y=int(rng.integers(0, SERVE_NY - h + 1)),
            )
            if layout.canonical_key() not in keys:
                break
        keys.add(layout.canonical_key())
        pool.append(layout)
    return pool


def serve_fanout(ctx: Context) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng(ctx.seed)
    pool = _layout_pool(rng)
    steady = [pool[i % SERVE_STEADY] for i in rng.permutation(SERVE_VIEWERS - SERVE_CHURN)]
    churn_pool = [
        pool[SERVE_STEADY + int(i)] for i in rng.permutation(SERVE_POOL - SERVE_STEADY)
    ]

    def churn_layout(frame: int, slot: int) -> ConsumerLayout:
        # Consecutive frames draw disjoint tail layouts, and steady plus
        # churned layouts fill the cache exactly: each frame builds and
        # evicts SERVE_CHURN layouts while the steady ones stay cached.
        return churn_pool[(frame * SERVE_CHURN + slot) % len(churn_pool)]

    cohort = [churn_layout(0, slot) for slot in range(SERVE_CHURN)]
    first_frame = int(rng.integers(0, 1000))
    source = SyntheticSource(SERVE_NX, SERVE_NY, m=SERVE_M)

    def open_hub(slabs: list) -> tuple[FrameHub, list, list]:
        hub = FrameHub(SERVE_NX, SERVE_NY, m=SERVE_M, max_layouts=SERVE_MAX_LAYOUTS)
        fixed = [hub.register(layout) for layout in steady]
        churning = [hub.register(layout) for layout in cohort]
        hub.publish(first_frame, slabs)
        return hub, fixed, churning

    def drain(queues: list) -> None:
        for queue in queues:
            while queue.try_pop() is not None:
                pass

    for _ in range(SETUP_REPS):
        slabs = source.slabs(first_frame)
        started = time.perf_counter()
        hub, fixed, churning = open_hub(slabs)
        out.setup_s.append(time.perf_counter() - started)
        hub.close()

    if ctx.trace:
        ctx.tracer.phase = "setup"
        ctx.tracer.install()
    try:
        hub, fixed, churning = open_hub(source.slabs(first_frame))
    finally:
        ctx.tracer.uninstall()
        ctx.tracer.phase = "op"
    drain(fixed + churning)
    before = hub.stats()["mapping_cache"]
    period = 1.0 / SERVE_FPS
    first_due = time.perf_counter() + period
    count = itertools.count()
    lateness: list[float] = []

    def run_op(traced: bool) -> None:
        k = next(count)
        frame = first_frame + 1 + k
        slabs = source.slabs(frame)
        with ctx.tracer.span("bench.churn"):
            for slot, queue in enumerate(churning):
                hub.unregister(queue)
                churning[slot] = hub.register(churn_layout(k + 1, slot))
        due = first_due + k * period
        while (wait := due - time.perf_counter()) > 0:
            time.sleep(wait)
        out.attempted += 1
        started = time.perf_counter()
        try:
            with ctx.tracer.span("bench.frame"):
                hub.publish(frame, slabs)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            out.fail(1, f"publish raised {exc!r}")
            return
        done = time.perf_counter()
        if traced:
            out.traced_ops += 1
            lateness.append(started - due)
        _record(out, traced, [done - due])
        queues = fixed + churning
        stale = []
        for queue in queues:
            got = queue.try_pop()
            if got is None or got.index != frame or got.shape != queue.layout.frame_shape():
                stale.append(queue.viewer_id)
        if stale:
            out.fail(1, f"frame {frame}: viewers {stale[:5]} do not hold it")
        drain(queues)

    _operations(ctx, run_op)

    after = hub.stats()["mapping_cache"]
    hits, misses = after["hits"] - before["hits"], after["misses"] - before["misses"]
    out.layer_extra["serve.mapping_hit_ratio"] = hits / max(hits + misses, 1)
    out.layer_extra["serve.lateness_ms"] = 1e3 * _median(lateness) if lateness else 0.0

    # hub.view must equal the numpy crop + mip of the last frame's field.
    final = first_frame + out.attempted
    slabs = source.slabs(final)
    field_ = np.concatenate(slabs, axis=0)
    live = {q.layout.canonical_key(): q.layout for q in fixed + churning}
    for layout in live.values():
        x, y = layout.roi.offset
        w, h = layout.roi.dims
        want = field_[y : y + h, x : x + w][:: layout.step, :: layout.step]
        if not np.array_equal(hub.view(layout, slabs), want):
            out.fail(1, f"hub.view differs from numpy for {layout.describe()}")
    hub.close()

    n = len(out.op_s)
    tail, percentile = tail_of(out.op_s)
    out.named["latency_ms_p50"] = (1e3 * _median(out.op_s), "ms", f"n={n}")
    out.named["latency_ms_tail"] = (
        1e3 * tail, "ms", f"p{percentile:g}, n={n}" if percentile else f"n={n} <= 10"
    )
    return out


# -- ddr_timestep -------------------------------------------------------------


def ddr_timestep(ctx: Context) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng(ctx.seed)
    width, height, depth = DDR_DIMS
    base = rng.random((depth, height, width), dtype=np.float32)
    geometry = StackGeometry(width, height, depth, 4)
    needs = grid_boxes(DDR_DIMS, grid_shape(NRANKS, DDR_DIMS))
    step_bytes = sum(box.volume() * 4 for box in needs)  # computed from boxes
    mid_step = int(rng.integers(1, DDR_STEPS_PER_RUN - 1))

    def crop(box: Box) -> np.ndarray:
        x, y, z = box.offset
        w, h, d = box.dims
        return base[z : z + d, y : y + h, x : x + w]

    def mapped(comm: Communicator) -> tuple[Redistributor, list[Box], Box]:
        own = owned_chunks(
            geometry, NRANKS, comm.rank, Assignment.BLOCK_CYCLIC, block=DDR_BLOCK
        )
        red = Redistributor(comm, ndims=3, dtype=np.float32)
        red.setup(own=own, need=needs[comm.rank])
        return red, own, needs[comm.rank]

    def setup_only(comm: Communicator) -> float:
        mapped(comm)
        return time.perf_counter()

    def steps(comm: Communicator, count: int, samples: tuple) -> tuple:
        red, own, need = mapped(comm)
        sources = [crop(box) for box in own]
        buffers = [np.empty(box.np_shape(), dtype=np.float32) for box in own]
        result = np.empty(need.np_shape(), dtype=np.float32)
        stamps, kept = [], []
        comm.Barrier()
        with ctx.tracer.span("bench.rank"):
            for step in range(count):
                started = time.perf_counter()
                with ctx.tracer.span("bench.refill"):
                    for src, buf in zip(sources, buffers):
                        np.add(src, np.float32(step), out=buf)
                red.exchange(buffers, result)
                stamps.append((started, time.perf_counter()))
                if step in samples:
                    kept.append((step, result.copy()))
        return stamps, kept, need

    for _ in range(DDR_SETUP_REPS):
        started = time.perf_counter()
        ends = _spmd(ctx, setup_only)
        out.setup_s.append(max(ends) - started)

    moved = [0.0, 0.0]  # bytes, seconds of step loop

    def run_op(traced: bool) -> None:
        samples = (DDR_STEPS_PER_RUN - 1,) + ((mid_step,) if out.attempted == 0 else ())
        out.attempted += DDR_STEPS_PER_RUN
        try:
            results = _spmd(ctx, steps, DDR_STEPS_PER_RUN, samples)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            out.fail(DDR_STEPS_PER_RUN, f"exchange raised {exc!r}")
            return
        if traced:
            out.traced_ops += DDR_STEPS_PER_RUN
        stamps = results[0][0]
        _record(out, traced, [end - start for start, end in stamps])
        if not traced:
            moved[0] += step_bytes * len(stamps)
            moved[1] += stamps[-1][1] - stamps[0][0]
        for rank, (_, kept, need) in enumerate(results):
            for step, got in kept:
                if not np.array_equal(got, crop(need) + np.float32(step)):
                    out.fail(1, f"rank {rank} step {step} differs from numpy slicing")

    _operations(ctx, run_op)
    out.named["exchange_gib_s"] = (
        moved[0] / 2**30 / moved[1] if moved[1] else float("nan"),
        "GiB/s",
        f"n={len(out.op_s)}",
    )
    return out


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "intransit_lbm": intransit_lbm,
    "tiff_volume": tiff_volume,
    "serve_fanout": serve_fanout,
    "ddr_timestep": ddr_timestep,
}
