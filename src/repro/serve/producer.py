"""Frame sources feeding the serving hub.

Both sources present the same shape the in-transit analysis side sees:
per frame, a list of ``m`` float32 slab arrays matching
``slab_box(nx, ny, m, rank)`` — exactly the producer decomposition the
hub's DDR mappings redistribute from.  Slab buffers are persistent and
refilled in place, so the steady-state publish loop allocates nothing and
the hub's per-mapping BufferCaches hit on buffer identity every frame.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..core.box import Box
from ..lbm.decompose import slab_box
from ..lbm.simulation import LbmConfig, SerialLbm
from ..obs.tracer import TRACER

__all__ = ["LbmSource", "SyntheticSource"]


class _SlabSource:
    def __init__(self, nx: int, ny: int, m: int) -> None:
        self.nx, self.ny, self.m = int(nx), int(ny), int(m)
        self.boxes: list[Box] = [slab_box(nx, ny, m, rank) for rank in range(m)]
        self._slabs = [
            np.empty(box.np_shape(), dtype=np.float32) for box in self.boxes
        ]

    def _split(self, field: np.ndarray) -> Sequence[np.ndarray]:
        """Refill the persistent slab buffers from a full (ny, nx) field."""
        for box, slab in zip(self.boxes, self._slabs):
            y0 = box.offset[1]
            slab[...] = field[y0 : y0 + box.dims[1], :]
        return self._slabs


class SyntheticSource(_SlabSource):
    """Deterministic frames for tests and load benchmarks: a smooth field
    whose value at every cell is a pure function of (frame, x, y), so any
    frame can be recomputed independently for bitwise verification."""

    def __init__(self, nx: int, ny: int, m: int = 1) -> None:
        super().__init__(nx, ny, m)
        ys, xs = np.meshgrid(
            np.arange(ny, dtype=np.float32),
            np.arange(nx, dtype=np.float32),
            indexing="ij",
        )
        self._xs, self._ys = xs, ys
        self._field = np.empty((ny, nx), dtype=np.float32)

    def field(self, frame_index: int) -> np.ndarray:
        np.sin(
            0.3 * self._xs + 0.17 * frame_index,
            out=self._field,
        )
        self._field *= np.cos(0.2 * self._ys - 0.05 * frame_index)
        return self._field

    def slabs(self, frame_index: int) -> Sequence[np.ndarray]:
        return self._split(self.field(frame_index))

    def frames(self, n_frames: int) -> Iterator[tuple[int, Sequence[np.ndarray]]]:
        for index in range(n_frames):
            yield index, self.slabs(index)


class LbmSource(_SlabSource):
    """Live physics: the serial lattice-Boltzmann solver stepped between
    frames, streaming its vorticity field — the paper's variable of
    interest — through the hub."""

    def __init__(
        self, nx: int, ny: int, m: int = 1, steps_per_frame: int = 10
    ) -> None:
        super().__init__(nx, ny, m)
        self.steps_per_frame = int(steps_per_frame)
        self._sim = SerialLbm(LbmConfig(nx=nx, ny=ny))

    def frames(self, n_frames: int) -> Iterator[tuple[int, Sequence[np.ndarray]]]:
        for index in range(n_frames):
            with TRACER.span("serve.sim_step", frame=index, steps=self.steps_per_frame):
                self._sim.step(self.steps_per_frame)
            field = np.asarray(self._sim.vorticity(), dtype=np.float32)
            yield index, self._split(field)
