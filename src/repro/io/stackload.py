"""Parallel TIFF-stack loading for distributed volume rendering (use case 1).

Three executable strategies, mirroring the paper's Table II columns:

* :func:`load_stack_no_ddr` — every rank reads and decodes **every** slice
  its needed block touches, then crops (the traditional approach: "many
  processes loading the same image ... throwing away much of the data").
* :func:`load_stack_ddr` — slices are read exactly once, divided among the
  ranks round-robin or consecutively, and DDR redistributes the pixels to
  the near-cubic blocks DVR needs.

All strategies return the same per-rank block, so the test suite can assert
bit-equality between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.api import Redistributor
from ..core.box import Box
from ..imaging.stack import TiffStack
from ..imaging.tiff import read_tiff_info
from ..mpisim.comm import Communicator
from ..obs.tracer import TRACER
from ..utils.timing import Timer
from ..volren.decompose import grid_boxes
from .assignment import Assignment, StackGeometry, owned_chunks


def stack_geometry(stack: TiffStack) -> StackGeometry:
    """Derive the series geometry from the files on disk."""
    indices = stack.indices()
    if not indices:
        raise FileNotFoundError(f"no slices found in {stack.directory}")
    with open(stack.slice_path(indices[0]), "rb") as handle:
        info = read_tiff_info(handle.read())
    return StackGeometry(
        width=info.width,
        height=info.height,
        n_images=len(indices),
        bytes_per_pixel=info.dtype.itemsize,
    )


@dataclass
class LoadedBlock:
    """One rank's result: its needed block and where it sits in the volume."""

    box: Box  # paper-order (x, y, z) geometry
    data: np.ndarray  # C-order (z, y, x) array
    read_s: float  # wall seconds in ``phase.read``
    exchange_s: float = 0.0  # wall seconds in ``phase.redistribute``


def _crop(image: np.ndarray, box: Box) -> np.ndarray:
    """Extract a block's (x, y) footprint from one decoded slice."""
    x0, y0 = box.offset[0], box.offset[1]
    w, h = box.dims[0], box.dims[1]
    return image[y0 : y0 + h, x0 : x0 + w]


def load_stack_no_ddr(
    comm: Communicator,
    stack: TiffStack,
    grid: tuple[int, int, int],
) -> LoadedBlock:
    """Baseline loader: whole-slice decode per rank, per touched slice."""
    geometry = stack_geometry(stack)
    need = grid_boxes(geometry.volume_dims, grid)[comm.rank]
    z0, depth = need.offset[2], need.dims[2]
    planes = []
    with TRACER.span("phase.read", strategy="no_ddr", slices=depth), Timer() as read:
        for z in range(z0, z0 + depth):
            image = stack.read_slice(z)  # full decode, mostly discarded
            planes.append(np.ascontiguousarray(_crop(image, need)))
    data = np.stack(planes)
    return LoadedBlock(box=need, data=data, read_s=read.elapsed)


def load_stack_ddr(
    comm: Communicator,
    stack: TiffStack,
    grid: tuple[int, int, int],
    strategy: Assignment = Assignment.CONSECUTIVE,
    backend: str = "alltoallw",
) -> LoadedBlock:
    """DDR loader: balanced single-read of each slice, then redistribution."""
    geometry = stack_geometry(stack)
    need = grid_boxes(geometry.volume_dims, grid)[comm.rank]
    chunks = owned_chunks(geometry, comm.size, comm.rank, strategy)

    dtype = None
    buffers: list[np.ndarray] = []
    with TRACER.span("phase.read", strategy=strategy.name.lower()), Timer() as read:
        for chunk in chunks:
            z0, depth = chunk.offset[2], chunk.dims[2]
            planes = [stack.read_slice(z) for z in range(z0, z0 + depth)]
            block = np.stack(planes)
            dtype = block.dtype
            buffers.append(block)
    if dtype is None:  # rank owns no slices (more ranks than images)
        probe = stack.read_slice(0)
        dtype = probe.dtype

    with TRACER.span("phase.redistribute", backend=backend), Timer() as exchange:
        red = Redistributor(comm, ndims=3, dtype=dtype, backend=backend)
        red.setup(own=chunks, need=need)
        data = np.empty(need.np_shape(), dtype=dtype)
        red.exchange(buffers, data)

    return LoadedBlock(
        box=need, data=data, read_s=read.elapsed, exchange_s=exchange.elapsed
    )
