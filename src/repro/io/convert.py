"""Parallel TIFF-stack -> bricked-volume conversion via DDR.

The paper's introduction: "Our research could be integrated into such
packages [ParaView] to enable on-the-fly conversion from data formats that
are laid out in an otherwise incompatible fashion."  This module is that
converter: readers share the slice-decode work evenly, DDR redistributes
pixels from whole slices to brick-aligned slabs, and every rank writes its
own bricks (disjoint fixed offsets, safe concurrently).
"""

from __future__ import annotations

import numpy as np

from ..core.api import Redistributor
from ..core.box import Box
from ..imaging.bricks import BrickedVolume
from ..imaging.stack import TiffStack
from ..mpisim.comm import Communicator
from ..utils.timing import Timer
from ..volren.decompose import split_extent
from .assignment import Assignment, owned_chunks
from .stackload import stack_geometry


def brick_layer_ranges(n_layers: int, nprocs: int, rank: int) -> tuple[int, int]:
    """Contiguous block of brick z-layers assigned to ``rank`` (may be empty
    when there are more ranks than layers)."""
    if n_layers >= nprocs:
        offset, size = split_extent(n_layers, nprocs)[rank]
        return offset, offset + size
    if rank < n_layers:
        return rank, rank + 1
    return 0, 0


def convert_stack_to_bricks(
    comm: Communicator,
    stack: TiffStack,
    out_path,
    brick: int = 32,
    strategy: Assignment = Assignment.CONSECUTIVE,
) -> dict[str, float]:
    """Collective conversion; returns this rank's ``{phase: seconds}``
    (``read``, ``exchange``, ``write``, plus ``allocate`` on rank 0).

    Each rank's *need* is a slab of whole brick z-layers, so after one DDR
    exchange it can cut bricks locally and write them at their fixed file
    offsets.
    """
    geometry = stack_geometry(stack)
    phases: dict[str, float] = {}

    # Rank 0 allocates the output file; everyone else waits.
    if comm.rank == 0:
        with Timer() as allocate:
            probe = stack.read_slice(stack.indices()[0])
            BrickedVolume.create(
                out_path, geometry.volume_dims, probe.dtype, brick=brick
            )
        phases["allocate"] = allocate.elapsed
    comm.Barrier()
    volume = BrickedVolume(out_path)
    header = volume.header

    # Balanced slice reads (the DDR producer side).
    chunks = owned_chunks(geometry, comm.size, comm.rank, strategy)
    buffers: list[np.ndarray] = []
    with Timer() as read:
        for chunk in chunks:
            z0, depth = chunk.offset[2], chunk.dims[2]
            buffers.append(np.stack([stack.read_slice(z) for z in range(z0, z0 + depth)]))
    phases["read"] = read.elapsed

    # Needs: whole brick z-layers, contiguous per rank (consumer side).
    gx, gy, gz = header.grid
    layer_lo, layer_hi = brick_layer_ranges(gz, comm.size, comm.rank)
    z_lo = layer_lo * brick
    z_hi = min(layer_hi * brick, geometry.n_images)
    if z_hi > z_lo:
        need = Box((0, 0, z_lo), (geometry.width, geometry.height, z_hi - z_lo))
    else:
        need = None

    with Timer() as exchange:
        red = Redistributor(comm, ndims=3, dtype=header.dtype)
        red.setup(own=chunks, need=need)
        slab = red.gather_need(buffers)
    phases["exchange"] = exchange.elapsed

    with Timer() as write:
        if slab is not None:
            for k in range(layer_lo, layer_hi):
                for j in range(gy):
                    for i in range(gx):
                        box = header.brick_box(i, j, k)
                        x0, y0, z0 = box.offset
                        w, h, d = box.dims
                        data = slab[
                            z0 - z_lo : z0 - z_lo + d, y0 : y0 + h, x0 : x0 + w
                        ]
                        volume.write_brick(i, j, k, np.ascontiguousarray(data))
    phases["write"] = write.elapsed
    comm.Barrier()  # conversion is complete for everyone
    return phases
