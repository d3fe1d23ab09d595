"""Slab-decomposed distributed LBM solver.

Bitwise-equivalent to :class:`~repro.lbm.simulation.SerialLbm` (the test
suite asserts exact equality): collision is elementwise, streaming uses the
same rolls with ghost rows supplying neighbor data, and the periodic wrap
traffic lands only in boundary rows that the inflow condition overwrites.
"""

from __future__ import annotations

import numpy as np

from ..mpisim.comm import Communicator
from .d2q9 import D2Q9Kernel, macroscopics
from .decompose import slab_rows
from .fields import vorticity
from .halo import exchange_ghost_rows
from .simulation import LbmConfig


class DistributedLbm:
    """One rank's slab of the simulation (rows ``[y0, y1)`` plus ghosts)."""

    def __init__(self, comm: Communicator, config: LbmConfig) -> None:
        if comm.size > config.ny:
            raise ValueError(
                f"{comm.size} ranks need at least one row each (ny = {config.ny})"
            )
        self.comm = comm
        self.config = config
        self.y0, self.y1 = slab_rows(config.ny, comm.size, comm.rank)
        self.rows = self.y1 - self.y0
        # Interior rows 1..rows; ghost rows 0 and rows+1.
        self.solid = config.barrier_mask((self.y0, self.y1))
        self.f = config.inflow_equilibrium(self.rows + 2)
        self._kernel = D2Q9Kernel(self.solid, config.omega, halo=1)
        self._edge = config.inflow_equilibrium(1)[:, 0, :]  # (9, nx)
        self.step_count = 0

    @property
    def interior(self) -> np.ndarray:
        """View of the interior populations ``(9, rows, nx)``."""
        return self.f[:, 1:-1, :]

    def step(self, n: int = 1) -> None:
        kernel, f, interior = self._kernel, self.f, self.interior
        for _ in range(n):
            kernel.collide(interior)
            exchange_ghost_rows(self.comm, f)
            kernel.stream(f)
            kernel.bounce_back(interior)
            self._apply_boundaries()
            self.step_count += 1

    def _apply_boundaries(self) -> None:
        edge = self._edge
        col = edge[:, :1]
        interior = self.interior
        interior[:, :, 0] = col
        interior[:, :, -1] = col
        if self.y0 == 0:
            interior[:, 0, :] = edge
        if self.y1 == self.config.ny:
            interior[:, -1, :] = edge

    # -- observables ----------------------------------------------------------

    def macroscopics(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interior density/velocity, ``(rows, nx)`` each."""
        rho, ux, uy = macroscopics(self.interior)
        return rho, ux, uy

    def vorticity(self) -> np.ndarray:
        """Interior vorticity matching the serial solver row-for-row.

        Central differences need one neighbor row on each side; ghost rows
        provide it except at the global domain edges, where the serial
        solver's one-sided differences are reproduced by trimming.
        """
        # Refresh ghosts so velocity at slab borders is current.
        exchange_ghost_rows(self.comm, self.f)
        lo = 1 if self.y0 == 0 else 0
        hi = -1 if self.y1 == self.config.ny else None
        window = self.f[:, lo:hi, :] if hi is not None else self.f[:, lo:, :]
        _, ux, uy = macroscopics(window)
        curl = vorticity(ux, uy)
        start = 1 - lo  # rows of curl preceding our first interior row
        return curl[start : start + self.rows]
