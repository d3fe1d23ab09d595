"""Serial LBM driver: flow past a barrier (the paper's evaluation flow).

"For our evaluation tests, we place a barrier inside the domain that forces
the fluid to flow around it, creating more turbulent flow patterns."

The serial simulation is both a usable solver and the bitwise reference for
the slab-decomposed distributed solver in ``distributed.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .d2q9 import D2Q9Kernel, equilibrium, macroscopics, omega_from_viscosity
from .fields import vorticity


@dataclass(frozen=True)
class LbmConfig:
    """Domain + physics of one run.

    ``nx x ny`` lattice, west-to-east inflow ``u0``, kinematic viscosity
    ``viscosity``.  ``obstacle`` selects the solid geometry: ``"bar"`` (the
    paper's barrier — a one-cell vertical segment at ``barrier_x`` spanning
    ``[barrier_y0, barrier_y1)``), ``"circle"`` (a cylinder, the classic
    Kármán-street setup), or ``"none"``.
    """

    nx: int
    ny: int
    u0: float = 0.1
    viscosity: float = 0.02
    obstacle: str = "bar"

    @property
    def omega(self) -> float:
        return omega_from_viscosity(self.viscosity)

    @property
    def barrier_x(self) -> int:
        return max(self.nx // 4, 1)

    @property
    def barrier_y0(self) -> int:
        return self.ny // 3

    @property
    def barrier_y1(self) -> int:
        return max(self.ny - self.ny // 3, self.barrier_y0 + 1)

    @property
    def circle_center(self) -> tuple[float, float]:
        return (self.nx / 4.0, self.ny / 2.0)

    @property
    def circle_radius(self) -> float:
        return max(self.ny / 6.0, 1.0)

    def __post_init__(self) -> None:
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"domain {self.nx}x{self.ny} too small (min 4x4)")
        if not (0 < self.u0 < 0.3):
            raise ValueError(f"u0 = {self.u0} outside the stable range (0, 0.3)")
        if self.obstacle not in ("bar", "circle", "none"):
            raise ValueError(
                f"obstacle must be 'bar', 'circle' or 'none', got {self.obstacle!r}"
            )
        _ = self.omega  # validates viscosity

    def barrier_mask(self, y_range: tuple[int, int] | None = None) -> np.ndarray:
        """Solid mask ``(rows, nx)``; ``y_range`` selects a slab of rows.

        A pure function of global coordinates, so slab-decomposed ranks
        compute masks consistent with the serial solver.
        """
        y_lo, y_hi = (0, self.ny) if y_range is None else y_range
        mask = np.zeros((y_hi - y_lo, self.nx), dtype=bool)
        if self.obstacle == "bar":
            lo = max(self.barrier_y0, y_lo)
            hi = min(self.barrier_y1, y_hi)
            if lo < hi:
                mask[lo - y_lo : hi - y_lo, self.barrier_x] = True
        elif self.obstacle == "circle":
            cx, cy = self.circle_center
            r2 = self.circle_radius**2
            ys = np.arange(y_lo, y_hi)[:, None]
            xs = np.arange(self.nx)[None, :]
            mask |= (xs - cx) ** 2 + (ys - cy) ** 2 <= r2
        return mask

    def inflow_equilibrium(self, rows: int) -> np.ndarray:
        """Equilibrium populations of the uniform inflow, ``(9, rows, nx)``."""
        rho = np.ones((rows, self.nx))
        ux = np.full((rows, self.nx), self.u0)
        uy = np.zeros((rows, self.nx))
        return equilibrium(rho, ux, uy)


class SerialLbm:
    """Whole-domain reference solver."""

    def __init__(self, config: LbmConfig) -> None:
        self.config = config
        self.solid = config.barrier_mask()
        self.f = config.inflow_equilibrium(config.ny)
        self._kernel = D2Q9Kernel(self.solid, config.omega)
        self._edge = config.inflow_equilibrium(1)[:, 0, :]  # (9, nx)
        self.step_count = 0

    def step(self, n: int = 1) -> None:
        kernel, f = self._kernel, self.f
        for _ in range(n):
            kernel.collide(f)
            kernel.stream(f)
            kernel.bounce_back(f)
            self._apply_boundaries()
            self.step_count += 1

    def _apply_boundaries(self) -> None:
        """Re-impose uniform inflow on all four domain borders."""
        edge = self._edge
        self.f[:, 0, :] = edge
        self.f[:, -1, :] = edge
        col = edge[:, :1]  # (9, 1) uniform value per direction
        self.f[:, :, 0] = col
        self.f[:, :, -1] = col

    # -- observables --------------------------------------------------------

    def macroscopics(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return macroscopics(self.f)

    def vorticity(self) -> np.ndarray:
        _, ux, uy = self.macroscopics()
        return vorticity(ux, uy)
