"""D2Q9 lattice-Boltzmann kernels (paper §IV-B's "simple Lattice Boltzmann
method for computing fluid flows in a two-dimensional space").

Arrays are ``(9, ny, nx)`` with the direction index first.  Everything here
is pure NumPy elementwise/copy arithmetic, which is what makes the slab-
decomposed distributed run bitwise-identical to the serial one (tested).

:class:`D2Q9Kernel` is the one implementation of the step arithmetic.  It
owns a workspace of ``(rows, nx)`` planes, so a solver that builds it once
steps without allocating population-sized arrays.  The free functions
(:func:`collide`, :func:`stream`, ...) route through the same code with a
throwaway workspace.

The kernel reproduces the textbook vectorized formulation bit for bit
(``tests/lbm/test_kernel_oracle.py`` keeps a frozen copy of it).  Every
element sees the same float64 operations in the same order:

* ``rho`` is the sequential sum ``f0 + f1 + ... + f8``; ``ux`` and ``uy``
  drop the ``0 * f`` terms of ``sum(c_i f_i)`` (adding ``+0.0`` is exact)
  and subtract where ``c_i = -1`` (multiplying by ``-1.0`` is exact).
* ``cu`` of a direction and of its opposite differ only in sign, and
  negation is exact, so the pair shares ``3 cu`` and ``(4.5 cu) cu``:
  ``1 + 3(-cu)`` is ``1 - 3cu`` bit for bit.
* The bracket keeps its order ``((1 + 3cu) + (4.5cu)cu) - 1.5usq``, then
  ``(rho w) * bracket``, then ``f + omega (feq - f)``.
"""

from __future__ import annotations

import numpy as np

#: Direction vectors (cx, cy): rest, E, N, W, S, NE, NW, SW, SE.
CX = np.array([0, 1, 0, -1, 0, 1, -1, -1, 1], dtype=np.int64)
CY = np.array([0, 0, 1, 0, -1, 1, 1, -1, -1], dtype=np.int64)

#: Quadrature weights.
W = np.array(
    [4 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 36, 1 / 36, 1 / 36, 1 / 36],
    dtype=np.float64,
)

#: Index of the opposite direction (for bounce-back).
OPPOSITE = np.array([0, 3, 4, 1, 2, 7, 8, 5, 6], dtype=np.int64)

N_DIRS = 9

#: Moving directions paired with their opposites; the first of each pair
#: has ``cu`` = ux, uy, ux + uy and uy - ux respectively.
_PAIRS = ((1, 3), (2, 4), (5, 7), (6, 8))


def omega_from_viscosity(viscosity: float) -> float:
    """BGK relaxation rate: ``omega = 1 / (3 nu + 1/2)``."""
    if viscosity <= 0:
        raise ValueError(f"viscosity must be positive, got {viscosity}")
    return 1.0 / (3.0 * viscosity + 0.5)


def _shift_copies(shift: int) -> tuple[tuple[slice, slice], ...]:
    """``(destination, source)`` slice pairs of a periodic shift along one
    axis, as ``np.roll`` performs it."""
    if shift == 0:
        return ((slice(None), slice(None)),)
    return (
        (slice(shift, None), slice(None, -shift)),
        (slice(None, shift), slice(-shift, None)),
    )


#: Per moving direction, the 2-D slice-pair copies of its streaming shift.
_STREAM_COPIES = tuple(
    tuple(
        ((ydst, xdst), (ysrc, xsrc))
        for ydst, ysrc in _shift_copies(int(CY[i]))
        for xdst, xsrc in _shift_copies(int(CX[i]))
    )
    for i in range(N_DIRS)
)


class _Planes:
    """Scratch ``(rows, nx)`` float64 planes for one lattice shape."""

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.rho, self.inv, self.ux, self.uy = (np.empty(shape) for _ in range(4))
        self.usq15, self.cu, self.cu3, self.quad, self.out = (
            np.empty(shape) for _ in range(5)
        )
        #: ``rho * w`` for the rest, axis and diagonal weight classes.
        self.rho_w = np.empty((3, *shape))


def _macroscopics_into(f: np.ndarray, ws: _Planes) -> None:
    """``rho``, ``1/rho``, ``ux`` and ``uy`` of ``f`` into the workspace."""
    rho, inv, ux, uy = ws.rho, ws.inv, ws.ux, ws.uy
    np.add(f[0], f[1], out=rho)
    for i in range(2, N_DIRS):
        np.add(rho, f[i], out=rho)
    np.divide(1.0, rho, out=inv)
    np.subtract(f[1], f[3], out=ux)
    np.add(ux, f[5], out=ux)
    np.subtract(ux, f[6], out=ux)
    np.subtract(ux, f[7], out=ux)
    np.add(ux, f[8], out=ux)
    np.multiply(ux, inv, out=ux)
    np.subtract(f[2], f[4], out=uy)
    np.add(uy, f[5], out=uy)
    np.add(uy, f[6], out=uy)
    np.subtract(uy, f[7], out=uy)
    np.subtract(uy, f[8], out=uy)
    np.multiply(uy, inv, out=uy)


def _equilibrium_planes(ws: _Planes):
    """Yield ``(i, feq_i)`` from the workspace's ``rho``, ``ux`` and ``uy``.

    ``feq_i`` is always the ``ws.out`` plane; the caller may overwrite it
    before asking for the next direction.
    """
    rho, ux, uy = ws.rho, ws.ux, ws.uy
    usq15, cu, cu3, quad, out, rho_w = (
        ws.usq15, ws.cu, ws.cu3, ws.quad, ws.out, ws.rho_w,
    )
    np.multiply(ux, ux, out=usq15)
    np.multiply(uy, uy, out=out)
    np.add(usq15, out, out=usq15)
    np.multiply(usq15, 1.5, out=usq15)
    for k, weight in enumerate((W[0], W[1], W[5])):
        np.multiply(rho, weight, out=rho_w[k])
    # Rest particle: cu is zero, so the bracket is exactly 1 - 1.5 usq.
    np.subtract(1.0, usq15, out=out)
    np.multiply(rho_w[0], out, out=out)
    yield 0, out
    for i, j in _PAIRS:
        if i == 1:
            u = ux
        elif i == 2:
            u = uy
        elif i == 5:
            u = np.add(ux, uy, out=cu)
        else:
            u = np.subtract(uy, ux, out=cu)
        weights = rho_w[1 if i < 5 else 2]
        np.multiply(u, 3.0, out=cu3)
        np.multiply(u, 4.5, out=quad)
        np.multiply(quad, u, out=quad)
        for direction, sign in ((i, np.add), (j, np.subtract)):
            sign(1.0, cu3, out=out)
            np.add(out, quad, out=out)
            np.subtract(out, usq15, out=out)
            np.multiply(weights, out, out=out)
            yield direction, out


class D2Q9Kernel:
    """The D2Q9 step arithmetic over one preallocated workspace.

    ``solid`` is the ``(rows, nx)`` barrier mask of the region that
    collides; ``halo`` ghost rows on each side extend the region that
    streams (the distributed solver streams its ghosts too).  The mask is
    read live, so edits to it take effect on the next step.  Apart from the
    barrier-cell indices and gathers, a step allocates nothing.
    """

    def __init__(self, solid: np.ndarray, omega: float, halo: int = 0) -> None:
        rows, nx = solid.shape
        self.solid = solid
        self.omega = float(omega)
        self._planes = _Planes((rows, nx))
        self._stream_plane = np.empty((rows + 2 * halo, nx))

    def _cells(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ys, xs)`` of the barrier cells."""
        return np.divmod(np.flatnonzero(self.solid), self.solid.shape[1])

    def collide(self, f: np.ndarray) -> None:
        """In-place BGK collision; barrier cells keep their populations."""
        ws, omega = self._planes, self.omega
        cells = self._cells()
        _macroscopics_into(f, ws)
        for i, update in _equilibrium_planes(ws):
            fi = f[i]
            np.subtract(update, fi, out=update)
            np.multiply(update, omega, out=update)
            update[cells] = 0.0
            np.add(fi, update, out=fi)

    def stream(self, f: np.ndarray) -> None:
        """In-place periodic streaming of ``f`` (``halo``-row region)."""
        _stream(f, self._stream_plane)

    def bounce_back(self, f: np.ndarray) -> None:
        """Reverse all populations at the barrier cells."""
        _bounce_back(f, self._cells())


def _stream(f: np.ndarray, plane: np.ndarray) -> None:
    for i in range(1, N_DIRS):
        fi = f[i]
        for dst, src in _STREAM_COPIES[i]:
            plane[dst] = fi[src]
        fi[...] = plane


def _bounce_back(f: np.ndarray, cells: tuple[np.ndarray, np.ndarray]) -> None:
    ys, xs = cells
    f[:, ys, xs] = f[OPPOSITE[:, None], ys, xs]


def equilibrium(rho: np.ndarray, ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """Maxwell-Boltzmann equilibrium populations for given macroscopics."""
    rho, ux, uy = np.broadcast_arrays(rho, ux, uy)
    ws = _Planes(rho.shape)
    ws.rho, ws.ux, ws.uy = rho, ux, uy
    feq = np.empty((N_DIRS, *rho.shape))
    for i, plane in _equilibrium_planes(ws):
        feq[i] = plane
    return feq


def macroscopics(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density and velocity from populations: ``(rho, ux, uy)``."""
    ws = _Planes(f.shape[1:])
    _macroscopics_into(f, ws)
    return ws.rho, ws.ux, ws.uy


def collide(f: np.ndarray, omega: float, skip: np.ndarray | None = None) -> None:
    """In-place BGK collision; ``skip`` masks cells (the solid barrier)."""
    solid = np.zeros(f.shape[1:], dtype=bool) if skip is None else skip
    D2Q9Kernel(solid, omega).collide(f)


def stream(f: np.ndarray) -> None:
    """In-place streaming: shift each population along its direction.

    Periodic, with ``np.roll``'s wrap; the caller's boundary conditions
    overwrite the wrapped edges afterwards (the driver re-imposes
    equilibrium inflow on all domain borders each step).
    """
    _stream(f, np.empty(f.shape[1:], dtype=f.dtype))


def bounce_back(f: np.ndarray, solid: np.ndarray) -> None:
    """Full-way bounce-back: reverse all populations at solid cells.

    Populations that streamed into the barrier this step leave it, reversed,
    on the next streaming step — the standard no-slip wall treatment.
    """
    _bounce_back(f, np.nonzero(solid))
