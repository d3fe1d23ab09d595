"""The D2Q9 step kernel against a frozen copy of the original kernels.

Comparing the serial solver with the distributed one cannot catch a
kernel change that alters the physics: both run the same kernel.  This
file keeps the first, allocation-heavy vectorized kernels verbatim (the
``_seed_*`` functions and ``_SeedSerial``) and asserts that the workspace
kernel reproduces them bit for bit.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.lbm import (
    CX,
    CY,
    N_DIRS,
    OPPOSITE,
    W,
    DistributedLbm,
    LbmConfig,
    SerialLbm,
    bounce_back,
    collide,
    equilibrium,
    macroscopics,
    stream,
    vorticity,
)
from tests.conftest import spmd

# -- frozen original kernels (do not edit) ------------------------------------


def _seed_equilibrium(rho, ux, uy):
    cu = CX[:, None, None] * ux[None] + CY[:, None, None] * uy[None]
    usq = ux * ux + uy * uy
    return rho[None] * W[:, None, None] * (
        1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * usq[None]
    )


def _seed_macroscopics(f):
    rho = f.sum(axis=0)
    inv = 1.0 / rho
    ux = (f * CX[:, None, None]).sum(axis=0) * inv
    uy = (f * CY[:, None, None]).sum(axis=0) * inv
    return rho, ux, uy


def _seed_collide(f, omega, skip=None):
    rho, ux, uy = _seed_macroscopics(f)
    feq = _seed_equilibrium(rho, ux, uy)
    if skip is None:
        f += omega * (feq - f)
    else:
        update = omega * (feq - f)
        update[:, skip] = 0.0
        f += update


def _seed_stream(f):
    for i in range(1, N_DIRS):
        f[i] = np.roll(f[i], shift=(int(CY[i]), int(CX[i])), axis=(0, 1))


def _seed_bounce_back(f, solid):
    f[:, solid] = f[OPPOSITE][:, solid]


class _SeedSerial:
    """The original serial step loop over the frozen kernels."""

    def __init__(self, config):
        self.config = config
        self.solid = config.barrier_mask()
        rows = config.ny
        self.f = _seed_equilibrium(
            np.ones((rows, config.nx)),
            np.full((rows, config.nx), config.u0),
            np.zeros((rows, config.nx)),
        ).copy()

    def step(self, n=1):
        for _ in range(n):
            _seed_collide(self.f, self.config.omega, skip=self.solid)
            _seed_stream(self.f)
            _seed_bounce_back(self.f, self.solid)
            self._apply_boundaries()

    def _apply_boundaries(self):
        c = self.config
        edge = _seed_equilibrium(
            np.ones((1, c.nx)), np.full((1, c.nx), c.u0), np.zeros((1, c.nx))
        )[:, 0, :]
        self.f[:, 0, :] = edge
        self.f[:, -1, :] = edge
        col = edge[:, :1]
        self.f[:, :, 0] = col
        self.f[:, :, -1] = col

    def vorticity(self):
        _, ux, uy = _seed_macroscopics(self.f)
        return vorticity(ux, uy)


# -- helpers ------------------------------------------------------------------


def _bits(a: np.ndarray) -> np.ndarray:
    """The float64 bit patterns, so -0.0 and 0.0 (or NaN payloads) differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


OBSTACLES = ("bar", "circle", "none")
STEPS = 200


def _config(obstacle: str) -> LbmConfig:
    return LbmConfig(nx=48, ny=23, obstacle=obstacle)


def _oracle(obstacle: str, steps: int = STEPS) -> _SeedSerial:
    seed = _SeedSerial(_config(obstacle))
    seed.step(steps)
    return seed


# -- whole runs ---------------------------------------------------------------


@pytest.mark.parametrize("obstacle", OBSTACLES)
def test_serial_matches_seed(obstacle):
    sim = SerialLbm(_config(obstacle))
    sim.step(STEPS)
    seed = _oracle(obstacle)
    assert_bitwise(sim.f, seed.f)
    assert_bitwise(sim.vorticity(), seed.vorticity())


@pytest.mark.parametrize("nprocs", [1, 2, 3])
@pytest.mark.parametrize("obstacle", OBSTACLES)
def test_distributed_matches_seed(obstacle, nprocs):
    config = _config(obstacle)  # ny = 23: uneven slabs for 2 and 3 ranks

    def fn(comm):
        sim = DistributedLbm(comm, config)
        sim.step(STEPS)
        return sim.y0, sim.y1, sim.interior.copy(), sim.vorticity()

    seed = _oracle(obstacle)
    curl = seed.vorticity()
    covered = 0
    for y0, y1, interior, local_curl in spmd(nprocs, fn):
        assert_bitwise(interior, seed.f[:, y0:y1, :])
        assert_bitwise(local_curl, curl[y0:y1])
        covered += y1 - y0
    assert covered == config.ny


def test_state_written_after_construction():
    """Migration writes ``sim.f[:, 1:-1, :]`` into a fresh solver; stepping
    must then continue exactly where the donor left off."""
    config = _config("circle")
    seed = _oracle("circle", steps=60)
    state = seed.f.copy()
    seed.step(STEPS - 60)

    def fn(comm):
        sim = DistributedLbm(comm, config)
        sim.f[:, 1:-1, :] = state[:, sim.y0 : sim.y1, :]
        sim.step(STEPS - 60)
        return sim.y0, sim.y1, sim.interior.copy()

    for y0, y1, interior in spmd(3, fn):
        assert_bitwise(interior, seed.f[:, y0:y1, :])

    serial = SerialLbm(config)
    serial.f[...] = state
    serial.step(STEPS - 60)
    assert_bitwise(serial.f, seed.f)


# -- the public kernels on random states --------------------------------------

# At least two cells per plane: on a one-cell plane NumPy's axis-0 sum
# switches to pairwise summation, which the original kernels inherited and
# the workspace kernel (sequential ``f0 + ... + f8``) does not reproduce.
_planes = st.tuples(st.integers(1, 7), st.integers(2, 11))


@st.composite
def _states(draw):
    rows, nx = draw(_planes)
    f = draw(
        arrays(np.float64, (N_DIRS, rows, nx), elements=st.floats(0.01, 1.0))
    )
    skip = draw(arrays(np.bool_, (rows, nx)))
    return f, skip


@settings(max_examples=60, deadline=None)
@given(_states(), st.floats(0.2, 1.9), st.booleans())
def test_collide_matches_seed(state, omega, masked):
    f, skip = state
    want = f.copy()
    _seed_collide(want, omega, skip=skip if masked else None)
    collide(f, omega, skip=skip if masked else None)
    assert_bitwise(f, want)


@settings(max_examples=40, deadline=None)
@given(_states())
def test_other_kernels_match_seed(state):
    f, solid = state
    for got, want in zip(macroscopics(f), _seed_macroscopics(f)):
        assert_bitwise(got, want)
    rho, ux, uy = _seed_macroscopics(f)
    assert_bitwise(equilibrium(rho, ux, uy), _seed_equilibrium(rho, ux, uy))
    got, want = f.copy(), f.copy()
    stream(got)
    _seed_stream(want)
    assert_bitwise(got, want)
    bounce_back(got, solid)
    _seed_bounce_back(want, solid)
    assert_bitwise(got, want)


# -- allocation ---------------------------------------------------------------


def test_step_allocates_less_than_one_plane():
    sim = SerialLbm(LbmConfig(nx=256, ny=128))
    sim.step(1)  # warm-up
    plane = sim.config.ny * sim.config.nx * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        sim.step(5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < plane
