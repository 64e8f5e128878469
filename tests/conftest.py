"""Shared randomized-model builders, loop references, and the acceptance summary hook."""

import math

import numpy as np
import pytest
from hypothesis import settings

from remskit import (
    FarFieldPattern,
    ReMSModel,
    RFFrontend,
    TuningNetwork,
    random_passive_structure,
)
from remskit.network import max_singular_value

FREQ = 5.4e9

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("remskit", derandomize=True, database=None, deadline=None)
settings.load_profile("remskit")

_ACCEPTANCE = []


def random_tuning(rng, n, m):
    dim = n + m
    s = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    s *= 0.95 / max_singular_value(s)
    return TuningNetwork(n, m, s)


def random_frontend(rng, n_tx, n_rx, r0=50.0):
    def zs(k):
        return rng.uniform(5.0, 150.0, k) + 1j * rng.uniform(-80.0, 80.0, k)

    return RFFrontend(z_tx=zs(n_tx), z_rx=zs(n_rx), r0=r0)


def random_model(rng, grid, n_tx=2, n_rx=1, m=3, frequency=FREQ):
    return ReMSModel(
        structure=random_passive_structure(grid, m, rng, frequency),
        tuning=random_tuning(rng, n_tx + n_rx, m),
        frontend=random_frontend(rng, n_tx, n_rx),
    )


def random_pattern(rng, grid):
    vals = rng.standard_normal((grid.size, 2)) + 1j * rng.standard_normal((grid.size, 2))
    return FarFieldPattern(grid, vals)


def loop_stencil(grid, theta: float, phi: float):
    """Scalar reference for DirectionGrid.interp_stencil: four (index, weight) pairs."""
    t = theta / (math.pi / grid.n_theta) - 0.5
    if t <= 0.0:
        i0 = i1 = 0
        ft = 0.0
    elif t >= grid.n_theta - 1:
        i0 = i1 = grid.n_theta - 1
        ft = 0.0
    else:
        i0 = int(math.floor(t))
        ft = t - i0
        i1 = i0 + 1
    u = (phi % (2.0 * math.pi)) / (2.0 * math.pi / grid.n_phi)
    j0 = int(math.floor(u)) % grid.n_phi
    fu = u - math.floor(u)
    j1 = (j0 + 1) % grid.n_phi
    return (
        (grid.index_of(i0, j0), (1.0 - ft) * (1.0 - fu)),
        (grid.index_of(i0, j1), (1.0 - ft) * fu),
        (grid.index_of(i1, j0), ft * (1.0 - fu)),
        (grid.index_of(i1, j1), ft * fu),
    )


def loop_blend(values, stencil):
    """Reference stencil sum: accumulate the nonzero-weight terms one at a time."""
    out = np.zeros(values.shape[1:], dtype=complex)
    for idx, w in stencil:
        if w != 0.0:
            out += w * values[idx]
    return out


@pytest.fixture
def criterion_report():
    """Record one acceptance-criterion outcome for the terminal summary."""

    def record(num, ok, detail):
        _ACCEPTANCE.append((int(num), bool(ok), str(detail)))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num, ok, detail in sorted(_ACCEPTANCE):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {status} - {detail}")
