"""Shared randomized-model builders, loop references, and the acceptance summary hook."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import settings

from remskit import (
    Direction,
    FarFieldPattern,
    ReMSModel,
    RFFrontend,
    TuningNetwork,
    random_passive_structure,
)
from remskit._textio import csv_text, fmt
from remskit.channel import propagation_matrix
from remskit.cli import _db
from remskit.farfield import FOUR_PI, PATTERN_CSV_HEADER, spherical_basis
from remskit.network import max_singular_value
from remskit.radiating import random_reciprocal_structure

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


def loop_dipole_kernel(orientation, position, grid, k):
    """Per-element reference for dipole_array's kernels: one (n, 2) Hertzian dipole kernel."""
    o = np.asarray(orientation, dtype=float)
    r, th, ph = spherical_basis(grid.theta, grid.phi)
    amp = math.sqrt(3.0 / (8.0 * math.pi))
    phase = np.exp(1j * k * (r @ np.asarray(position, dtype=float)))
    kern = np.empty((grid.size, 2), dtype=complex)
    kern[:, 0] = amp * (th @ o) * phase
    kern[:, 1] = amp * (ph @ o) * phase
    return kern


def mirror_matrix(grid):
    """Dense (2n, 2n) matrix of the antipodal mirror P, -diag(1, -1) on each antipodal pair."""
    n = grid.size
    m = np.zeros((2 * n, 2 * n))
    rows = np.arange(n)
    ap = grid.antipode
    m[2 * rows, 2 * ap] = -1.0
    m[2 * rows + 1, 2 * ap + 1] = 1.0
    return m


def dense_reduced_twin(s):
    """s with its mirror folded into a dense (n, 2, n, 2) reduced kernel.

    The twin has mirror 1 and the remainder plus (mirror - 1) P / w, the
    dense oracle the structured form is held to.
    """
    g = s.grid
    n = g.size
    inv_w = np.repeat(1.0 / g.weights, 2)
    reduced = (s.mirror - 1.0) * mirror_matrix(g) * inv_w[:, None]
    if s.scatter_kernel is not None:
        reduced = reduced + s.scatter_kernel.reshape(2 * n, 2 * n)
    return dataclasses.replace(s, scatter_kernel=reduced.reshape(n, 2, n, 2), mirror=1.0)


def loop_blend(values, stencil):
    """Reference stencil sum: accumulate the nonzero-weight terms one at a time."""
    out = np.zeros(values.shape[1:], dtype=complex)
    for idx, w in stencil:
        if w != 0.0:
            out += w * values[idx]
    return out


def singular_loop_pair(grid, disp):
    """Two 1-port structures whose bounce loop I - loop is singular to rounding.

    The tx reduced kernel's theta-theta block is 1/c^2 for the propagation
    coefficient c over |disp| and zero elsewhere; the rx reduced kernel is
    the 2x2 identity. The loop's theta-theta entry is then 1 to rounding.
    """
    rng = np.random.default_rng(0)
    tx = random_reciprocal_structure(grid, 1, rng, FREQ)
    rx = random_reciprocal_structure(grid, 1, rng, FREQ)
    c = propagation_matrix(float(np.linalg.norm(disp)), FREQ)[0, 0]
    tx.scatter_kernel[:] = 0.0
    tx.scatter_kernel[:, 0, :, 0] = 1.0 / c**2
    rx.scatter_kernel[:] = 0.0
    rx.scatter_kernel[:, 0, :, 0] = 1.0
    rx.scatter_kernel[:, 1, :, 1] = 1.0
    return tx, rx


def loop_pattern_to_csv(p):
    """Per-row reference for farfield.pattern_to_csv."""
    rows = (
        (
            fmt(math.degrees(theta)),
            fmt(math.degrees(phi)),
            fmt(v[0].real),
            fmt(v[0].imag),
            fmt(v[1].real),
            fmt(v[1].imag),
            fmt(float(np.real(np.vdot(v, v)))),
        )
        for theta, phi, v in zip(p.grid.theta, p.grid.phi, p.values)
    )
    return csv_text(PATTERN_CSV_HEADER, rows)


def loop_gain_rows(ops, p_a, v, thetas_deg, phi_deg):
    """Per-row reference for cli._gain_rows: (theta, gain in dB) text rows."""
    v = np.asarray(v, dtype=complex)
    mats = ops.vtx_gain_matrix([Direction.from_degrees(float(t), phi_deg) for t in thetas_deg])
    for theta, m in zip(thetas_deg, mats):
        val = m @ v
        g = FOUR_PI * float(np.vdot(val, val).real) / p_a
        yield (fmt(float(theta)), fmt(_db(g)))


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
