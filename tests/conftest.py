"""Shared randomized-model builders, power oracles, loop references, and the acceptance summary hook."""

import cmath
import dataclasses
import math
from collections import namedtuple
from itertools import chain

import numpy as np
import pytest
from hypothesis import settings

from remskit import (
    Direction,
    FarFieldPattern,
    RadiatingStructure,
    ReMSModel,
    RFFrontend,
    TuningNetwork,
    apply_receive,
    apply_scatter,
    apply_transmit,
    total_power,
    zero_pattern,
)
from remskit._textio import csv_text, fmt, number
from remskit.channel import propagation_matrix
from remskit.cli import _db
from remskit.errors import ModelError
from remskit.farfield import FOUR_PI, PATTERN_CSV_HEADER, make_latlon_grid, spherical_basis
from remskit.radiating import (
    _POL_NAMES,
    _RESPONSE_MAGIC,
    PlaneWaveResponseSet,
    _response_chunks,
    random_reciprocal_structure,
    synthesize_plane_wave_responses,
)

FREQ = 5.4e9

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("remskit", derandomize=True, database=None, deadline=None)
settings.load_profile("remskit")

_ACCEPTANCE = []


def random_passive_structure(grid, m_ports, rng, frequency):
    """Random structure with certified discrete passivity.

    The whole weighted block operator (coupling, weighted kernels, full
    scattering block) is drawn as one random matrix scaled to Frobenius norm
    0.95, a rigorous bound on its largest singular value. The full scattering
    block is stored as the remainder with mirror = 0, so the structure is an
    absorber-like scatterer. No per-model SVD is needed.
    """
    m, n = m_ports, grid.size
    dim = m + 2 * n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g *= 0.95 / np.linalg.norm(g)

    sqw = np.sqrt(grid.weights)
    coupling = g[:m, :m]
    rx = (g[:m, m:] / np.repeat(sqw, 2)[None, :]).reshape(m, n, 2)
    tx = (g[m:, :m] / np.repeat(sqw, 2)[:, None]).T.reshape(m, n, 2)
    inv_sqw = np.repeat(1.0 / sqw, 2)
    scatter = (inv_sqw[:, None] * g[m:, m:] * inv_sqw[None, :]).reshape(n, 2, n, 2)

    return RadiatingStructure(
        coupling=coupling,
        tx_kernel=tx,
        rx_kernel=rx,
        scatter_kernel=scatter,
        grid=grid,
        frequency=frequency,
        mirror=0.0,
    )


def apply_full(s, a, b):
    """Block action: (b_out, a_out) = S_R (a, b)."""
    b_out = s.coupling @ np.asarray(a, dtype=complex) + apply_receive(s, b)
    a_out = FarFieldPattern(s.grid, apply_transmit(s, a).values + apply_scatter(s, b).values)
    return b_out, a_out


def power_balance(s, a, b):
    """(input power, output power) of one full application, both in W."""
    b_out, a_out = apply_full(s, a, b)
    p_in = float(np.vdot(a, a).real) + total_power(b)
    p_out = float(np.vdot(b_out, b_out).real) + total_power(a_out)
    return p_in, p_out


def waves_from_vi(v, i, r0: float):
    """Power waves (a, b) from port voltage and inbound current."""
    v = np.asarray(v, dtype=complex)
    i = np.asarray(i, dtype=complex)
    s = 2.0 * math.sqrt(r0)
    return (v + r0 * i) / s, (v - r0 * i) / s


def vi_from_waves(a, b, r0: float):
    """Port voltage and inbound current from power waves."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return math.sqrt(r0) * (a + b), (a - b) / math.sqrt(r0)


def max_singular_value(s: np.ndarray) -> float:
    return float(np.linalg.svd(np.asarray(s, dtype=complex), compute_uv=False)[0])


def is_passive(s, tol: float = 1e-9) -> bool:
    return max_singular_value(s) <= 1.0 + tol


def is_reciprocal(s, tol: float = 1e-9) -> bool:
    s = np.asarray(s, dtype=complex)
    return bool(np.max(np.abs(s - s.T)) <= tol)


def fejer_weights(grid) -> np.ndarray:
    """(grid.size,) sphere weights of Fejer's first rule on make_latlon_grid's theta nodes.

    The nodes (k + 1/2) pi / n are Fejer's; ring k weighs
    (2/n)(1 - 2 sum_{j=1}^{n//2} cos(2 j theta_k) / (4 j^2 - 1)) 2 pi / n_phi, so with the
    uniform phi trapezoid a band-limited pattern integrates exactly (Waldvogel, BIT 2006).
    """
    n, theta = grid.n_theta, grid.theta[:: grid.n_phi]
    j = np.arange(1, n // 2 + 1)
    ring = (2.0 / n) * (1.0 - 2.0 * (np.cos(2.0 * np.outer(theta, j)) / (4.0 * j**2 - 1.0)).sum(axis=1))
    return np.repeat(ring * (2.0 * math.pi / grid.n_phi), grid.n_phi)


def impulse_pattern(grid, d, coeff):
    """Focused wave from grid direction d with 2-vector coefficient coeff.

    Encoded as coeff / weight(d) at the sample, so the discrete pairing
    reproduces the sifting property exactly. d must be a grid direction.
    """
    idx, w = grid.interp_stencil(d.theta, d.phi)
    live = idx[w > 1e-12]
    if live.size != 1:
        raise ModelError("impulse direction must coincide with a grid sample")
    idx = live[0]
    p = zero_pattern(grid)
    p.values[idx] = np.asarray(coeff, dtype=complex) / grid.weights[idx]
    return p


def response_text(resp):
    """The response-file text of resp: the writer's chunks, joined."""
    return "".join(_response_chunks(resp))


def port_wave_responses(s):
    """The structure's plane-wave responses without scattered-field blocks."""
    resp = synthesize_plane_wave_responses(s)
    return PlaneWaveResponseSet(resp.frequency, resp.grid, resp.port_waves)


def random_tuning(rng, n, m):
    dim = n + m
    s = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    s *= 0.95 / max_singular_value(s)
    return TuningNetwork(n, s)


def random_frontend(rng, n_tx, n_rx, r0=50.0):
    def zs(k):
        return rng.uniform(5.0, 150.0, k) + 1j * rng.uniform(-80.0, 80.0, k)

    return RFFrontend(z_tx=zs(n_tx), z_rx=zs(n_rx), r0=r0)


DenseFrontend = namedtuple("DenseFrontend", "s_rf k_vtx k_vgamma k_igamma k_vrx z_rx")


def dense_frontend(fe):
    """The frontend's one-ports as six dense blocks, built entry by entry: the oracle for its vectors.

    s_rf is the (N, N) reflection block; k_vtx (N, n_tx), k_vgamma and k_igamma (N, n_rx) inject
    the source voltages, noise voltages and noise currents; k_vrx (n_rx, N) reads
    v_rx = k_vrx (b_T - a_T) + z_rx i_gamma, with z_rx the (n_rx, n_rx) receive impedances.
    """
    n, n_tx, n_rx, r0, sq = fe.n, fe.n_tx, fe.n_rx, fe.r0, math.sqrt(fe.r0)
    s_rf = np.zeros((n, n), dtype=complex)
    k_vtx = np.zeros((n, n_tx), dtype=complex)
    k_vgamma, k_igamma = np.zeros((2, n, n_rx), dtype=complex)
    k_vrx = np.zeros((n_rx, n), dtype=complex)
    z_rx = np.zeros((n_rx, n_rx), dtype=complex)
    for i, z in enumerate(fe.z_tx):
        s_rf[i, i] = (z - r0) / (z + r0)
        k_vtx[i, i] = sq / (z + r0)
    for j, z in enumerate(fe.z_rx):
        k = n_tx + j
        s_rf[k, k] = (z - r0) / (z + r0)
        k_vgamma[k, j] = sq / (z + r0)
        k_igamma[k, j] = sq * z / (z + r0)
        k_vrx[j, k] = z / sq
        z_rx[j, j] = z
    return DenseFrontend(s_rf, k_vtx, k_vgamma, k_igamma, k_vrx, z_rx)


def dense_gain_operators(model):
    """The seven matrices of gain_operators, from dense_frontend's blocks and plain inverses."""
    tn, c, m = model.tuning, model.structure.coupling, model.structure.m_ports
    d, i_n = dense_frontend(model.frontend), np.eye(model.frontend.n)
    a_r = np.linalg.inv(np.eye(m) - tn.s_rr @ c)
    a_t = np.linalg.inv(i_n - d.s_rf @ tn.s_tt - d.s_rf @ tn.s_tr @ c @ a_r @ tn.s_rt)
    b_t = np.linalg.inv(i_n - tn.s_tt @ d.s_rf)
    b_r = np.linalg.inv(np.eye(m) - c @ tn.s_rr - c @ tn.s_rt @ d.s_rf @ b_t @ tn.s_tr)
    lead_rx = d.k_vrx @ (i_n - d.s_rf) @ b_t @ tn.s_tr @ b_r
    to_vrx = d.k_vrx @ (tn.s_tr @ c @ a_r @ tn.s_rt + tn.s_tt - i_n) @ a_t
    return {
        "core_tx": a_r @ tn.s_rt @ a_t @ d.k_vtx,
        "mid_rx": (tn.s_rt @ d.s_rf @ b_t @ tn.s_tr + tn.s_rr) @ b_r,
        "lead_rx": lead_rx,
        "g_vtx_vrx": to_vrx @ d.k_vtx,
        "g_vgamma_vrx": to_vrx @ d.k_vgamma,
        "g_igamma_vrx": to_vrx @ d.k_igamma + d.z_rx,
        "g_vupsilon_vrx": lead_rx @ (c - np.eye(m)) / (2.0 * math.sqrt(model.frontend.r0)),
    }


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


def dense_theta(frontend, coupling):
    """The block-diagonal Theta = S_RF (+) C that closes the tuning network, with dense_frontend's S_RF."""
    n, m = frontend.n, coupling.shape[0]
    theta = np.zeros((n + m, n + m), dtype=complex)
    theta[:n, :n], theta[n:, n:] = dense_frontend(frontend).s_rf, coupling
    return theta


def loop_pattern_to_csv(p):
    """Per-row reference for farfield._pattern_csv."""
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


def _grid_index_map(grid):
    key = lambda th, ph: (round(th, 6), round(ph, 6))
    return {
        key(math.degrees(grid.theta[i]), math.degrees(grid.phi[i])): i
        for i in range(grid.size)
    }


def loop_parse_response_text(text: str) -> PlaneWaveResponseSet:
    """Per-line reference for radiating.parse_response_text: split and float() every record."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != _RESPONSE_MAGIC:
        raise ModelError("line 1: not a plane-wave response file")
    header = []
    for lineno, (key, count, kind, low) in enumerate(
        (("frequency_hz", 1, float, None), ("grid", 2, int, None), ("ports", 1, int, 1)), start=2
    ):
        if lineno > len(lines):
            raise ModelError(f"line {lineno}: missing {key} header")
        toks = lines[lineno - 1].split()
        if not toks or toks[0] != key:
            raise ModelError(f"line {lineno}: expected {key} header")
        if len(toks) != count + 1:
            raise ModelError(f"line {lineno}: {key} header has {len(toks) - 1} values")
        header.append([number(t, f"line {lineno}: {key}", kind, low) for t in toks[1:]])
    (frequency,), (n_theta, n_phi), (m_ports,) = header
    if frequency <= 0.0:
        raise ModelError("line 2: frequency_hz must be positive")
    # arrays are sized from the header, so check first that the text can fill them:
    # a complete set has 2nM b lines, and 2n(n + 1) lines from its first scattered block on
    n = n_theta * n_phi
    if len(lines) - 4 < 2 * n * m_ports:
        raise ModelError(
            "no records" if len(lines) == 4 else "incomplete response set: too few lines for its header"
        )
    grid = make_latlon_grid(n_theta, n_phi)
    index_map = _grid_index_map(grid)

    isfinite = math.isfinite
    dirs = {}  # direction tokens already looked up -> grid index

    def dir_index(th_s: str, ph_s: str, lineno: int) -> int:
        idx = dirs.get((th_s, ph_s))
        if idx is None:
            key = (round(float(th_s), 6), round(float(ph_s), 6))
            idx = index_map.get(key)
            if idx is None:
                raise ModelError(f"line {lineno}: direction {key} not on the declared grid")
            dirs[th_s, ph_s] = idx
        return idx

    def store_block():
        # one array store per block; block holds each out direction's last record
        if block:
            i, q = block_at
            values = np.fromiter(chain.from_iterable(block.values()), float, 4 * len(block))
            js = np.fromiter(block, np.intp, len(block))
            scattered[i, q, js] = values.view(complex).reshape(-1, 2)

    port_waves = np.full((grid.size, 2, m_ports), np.nan, dtype=complex)
    scattered = None
    block_at, block = None, {}  # open scattered block (in_idx, pol_idx), {j: (re0, im0, re1, im1)}
    n_b = 0
    for lineno, line in enumerate(lines[4:], start=5):
        toks = line.split()
        if not toks:
            continue
        try:
            if toks[0] == "s":
                if block_at is None:
                    raise ModelError(f"line {lineno}: s record outside a scattered block")
                if len(toks) != 7:
                    raise ModelError(f"line {lineno}: s record needs 6 fields")
                j = dir_index(toks[1], toks[2], lineno)
                values = float(toks[3]), float(toks[4]), float(toks[5]), float(toks[6])
                re0, im0, re1, im1 = values
                if not (isfinite(re0) and isfinite(im0) and isfinite(re1) and isfinite(im1)):
                    raise ModelError(f"line {lineno}: non-finite value")
                block[j] = values
            elif toks[0] == "b":
                if len(toks) != 7:
                    raise ModelError(f"line {lineno}: b record needs 6 fields")
                i = dir_index(toks[1], toks[2], lineno)
                if toks[3] not in _POL_NAMES:
                    raise ModelError(f"line {lineno}: polarization must be theta or phi")
                q = _POL_NAMES.index(toks[3])
                m = number(toks[4], f"line {lineno}: port", int)
                if not (0 <= m < m_ports):
                    raise ModelError(f"line {lineno}: port {m} out of range")
                v = complex(float(toks[5]), float(toks[6]))
                if not cmath.isfinite(v):
                    raise ModelError(f"line {lineno}: non-finite value")
                port_waves[i, q, m] = v
                n_b += 1
            elif toks[0] == "scattered":
                if len(toks) != 4:
                    raise ModelError(f"line {lineno}: scattered block header needs 3 fields")
                if scattered is None:
                    if len(lines) - lineno + 1 < 2 * n * (n + 1):
                        raise ModelError(f"line {lineno}: incomplete scattered-field blocks: too few lines")
                    scattered = np.full((n, 2, n, 2), np.nan, dtype=complex)
                i = dir_index(toks[1], toks[2], lineno)
                if toks[3] not in _POL_NAMES:
                    raise ModelError(f"line {lineno}: polarization must be theta or phi")
                store_block()
                block_at, block = (i, _POL_NAMES.index(toks[3])), {}
            elif not toks[0].startswith("#"):  # a comment otherwise
                raise ModelError(f"line {lineno}: unknown record type {toks[0]!r}")
        except ModelError:
            raise
        except ValueError as err:  # float() of a malformed token
            raise ModelError(f"line {lineno}: {err}") from None
    store_block()

    if n_b == 0:
        raise ModelError("no records")
    if np.isnan(port_waves).any():
        raise ModelError("incomplete response set: missing direction, polarization, or port entries")
    if scattered is not None and np.isnan(scattered).any():
        raise ModelError("incomplete scattered-field blocks")
    return PlaneWaveResponseSet(frequency, grid, port_waves, scattered)


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
