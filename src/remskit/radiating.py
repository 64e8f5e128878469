"""Radiating structures: port coupling plus sampled far-field kernels.

A structure couples M ports to the far field through three sampled kernels:
a transmit kernel (port wave to outgoing pattern), a receive kernel (incoming
pattern to port wave, paired bilinearly with area weights), and a reduced
scattering kernel. The free-space mirror term of the full scattering operator
is never stored; apply_scatter re-adds it analytically.

Also here: analytic dipole structures used as ground truth, kernel extraction
from plane-wave response data, the response file format, reciprocity checks,
and a certified-passive random structure generator for validation.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError
from ._textio import atomic_write_text, fmt, number
from .farfield import (
    Direction,
    DirectionGrid,
    FarFieldPattern,
    antipodal_mirror,
    blend,
    spherical_basis,
    total_power,
)
from .network import max_singular_value

C_LIGHT = 299792458.0
Z0_FREE_SPACE = 4.0e-7 * math.pi * C_LIGHT


def wavenumber(frequency_hz: float) -> float:
    """k = 2*pi*f/c in rad/m."""
    return 2.0 * math.pi * frequency_hz / C_LIGHT


def mirror_matrix(grid: DirectionGrid) -> np.ndarray:
    """Dense (2n, 2n) matrix of the antipodal mirror -diag(1,-1) P."""
    n = grid.size
    m = np.zeros((2 * n, 2 * n))
    rows = np.arange(n)
    ap = grid.antipode
    m[2 * rows, 2 * ap] = -1.0
    m[2 * rows + 1, 2 * ap + 1] = 1.0
    return m


@dataclass
class RadiatingStructure:
    """The four blocks of the radiating-structure scattering operator.

    coupling: (M, M) port-to-port block, dimensionless.
    tx_kernel: (M, n, 2) sampled transmit kernel, sqrt(1/sr) per sqrt(W).
    rx_kernel: (M, n, 2) sampled receive kernel; enters only through the
        area-weighted bilinear pairing sum_i b(i)^T rx[m](i) w(i).
    scatter_kernel: (n, 2, n, 2) reduced sampled scattering kernel in 1/sr,
        indexed [out_dir, out_comp, in_dir, in_comp], or None for zero.
    """

    m_ports: int
    coupling: np.ndarray
    tx_kernel: np.ndarray
    rx_kernel: np.ndarray
    scatter_kernel: np.ndarray | None
    grid: DirectionGrid
    frequency: float
    extrinsic_noise_enabled: bool = True

    def __post_init__(self):
        m, n = self.m_ports, self.grid.size
        self.coupling = np.asarray(self.coupling, dtype=complex)
        self.tx_kernel = np.asarray(self.tx_kernel, dtype=complex)
        self.rx_kernel = np.asarray(self.rx_kernel, dtype=complex)
        if self.coupling.shape != (m, m):
            raise ModelError(f"coupling shape {self.coupling.shape} != ({m}, {m})")
        if self.tx_kernel.shape != (m, n, 2):
            raise ModelError(f"tx_kernel shape {self.tx_kernel.shape} != ({m}, {n}, 2)")
        if self.rx_kernel.shape != (m, n, 2):
            raise ModelError(f"rx_kernel shape {self.rx_kernel.shape} != ({m}, {n}, 2)")
        if self.scatter_kernel is not None:
            self.scatter_kernel = np.asarray(self.scatter_kernel, dtype=complex)
            if self.scatter_kernel.shape != (n, 2, n, 2):
                raise ModelError(
                    f"scatter_kernel shape {self.scatter_kernel.shape} != ({n}, 2, {n}, 2)"
                )
            if n > 64 * 64:
                warnings.warn(
                    f"dense scatter kernel on {n} directions exceeds the 64x64 "
                    "guideline; memory grows with the grid squared",
                    stacklevel=2,
                )

    def tx_at(self, d) -> np.ndarray:
        """(2, M) transmit-kernel columns interpolated at d; (k, 2, M) for k directions."""
        return _port_at(self.tx_kernel, self.grid, d)

    def rx_at(self, d) -> np.ndarray:
        """(2, M) receive-kernel columns interpolated at d; (k, 2, M) for k directions."""
        return _port_at(self.rx_kernel, self.grid, d)

    def scatter_at(self, d_out: Direction, d_in: Direction) -> np.ndarray:
        """2x2 reduced scattering kernel interpolated at (d_out; d_in)."""
        if self.scatter_kernel is None:
            return np.zeros((2, 2), dtype=complex)
        return _scatter_blend(
            self.scatter_kernel,
            self.grid.interp_stencil(d_out.theta, d_out.phi),
            self.grid.interp_stencil(d_in.theta, d_in.phi),
        )


def _port_at(kernel: np.ndarray, grid: DirectionGrid, d) -> np.ndarray:
    """(M, n, 2) port kernel at a Direction as (2, M), or at k Directions as (k, 2, M)."""
    if isinstance(d, Direction):
        theta, phi = d.theta, d.phi
    else:
        theta, phi = np.array([x.theta for x in d]), np.array([x.phi for x in d])
    return blend(kernel.transpose(1, 2, 0), *grid.interp_stencil(theta, phi))


def _scatter_blend(kernel: np.ndarray, out_stencil, in_stencil) -> np.ndarray:
    """(n, 2, n, 2) kernel interpolated on both sides, shaped (*in, *out, 2, 2)."""
    rows = blend(kernel, *out_stencil)  # (*out, 2, n, 2)
    return blend(np.moveaxis(rows, -2, 0), *in_stencil)


def apply_transmit(s: RadiatingStructure, a) -> FarFieldPattern:
    a = np.asarray(a, dtype=complex)
    if a.shape != (s.m_ports,):
        raise ModelError(f"port vector shape {a.shape} != ({s.m_ports},)")
    return FarFieldPattern(s.grid, np.einsum("mic,m->ic", s.tx_kernel, a))


def apply_receive(s: RadiatingStructure, b: FarFieldPattern) -> np.ndarray:
    if not b.grid.compatible(s.grid):
        raise ModelError("pattern grid does not match structure grid")
    return np.einsum("ic,mic,i->m", b.values, s.rx_kernel, s.grid.weights)


def apply_scatter(s: RadiatingStructure, b: FarFieldPattern) -> FarFieldPattern:
    if not b.grid.compatible(s.grid):
        raise ModelError("pattern grid does not match structure grid")
    out = antipodal_mirror(b)
    if s.scatter_kernel is not None:
        out.values += np.einsum(
            "icjd,jd->ic", s.scatter_kernel, b.values * s.grid.weights[:, None]
        )
    return out


def apply_full(s: RadiatingStructure, a, b: FarFieldPattern):
    """Block action: (b_out, a_out) = S_R (a, b)."""
    b_out = s.coupling @ np.asarray(a, dtype=complex) + apply_receive(s, b)
    a_out = apply_transmit(s, a) + apply_scatter(s, b)
    return b_out, a_out


def power_balance(s: RadiatingStructure, a, b: FarFieldPattern):
    """(input power, output power) of one full application, both in W."""
    b_out, a_out = apply_full(s, a, b)
    p_in = float(np.vdot(a, a).real) + total_power(b)
    p_out = float(np.vdot(b_out, b_out).real) + total_power(a_out)
    return p_in, p_out


# ---------------------------------------------------------------------------
# analytic structures


def _dipole_kernel(orientation, position, grid: DirectionGrid, k: float) -> np.ndarray:
    o = np.asarray(orientation, dtype=float)
    if abs(np.linalg.norm(o) - 1.0) > 1e-9:
        raise ModelError("dipole orientation must be a unit vector")
    r, th, ph = spherical_basis(grid.theta, grid.phi)
    amp = math.sqrt(3.0 / (8.0 * math.pi))
    phase = np.exp(1j * k * (r @ np.asarray(position, dtype=float)))
    kern = np.empty((grid.size, 2), dtype=complex)
    kern[:, 0] = amp * (th @ o) * phase
    kern[:, 1] = amp * (ph @ o) * phase
    return kern


def hertzian_dipole(orientation, position, grid: DirectionGrid, frequency: float) -> RadiatingStructure:
    """Lossless matched Hertzian dipole, unit radiated power at unit drive.

    Minimal-scattering idealization: the reduced scattering kernel is zero,
    so the structure absorbs and re-transmits without shadowing. This is the
    standard single-antenna idealization; it is not passive as a full
    operator under illumination that overlaps the absorption pattern.
    """
    return dipole_array([(orientation, position)], grid, frequency)


def synthetic_coupling(positions, k: float, gamma: float) -> np.ndarray:
    """Exp-phase, 1/(k d) magnitude coupling profile between element pairs."""
    p = np.asarray(positions, dtype=float)
    m = len(p)
    c = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            d = float(np.linalg.norm(p[i] - p[j]))
            if d == 0.0:
                raise ModelError(f"elements {i} and {j} are co-located")
            c[i, j] = gamma * np.exp(-1j * k * d) / (k * d)
    return c


_MIRROR_SIGN = np.array([-1.0, 1.0])  # the mirror's theta/phi signs, -diag(1, -1)


def _weighted_operator_norm(coupling, tx, rx, grid: DirectionGrid) -> float:
    """Largest singular value of the weighted block W = [[C, R_w], [K_w, P]].

    R_w and K_w are the area-weighted receive and transmit kernels, and P is
    the antipodal mirror, a signed permutation, so P^H P = I. Then W^H W - I
    vanishes outside ports + span(R_w^H, P^H K_w), and with Q an orthonormal
    basis of that span the singular values of W are those of
    W B = [[C, R_w Q], [K_w, P Q]], a (M + 2n) x (M + 2M) matrix at most,
    plus 1 for every field direction outside span(Q). Each column of P Q has
    norm 1, so sigma_max(W B) >= 1 and it is the largest of them all.
    P is applied as the signed antipode gather, never as a matrix.
    """
    m, n = tx.shape[0], grid.size
    sqw = np.sqrt(grid.weights)[:, None]
    kw = tx * sqw  # (M, n, 2): column j of K_w is kw[j]
    rw = rx * sqw  # (M, n, 2): row j of R_w is rw[j]
    mirrored_kw = np.empty_like(kw)
    mirrored_kw[:, grid.antipode] = kw * _MIRROR_SIGN  # P^H K_w, columns as rows
    span = np.concatenate([rw.conj(), mirrored_kw]).reshape(2 * m, 2 * n).T
    q = np.linalg.qr(span)[0]  # (2n, min(2n, 2M))
    mirror_q = q.reshape(n, 2, -1)[grid.antipode] * _MIRROR_SIGN[:, None]
    return max_singular_value(np.block([
        [coupling, rw.reshape(m, 2 * n) @ q],
        [kw.reshape(m, 2 * n).T, mirror_q.reshape(2 * n, -1)],
    ]))


def dipole_array(
    elements,
    grid: DirectionGrid,
    frequency: float,
    coupling: np.ndarray | None = None,
    enforce_passivity: bool = False,
) -> RadiatingStructure:
    """Array of Hertzian dipoles; elements is a list of (orientation, position).

    With coupling=None the elements are ideal and uncoupled (zero coupling,
    zero reduced scatter). A coupling matrix makes the structure interactive;
    enforce_passivity then rescales the whole operator by its exact largest
    singular value sigma (times 1 + 1e-12), absorbing the excess into a small
    negative-mirror reduced kernel so passivity is certified rather than
    assumed. sigma is found on the at most 3M-dimensional subspace where the
    weighted operator differs from an isometry (_weighted_operator_norm), so
    the cost grows linearly with the grid rather than cubically. The mirror
    block alone has norm 1, so sigma >= 1 and every certified array is
    rescaled.
    """
    if len(elements) == 0:
        raise ModelError("dipole_array requires at least one element")
    k = wavenumber(frequency)
    m = len(elements)
    n = grid.size
    tx = np.empty((m, n, 2), dtype=complex)
    for idx, (orientation, position) in enumerate(elements):
        tx[idx] = _dipole_kernel(orientation, position, grid, k)
    if coupling is None:
        coupling = np.zeros((m, m), dtype=complex)
    else:
        coupling = np.asarray(coupling, dtype=complex)
        if coupling.shape != (m, m):
            raise ModelError(f"coupling shape {coupling.shape} != ({m}, {m})")
    rx = tx.copy()
    scatter = None

    if enforce_passivity:
        scale = _weighted_operator_norm(coupling, tx, rx, grid) * (1.0 + 1e-12)
        if scale > 1.0:
            coupling = coupling / scale
            tx = tx / scale
            rx = rx / scale
            # full scatter becomes mirror/scale; the reduced kernel holds the
            # difference (1/scale - 1) * mirror, a slight uniform absorber
            delta = 1.0 / scale - 1.0
            scatter = np.zeros((n, 2, n, 2), dtype=complex)
            rows = np.arange(n)
            scatter[rows, 0, grid.antipode, 0] = -delta / grid.weights
            scatter[rows, 1, grid.antipode, 1] = delta / grid.weights

    return RadiatingStructure(
        m_ports=m,
        coupling=coupling,
        tx_kernel=tx,
        rx_kernel=rx,
        scatter_kernel=scatter,
        grid=grid,
        frequency=frequency,
    )


def isotropic_radiator(grid: DirectionGrid, frequency: float, pol: str = "theta") -> RadiatingStructure:
    """Unit-gain reference: constant-magnitude pattern radiating 1 W at unit drive."""
    kern = np.zeros((1, grid.size, 2), dtype=complex)
    col = {"theta": 0, "phi": 1}.get(pol)
    if col is None:
        raise ModelError(f"unknown polarization {pol!r}")
    kern[0, :, col] = 1.0 / math.sqrt(4.0 * math.pi)
    return RadiatingStructure(
        m_ports=1,
        coupling=np.zeros((1, 1), dtype=complex),
        tx_kernel=kern,
        rx_kernel=kern.copy(),
        scatter_kernel=None,
        grid=grid,
        frequency=frequency,
    )


def random_passive_structure(
    grid: DirectionGrid, m_ports: int, rng: np.random.Generator, frequency: float, norm: float = 0.95
) -> RadiatingStructure:
    """Random structure with certified discrete passivity.

    The whole weighted block operator (coupling, weighted kernels, full
    scattering block) is drawn as one random matrix scaled by its Frobenius
    norm, a rigorous bound on the largest singular value. The reduced kernel
    then contains a -mirror/weight component, i.e. the structure is an
    absorber-like scatterer. No per-model SVD is needed.
    """
    m, n = m_ports, grid.size
    dim = m + 2 * n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g *= norm / np.linalg.norm(g)

    sqw = np.sqrt(grid.weights)
    coupling = g[:m, :m]
    rx = (g[:m, m:] / np.repeat(sqw, 2)[None, :]).reshape(m, n, 2)
    tx = (g[m:, :m] / np.repeat(sqw, 2)[:, None]).T.reshape(m, n, 2)
    reduced_w = g[m:, m:] - mirror_matrix(grid)
    inv_sqw = np.repeat(1.0 / sqw, 2)
    scatter = (inv_sqw[:, None] * reduced_w * inv_sqw[None, :]).reshape(n, 2, n, 2)

    return RadiatingStructure(
        m_ports=m,
        coupling=coupling,
        tx_kernel=tx,
        rx_kernel=rx,
        scatter_kernel=scatter,
        grid=grid,
        frequency=frequency,
    )


def random_reciprocal_structure(
    grid: DirectionGrid, m_ports: int, rng: np.random.Generator, frequency: float, kernel_scale: float = 0.3
) -> RadiatingStructure:
    """Random structure satisfying the reciprocity symmetries exactly."""
    m, n = m_ports, grid.size
    c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    coupling = 0.1 * (c + c.T)
    tx = kernel_scale * (rng.standard_normal((m, n, 2)) + 1j * rng.standard_normal((m, n, 2)))
    sc = kernel_scale * (rng.standard_normal((n, 2, n, 2)) + 1j * rng.standard_normal((n, 2, n, 2)))
    # symmetrize: S(d; d') = S(d'; d)^T
    scatter = 0.5 * (sc + sc.transpose(2, 3, 0, 1))
    return RadiatingStructure(
        m_ports=m,
        coupling=coupling,
        tx_kernel=tx,
        rx_kernel=tx.copy(),
        scatter_kernel=scatter,
        grid=grid,
        frequency=frequency,
    )


# ---------------------------------------------------------------------------
# reciprocity


@dataclass(frozen=True)
class ReciprocityReport:
    coupling_ok: bool
    kernel_ok: bool
    scatter_ok: bool
    max_coupling_dev: float
    max_kernel_dev: float
    max_scatter_dev: float


def check_reciprocity(s: RadiatingStructure, tol: float) -> ReciprocityReport:
    """Check coupling symmetry, rx = tx, and the scatter transpose symmetry."""
    dev_c = float(np.max(np.abs(s.coupling - s.coupling.T))) if s.m_ports else 0.0
    dev_k = float(np.max(np.abs(s.rx_kernel - s.tx_kernel))) if s.m_ports else 0.0
    dev_s = 0.0 if s.scatter_kernel is None else _scatter_asymmetry(s.scatter_kernel)
    return ReciprocityReport(
        coupling_ok=dev_c <= tol,
        kernel_ok=dev_k <= tol,
        scatter_ok=dev_s <= tol,
        max_coupling_dev=dev_c,
        max_kernel_dev=dev_k,
        max_scatter_dev=dev_s,
    )


def _scatter_asymmetry(kernel: np.ndarray) -> float:
    """max |K - K^T| over the (2n, 2n) view of an (n, 2, n, 2) scattering kernel.

    Taken over blocks of rows, so no temporary is kernel-sized; np.max joins
    the block maxima, so the value, NaN included, is the one-shot max's.
    """
    b = 128  # directions: 256 rows of the (2n, 2n) view
    block_max = [
        np.max(np.abs(kernel[i : i + b] - kernel[:, :, i : i + b].transpose(2, 3, 0, 1)))
        for i in range(0, kernel.shape[0], b)
    ]
    return float(np.max(block_max))


# ---------------------------------------------------------------------------
# plane-wave responses and kernel extraction


@dataclass
class PlaneWaveResponseSet:
    """Port waves and scattered fields under unit-RMS plane-wave excitation.

    port_waves[i, q, m]: outgoing wave at port m for incidence from grid
    direction i with polarization q (0 theta-hat, 1 phi-hat), in sqrt(W).
    scattered[i, q, j, c]: scattered far-field amplitude component c at
    direction j for the same excitation, in V (field amplitude times meters).
    """

    frequency: float
    grid: DirectionGrid
    port_waves: np.ndarray
    scattered: np.ndarray | None = None

    def __post_init__(self):
        n = self.grid.size
        self.port_waves = np.asarray(self.port_waves, dtype=complex)
        if self.port_waves.ndim != 3 or self.port_waves.shape[:2] != (n, 2):
            raise ModelError(
                f"port_waves shape {self.port_waves.shape} != ({n}, 2, M)"
            )
        if self.scattered is not None:
            self.scattered = np.asarray(self.scattered, dtype=complex)
            if self.scattered.shape != (n, 2, n, 2):
                raise ModelError(
                    f"scattered shape {self.scattered.shape} != ({n}, 2, {n}, 2)"
                )

    @property
    def m_ports(self) -> int:
        return self.port_waves.shape[2]


def rx_extraction_factor(frequency: float) -> complex:
    """jk sqrt(Z0) / (2 pi), about j*349.6 per volt-meter at 5.4 GHz."""
    return 1j * wavenumber(frequency) * math.sqrt(Z0_FREE_SPACE) / (2.0 * math.pi)


def extract_rx_kernel(resp: PlaneWaveResponseSet) -> np.ndarray:
    """(M, n, 2) receive kernel from the port-wave records."""
    return rx_extraction_factor(resp.frequency) * resp.port_waves.transpose(2, 0, 1)


def extract_scatter_kernel(resp: PlaneWaveResponseSet) -> np.ndarray:
    """(n, 2, n, 2) reduced scattering kernel from the scattered-field blocks."""
    if resp.scattered is None:
        raise ModelError("response set has no scattered-field blocks")
    pref = 1j * wavenumber(resp.frequency) / (2.0 * math.pi)
    # stored [in, q, out, c]; kernel indexed [out, c, in, q]
    return pref * resp.scattered.transpose(2, 3, 0, 1)


def synthesize_plane_wave_responses(
    s: RadiatingStructure, include_scatter: bool = True
) -> PlaneWaveResponseSet:
    """Analytic oracle: the responses a full-wave solver would report."""
    port_waves = s.rx_kernel.transpose(1, 2, 0) / rx_extraction_factor(s.frequency)
    scattered = None
    if include_scatter and s.scatter_kernel is not None:
        pref = 1j * wavenumber(s.frequency) / (2.0 * math.pi)
        scattered = s.scatter_kernel.transpose(2, 3, 0, 1) / pref
    return PlaneWaveResponseSet(s.frequency, s.grid, port_waves, scattered)


def structure_from_responses(
    resp: PlaneWaveResponseSet, coupling: np.ndarray | None = None
) -> RadiatingStructure:
    """Build a structure from extracted kernels.

    The transmit kernel is set equal to the extracted receive kernel, which
    assumes a reciprocal structure. Coupling defaults to zero when the
    response data does not provide one.
    """
    rx = extract_rx_kernel(resp)
    m = resp.m_ports
    if coupling is None:
        coupling = np.zeros((m, m), dtype=complex)
    scatter = extract_scatter_kernel(resp) if resp.scattered is not None else None
    return RadiatingStructure(
        m_ports=m,
        coupling=coupling,
        tx_kernel=rx.copy(),
        rx_kernel=rx,
        scatter_kernel=scatter,
        grid=resp.grid,
        frequency=resp.frequency,
    )


# ---------------------------------------------------------------------------
# response file io

_RESPONSE_MAGIC = "remskit-planewave-responses v1"
_POL_NAMES = ("theta", "phi")


def write_response_file(resp: PlaneWaveResponseSet, path: str) -> None:
    atomic_write_text(path, response_to_text(resp))


def response_to_text(resp: PlaneWaveResponseSet) -> str:
    g = resp.grid
    lines = [
        _RESPONSE_MAGIC,
        f"frequency_hz {fmt(resp.frequency)}",
        f"grid {g.n_theta} {g.n_phi}",
        f"ports {resp.m_ports}",
    ]
    th_deg = np.degrees(g.theta)
    ph_deg = np.degrees(g.phi)
    for i in range(g.size):
        for q, pol in enumerate(_POL_NAMES):
            for m in range(resp.m_ports):
                b = resp.port_waves[i, q, m]
                lines.append(
                    f"b {fmt(th_deg[i])} {fmt(ph_deg[i])} {pol} {m} "
                    f"{fmt(b.real)} {fmt(b.imag)}"
                )
    if resp.scattered is not None:
        for i in range(g.size):
            for q, pol in enumerate(_POL_NAMES):
                lines.append(f"scattered {fmt(th_deg[i])} {fmt(ph_deg[i])} {pol}")
                for j in range(g.size):
                    s = resp.scattered[i, q, j]
                    lines.append(
                        f"s {fmt(th_deg[j])} {fmt(ph_deg[j])} "
                        f"{fmt(s[0].real)} {fmt(s[0].imag)} "
                        f"{fmt(s[1].real)} {fmt(s[1].imag)}"
                    )
    return "\n".join(lines) + "\n"


def _grid_index_map(grid: DirectionGrid):
    key = lambda th, ph: (round(th, 6), round(ph, 6))
    return {
        key(math.degrees(grid.theta[i]), math.degrees(grid.phi[i])): i
        for i in range(grid.size)
    }


def read_response_file(path: str) -> PlaneWaveResponseSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_response_text(fh.read())


def parse_response_text(text: str) -> PlaneWaveResponseSet:
    from .farfield import make_latlon_grid

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
    grid = make_latlon_grid(n_theta, n_phi)
    index_map = _grid_index_map(grid)

    def dir_index(th_s: str, ph_s: str, lineno: int) -> int:
        key = (round(float(th_s), 6), round(float(ph_s), 6))
        idx = index_map.get(key)
        if idx is None:
            raise ModelError(f"line {lineno}: direction {key} not on the declared grid")
        return idx

    port_waves = np.full((grid.size, 2, m_ports), np.nan, dtype=complex)
    scattered = None
    current_block = None  # (in_idx, pol_idx)
    n_b = 0
    for lineno in range(5, len(lines) + 1):
        raw = lines[lineno - 1].strip()
        if not raw or raw.startswith("#"):
            continue
        toks = raw.split()
        try:
            if toks[0] == "b":
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
                    scattered = np.full((grid.size, 2, grid.size, 2), np.nan, dtype=complex)
                i = dir_index(toks[1], toks[2], lineno)
                if toks[3] not in _POL_NAMES:
                    raise ModelError(f"line {lineno}: polarization must be theta or phi")
                current_block = (i, _POL_NAMES.index(toks[3]))
            elif toks[0] == "s":
                if current_block is None:
                    raise ModelError(f"line {lineno}: s record outside a scattered block")
                if len(toks) != 7:
                    raise ModelError(f"line {lineno}: s record needs 6 fields")
                j = dir_index(toks[1], toks[2], lineno)
                i, q = current_block
                v0 = complex(float(toks[3]), float(toks[4]))
                v1 = complex(float(toks[5]), float(toks[6]))
                if not (cmath.isfinite(v0) and cmath.isfinite(v1)):
                    raise ModelError(f"line {lineno}: non-finite value")
                scattered[i, q, j, 0] = v0
                scattered[i, q, j, 1] = v1
            else:
                raise ModelError(f"line {lineno}: unknown record type {toks[0]!r}")
        except ModelError:
            raise
        except ValueError as err:  # float() of a malformed token
            raise ModelError(f"line {lineno}: {err}") from None

    if n_b == 0:
        raise ModelError("no records")
    if np.isnan(port_waves).any():
        raise ModelError("incomplete response set: missing direction, polarization, or port entries")
    if scattered is not None and np.isnan(scattered).any():
        raise ModelError("incomplete scattered-field blocks")
    return PlaneWaveResponseSet(frequency, grid, port_waves, scattered)


# ---------------------------------------------------------------------------
# rotation (kernel resampling)


def rotate_structure(s: RadiatingStructure, rot: np.ndarray) -> RadiatingStructure:
    """Structure rotated by the 3x3 matrix rot, via kernel resampling.

    Each kernel is re-evaluated at the back-rotated directions with the
    polarization basis reprojected. Exact when the rotation maps grid
    samples onto grid samples (e.g. z-rotations by multiples of the phi
    step); bilinear interpolation error otherwise. Analytic structures are
    better rebuilt from rotated geometry.
    """
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3) or not np.allclose(rot @ rot.T, np.eye(3), atol=1e-10):
        raise ModelError("rotation must be a 3x3 orthogonal matrix")
    grid = s.grid
    r_new, th_new, ph_new = spherical_basis(grid.theta, grid.phi)
    r_old = r_new @ rot  # rot^T applied to each row
    theta_old = np.arccos(np.clip(r_old[:, 2] / np.linalg.norm(r_old, axis=1), -1.0, 1.0))
    phi_old = np.arctan2(r_old[:, 1], r_old[:, 0])
    _, th_old, ph_old = spherical_basis(theta_old, phi_old)
    # a[i] = [theta_hat, phi_hat]_new(i)^T rot [theta_hat, phi_hat]_old(i)
    a = np.einsum(
        "ixa,xy,iyb->iab",
        np.stack([th_new, ph_new], axis=-1),
        rot,
        np.stack([th_old, ph_old], axis=-1),
    )
    stencil = grid.interp_stencil(theta_old, phi_old)

    def resample_port_kernel(kern):
        return np.einsum("iab,ibm->mia", a, blend(kern.transpose(1, 2, 0), *stencil))

    tx = resample_port_kernel(s.tx_kernel)
    rx = resample_port_kernel(s.rx_kernel)
    scatter = None
    if s.scatter_kernel is not None:
        q = _scatter_blend(s.scatter_kernel, stencil, stencil)  # [in, out, c, d]
        scatter = np.einsum("iac,jicd,jbd->iajb", a, q, a)
    return RadiatingStructure(
        m_ports=s.m_ports,
        coupling=s.coupling.copy(),
        tx_kernel=tx,
        rx_kernel=rx,
        scatter_kernel=scatter,
        grid=grid,
        frequency=s.frequency,
        extrinsic_noise_enabled=s.extrinsic_noise_enabled,
    )
