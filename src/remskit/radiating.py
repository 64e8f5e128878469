"""Radiating structures: port coupling plus sampled far-field kernels.

A structure couples M ports to the far field through three sampled kernels:
a transmit kernel (port wave to outgoing pattern), a receive kernel (incoming
pattern to port wave, paired bilinearly with area weights), and a scattering
remainder. The full scattering operator is mirror * P plus the remainder; the
free-space antipodal mirror P is applied analytically and never stored.

Also here: analytic dipole structures used as ground truth, kernel extraction
from plane-wave response data, one formatter per text format (response and
kernels), reciprocity checks, and a reciprocal random structure generator. The
passive random generator and the power oracles are test code, in tests/conftest.py.
"""

from __future__ import annotations

import cmath
import math
import os
import warnings
from dataclasses import dataclass, replace
from itertools import groupby, islice
from operator import methodcaller

import numpy as np

from .errors import ModelError
from ._textio import as_array, atomic_write_text, complex_array, count_lines, fmt, number, real_vector
from ._textio import split_lines, text_chunks
from .farfield import (
    Direction,
    DirectionGrid,
    FarFieldPattern,
    antipodal_mirror,
    blend,
    make_latlon_grid,
    spherical_basis,
)

C_LIGHT = 299792458.0
Z0_FREE_SPACE = 4.0e-7 * math.pi * C_LIGHT


def wavenumber(frequency_hz: float) -> float:
    """k = 2*pi*f/c in rad/m; a frequency that is not a positive number with a finite k is a ModelError."""
    try:
        k = 2.0 * math.pi * number(frequency_hz, "frequency") / C_LIGHT
    except ModelError:  # every refused frequency gets the one message below
        k = math.nan
    if not 0.0 < k < math.inf:
        raise ModelError(f"frequency must be positive and finite, got {frequency_hz!r}")
    return k


@dataclass
class RadiatingStructure:
    """The four blocks of the radiating-structure scattering operator.

    coupling: (M, M) port-to-port block, dimensionless; M, the port count
        m_ports, is read from it.
    tx_kernel: (M, n, 2) sampled transmit kernel, sqrt(1/sr) per sqrt(W).
    rx_kernel: (M, n, 2) sampled receive kernel; enters only through the
        area-weighted bilinear pairing sum_i b(i)^T rx[m](i) w(i).
    scatter_kernel: (n, 2, n, 2) sampled scattering remainder in 1/sr,
        indexed [out_dir, out_comp, in_dir, in_comp], or None for zero.
    mirror: coefficient of the antipodal mirror P in the full scattering
        operator mirror * P + remainder; 1 (free space) by default.
    """

    coupling: np.ndarray
    tx_kernel: np.ndarray
    rx_kernel: np.ndarray
    scatter_kernel: np.ndarray | None
    grid: DirectionGrid
    frequency: float
    mirror: float = 1.0

    def __post_init__(self):
        wavenumber(self.frequency)  # refuses a frequency that is not positive and finite
        self.mirror = number(self.mirror, "mirror")
        self.coupling = complex_array(self.coupling, "coupling")
        if self.coupling.ndim != 2 or self.coupling.shape[0] != self.coupling.shape[1]:
            raise ModelError(f"coupling shape {self.coupling.shape} is not square")
        m, n = self.m_ports, self.grid.size
        self.tx_kernel = complex_array(self.tx_kernel, "tx_kernel", (m, n, 2))
        self.rx_kernel = complex_array(self.rx_kernel, "rx_kernel", (m, n, 2))
        if self.scatter_kernel is not None:
            self.scatter_kernel = complex_array(self.scatter_kernel, "scatter_kernel", (n, 2, n, 2))
            if n > 64 * 64:
                warnings.warn(
                    f"dense scatter kernel on {n} directions exceeds the 64x64 "
                    "guideline; memory grows with the grid squared",
                    stacklevel=3,  # the frame that builds the structure, past the dataclass __init__
                )

    @property
    def m_ports(self) -> int:
        return self.coupling.shape[0]

    def tx_at(self, d) -> np.ndarray:
        """(2, M) transmit-kernel columns interpolated at d; (k, 2, M) for k directions."""
        return _port_at(self.tx_kernel, self.grid, d)

    def rx_at(self, d) -> np.ndarray:
        """(2, M) receive-kernel columns interpolated at d; (k, 2, M) for k directions."""
        return _port_at(self.rx_kernel, self.grid, d)

    def scatter_at(self, d_out: Direction, d_in: Direction) -> np.ndarray:
        """2x2 scattering remainder interpolated at (d_out; d_in), without mirror * P."""
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
    a = as_array(a, "port vector", complex, (s.m_ports,))
    return FarFieldPattern(s.grid, np.einsum("mic,m->ic", s.tx_kernel, a))


def apply_receive(s: RadiatingStructure, b: FarFieldPattern) -> np.ndarray:
    if not b.grid.compatible(s.grid):
        raise ModelError("pattern grid does not match structure grid")
    return np.einsum("ic,mic,i->m", b.values, s.rx_kernel, s.grid.weights)


def apply_scatter(s: RadiatingStructure, b: FarFieldPattern) -> FarFieldPattern:
    if not b.grid.compatible(s.grid):
        raise ModelError("pattern grid does not match structure grid")
    out = antipodal_mirror(b)
    out.values *= s.mirror
    if s.scatter_kernel is not None:
        n2 = 2 * s.grid.size  # the kernel as a (2n, 2n) matrix: a view for every kernel built here
        x = (b.values * s.grid.weights[:, None]).reshape(n2)
        out.values += (s.scatter_kernel.reshape(n2, n2) @ x).reshape(-1, 2)
    return out


# ---------------------------------------------------------------------------
# analytic structures


def hertzian_dipole(orientation, position, grid: DirectionGrid, frequency: float) -> RadiatingStructure:
    """Lossless matched Hertzian dipole, unit radiated power at unit drive.

    Minimal-scattering idealization: the reduced scattering kernel is zero,
    so the structure absorbs and re-transmits without shadowing. This is the
    standard single-antenna idealization; it is not passive as a full
    operator under illumination that overlaps the absorption pattern.
    """
    return dipole_array([(orientation, position)], grid, frequency)


def synthetic_coupling(positions, k: float, gamma: float) -> np.ndarray:
    """Exp-phase, 1/(k d) magnitude coupling profile between element pairs at 3-D positions."""
    k, gamma = number(k, "coupling wavenumber k"), number(gamma, "coupling gamma")
    if not k > 0.0:
        raise ModelError(f"coupling wavenumber k must be positive, got {k!r}")
    p, _ = real_vector(positions, "element positions", stacked=True)
    m = len(p)
    i, j = np.nonzero(~np.eye(m, dtype=bool))  # off-diagonal pairs, row by row
    _, d = real_vector(p[i] - p[j], "element separations", stacked=True)
    if not d.all():  # argmin is then the first zero distance, row by row
        raise ModelError(f"elements {i[d.argmin()]} and {j[d.argmin()]} are co-located")
    c = np.zeros((m, m), dtype=complex)
    c[i, j] = gamma * np.exp(-1j * k * d) / (k * d)
    return c


_MIRROR_SIGN = np.array([-1.0, 1.0])  # the mirror's theta/phi signs, -diag(1, -1)


def _weighted_operator_norm(coupling, tx, grid: DirectionGrid) -> float:
    """Largest singular value of the weighted block W = [[C, R_w], [K_w, P]] of a dipole array.

    R_w and K_w are the area-weighted receive and transmit kernels, and P is
    the antipodal mirror, a signed permutation, so P^H P = I. Two conditions,
    which dipole_array's kernels meet to rounding, make R_w^H = conj(K_w) and
    P^H K_w = -conj(K_w): rx = tx, and the minimum-scattering symmetry
    tx[:, antipode] * [-1, 1] = -conj(tx). Then W^H W - I vanishes outside
    ports + span(conj(K_w)), and with conj(K_w) = Q R (k = min(2n, M) rows)
    the singular values of W are those of W B = [[C, R^H], [-P Q R, P Q]],
    plus 1 for every field direction outside span(Q). As P Q has orthonormal
    columns, (W B)^H (W B) = [[C^H C + R^H R, cross^H], [cross, R R^H + I]]
    with cross = R (C - I); its last k diagonal entries are >= 1, so its
    largest eigenvalue is sigma^2 >= 1. Only R is formed; squaring costs
    about eps relative in sigma.
    """
    m, n = tx.shape[0], grid.size
    kw = tx * np.sqrt(grid.weights)[:, None]  # (M, n, 2): column j of K_w is kw[j]
    r = np.linalg.qr(kw.conj().reshape(m, 2 * n).T, mode="r")  # (k, M)
    cross = r @ (coupling - np.eye(m))
    gram = np.block([
        [coupling.conj().T @ coupling + r.conj().T @ r, cross.conj().T],
        [cross, r @ r.conj().T + np.eye(len(r))],
    ])
    return math.sqrt(np.linalg.eigvalsh(gram)[-1])


def dipole_array(
    elements,
    grid: DirectionGrid,
    frequency: float,
    coupling: np.ndarray | None = None,
    enforce_passivity: bool = False,
) -> RadiatingStructure:
    """Array of Hertzian dipoles; elements is a list of (orientation, position).

    With coupling=None the elements are ideal and uncoupled (zero coupling,
    free-space scattering P). A coupling matrix makes the structure
    interactive; enforce_passivity then divides every block by the exact
    largest singular value sigma of the whole operator (times 1 + 1e-12), so
    the scattering becomes mirror = 1/sigma with no remainder and passivity is
    certified rather than assumed. sigma is found on the at most 2M-dimensional
    subspace (the ports plus the span of the M conjugated patterns) where the
    weighted operator differs from an isometry, as an eigenvalue of a Gram
    from one QR's R factor (_weighted_operator_norm): the cost grows linearly
    with the grid. The mirror block alone has norm 1, so sigma >= 1 and every
    certified array is rescaled.
    """
    if len(elements) == 0:
        raise ModelError("dipole_array requires at least one element")
    m = len(elements)
    axes, lengths = real_vector([o for o, _ in elements], "dipole orientation", stacked=True)
    if (np.abs(lengths - 1.0) > 1e-9).any():
        raise ModelError("dipole orientation must be a unit vector")
    positions = real_vector([p for _, p in elements], "dipole position", stacked=True)[0]
    # stacked matrix-vector products: each element's kernel has the bits that
    # the same element alone (hertzian_dipole) gets
    axes, positions = axes.reshape(m, 3, 1), positions.reshape(m, 3, 1)
    r, th, ph = spherical_basis(grid.theta, grid.phi)
    phase = np.exp(1j * wavenumber(frequency) * (r @ positions))  # (M, n, 1); refuses a bad frequency
    amp = math.sqrt(3.0 / (8.0 * math.pi))
    tx = np.concatenate([amp * (th @ axes) * phase, amp * (ph @ axes) * phase], axis=-1)
    coupling = complex_array(np.zeros((m, m)) if coupling is None else coupling, "coupling", (m, m))
    scale = 1.0
    if enforce_passivity:
        scale = _weighted_operator_norm(coupling, tx, grid) * (1.0 + 1e-12)
        coupling, tx = coupling / scale, tx / scale

    return RadiatingStructure(coupling, tx, tx.copy(), None, grid, frequency, mirror=1.0 / scale)


def isotropic_radiator(grid: DirectionGrid, frequency: float, pol: str = "theta") -> RadiatingStructure:
    """Unit-gain reference: constant-magnitude pattern radiating 1 W at unit drive."""
    if not (isinstance(pol, str) and pol in _POL_NAMES):
        raise ModelError(f"unknown polarization {pol!r}")
    kern = np.zeros((1, grid.size, 2), dtype=complex)
    kern[0, :, _POL_NAMES.index(pol)] = 1.0 / math.sqrt(4.0 * math.pi)
    return RadiatingStructure(np.zeros((1, 1), dtype=complex), kern, kern.copy(), None, grid, frequency)


def random_reciprocal_structure(
    grid: DirectionGrid, m_ports: int, rng: np.random.Generator, frequency: float
) -> RadiatingStructure:
    """Random structure satisfying the reciprocity symmetries exactly."""
    m, n = m_ports, grid.size
    c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    coupling = 0.1 * (c + c.T)
    tx = 0.3 * (rng.standard_normal((m, n, 2)) + 1j * rng.standard_normal((m, n, 2)))
    sc = 0.3 * (rng.standard_normal((n, 2, n, 2)) + 1j * rng.standard_normal((n, 2, n, 2)))
    # symmetrize: S(d; d') = S(d'; d)^T
    scatter = 0.5 * (sc + sc.transpose(2, 3, 0, 1))
    return RadiatingStructure(coupling, tx, tx.copy(), scatter, grid, frequency)


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
    tol = number(tol, "reciprocity tol")
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
    A non-finite entry or frequency is a ModelError, so every set that
    write_response_file writes parses back.
    """

    frequency: float
    grid: DirectionGrid
    port_waves: np.ndarray
    scattered: np.ndarray | None = None

    def __post_init__(self):
        n = self.grid.size
        wavenumber(self.frequency)  # refuses a frequency that is not positive and finite
        self.port_waves = complex_array(self.port_waves, "port_waves")
        if self.port_waves.ndim != 3 or self.port_waves.shape[:2] != (n, 2):
            raise ModelError(f"port_waves shape {self.port_waves.shape} != ({n}, 2, M)")
        if self.scattered is not None:
            self.scattered = complex_array(self.scattered, "scattered", (n, 2, n, 2))

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


def synthesize_plane_wave_responses(s: RadiatingStructure) -> PlaneWaveResponseSet:
    """Analytic oracle: the responses a full-wave solver would report."""
    port_waves = s.rx_kernel.transpose(1, 2, 0) / rx_extraction_factor(s.frequency)
    reduced = s.scatter_kernel
    if s.mirror != 1.0:  # the reduced kernel: remainder + (mirror - 1) P / w
        n = s.grid.size
        reduced = np.zeros((n, 2, n, 2), dtype=complex) if reduced is None else reduced.copy()
        delta = (s.mirror - 1.0) / s.grid.weights
        reduced[np.arange(n), :, s.grid.antipode, :] += delta[:, None, None] * np.diag(_MIRROR_SIGN)
    scattered = None
    if reduced is not None:
        pref = 1j * wavenumber(s.frequency) / (2.0 * math.pi)
        scattered = reduced.transpose(2, 3, 0, 1) / pref
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
    coupling = np.zeros((resp.m_ports,) * 2, dtype=complex) if coupling is None else coupling
    scatter = extract_scatter_kernel(resp) if resp.scattered is not None else None
    return RadiatingStructure(coupling, rx.copy(), rx, scatter, resp.grid, resp.frequency)


# ---------------------------------------------------------------------------
# response and kernel file io

_RESPONSE_MAGIC = "remskit-planewave-responses v1"
_KERNELS_MAGIC = "remskit-kernels v1"
_POL_NAMES = ("theta", "phi")


def _header_lines(magic: str, frequency: float, grid: DirectionGrid, m_ports: int) -> list[str]:
    return [
        magic,
        f"frequency_hz {fmt(frequency)}",
        f"grid {grid.n_theta} {grid.n_phi}",
        f"ports {m_ports}",
    ]


def _direction_labels(grid: DirectionGrid) -> list[str]:
    """The "theta phi" text of every grid direction in degrees, as fmt writes it."""
    theta, phi = np.degrees(grid.theta).tolist(), np.degrees(grid.phi).tolist()
    return [f"{th!r} {ph!r}" for th, ph in zip(theta, phi)]


# The writers read values with .tolist() and write them with repr, the shortest
# round-trip text fmt gives, so the same data always gives the same bytes. Each
# format has one formatter, a chunk generator: the header and the per-direction
# records as one chunk, then one chunk per scattering block, each ending in a
# newline. The file writers stream the chunks, so a write holds one block's
# text at a time, not the file's.


def write_response_file(resp: PlaneWaveResponseSet, path: str) -> None:
    atomic_write_text(path, _response_chunks(resp))


def _response_chunks(resp: PlaneWaveResponseSet):
    g = resp.grid
    labels = _direction_labels(g)
    lines = _header_lines(_RESPONSE_MAGIC, resp.frequency, g, resp.m_ports)
    for label, waves in zip(labels, resp.port_waves.tolist()):
        for pol, row in zip(_POL_NAMES, waves):
            lines += [f"b {label} {pol} {m} {b.real!r} {b.imag!r}" for m, b in enumerate(row)]
    lines.append("")
    yield "\n".join(lines)
    if resp.scattered is not None:
        heads = ["s " + label for label in labels]
        for i, label in enumerate(labels):
            for pol, block in zip(_POL_NAMES, resp.scattered[i].tolist()):
                lines = [f"scattered {label} {pol}"]
                lines += [
                    f"{h} {a.real!r} {a.imag!r} {b.real!r} {b.imag!r}" for h, (a, b) in zip(heads, block)
                ]
                lines.append("")
                yield "\n".join(lines)


def _kernels_chunks(
    frequency: float, grid: DirectionGrid, rx_kernel: np.ndarray, scatter_kernel: np.ndarray | None
):
    """The remskit-kernels v1 text of an (M, n, 2) receive and an optional (n, 2, n, 2) scattering kernel.

    One "rx m theta phi re0 im0 re1 im1" line per port and direction, then one
    "scatter theta phi pol theta' phi' pol' re im" line per kernel entry
    [out_dir, out_comp, in_dir, in_comp].
    """
    labels = _direction_labels(grid)
    lines = _header_lines(_KERNELS_MAGIC, frequency, grid, rx_kernel.shape[0])
    for m, kernel in enumerate(rx_kernel.tolist()):
        lines += [
            f"rx {m} {label} {a.real!r} {a.imag!r} {b.real!r} {b.imag!r}"
            for label, (a, b) in zip(labels, kernel)
        ]
    lines.append("")
    yield "\n".join(lines)
    if scatter_kernel is not None:
        tails = [f"{label} {pol}" for label in labels for pol in _POL_NAMES]
        for i, label in enumerate(labels):
            for pol, row in zip(_POL_NAMES, scatter_kernel[i].reshape(2, -1).tolist()):
                head = f"scatter {label} {pol} "
                lines = [f"{head}{t} {v.real!r} {v.imag!r}" for t, v in zip(tails, row)]
                lines.append("")
                yield "\n".join(lines)


def _angle_keys(radians, step: int = 1) -> dict:
    """{round(degrees, 6): step * index} over a grid's ring thetas or column phis.

    The later of equal keys wins, as it would in a map of whole directions.
    """
    return {round(math.degrees(x), 6): step * i for i, x in enumerate(radians.tolist())}


def _run_indices(angles: np.ndarray, ring: dict, column: dict):
    """The grid indices of a run's (k, 2) direction columns, each once, and the row of its last record.

    Python's round is applied once per distinct angle, so the keys are the
    per-line reader's. None if a direction is off the grid.
    """
    thetas, phis = angles.T.tolist()
    rows = {x: ring.get(round(x, 6)) for x in set(thetas)}
    cols = {x: column.get(round(x, 6)) for x in set(phis)}
    if None in rows.values() or None in cols.values():
        return None
    last = {rows[th] + cols[ph]: k for k, (th, ph) in enumerate(zip(thetas, phis))}
    return np.fromiter(last, np.intp, len(last)), np.fromiter(last.values(), np.intp, len(last))


def _convert_s_run(run: list, ring: dict, column: dict, layouts: dict):
    """The grid indices and (k, 2) values of a run of s record bodies, converted in bulk.

    Each direction keeps its last record. layouts holds the previous run's
    _run_indices under its direction columns' bytes, since runs usually list
    the same directions in the same order. NumPy's reader converts with the
    same correctly rounded routine as float() but accepts less (no "1_0", no
    non-ASCII digits), so None, for any record it refuses or any failed
    check, sends the run to the per-line reader, which stores what float()
    accepts or raises the first bad line's error.
    """
    if not run[0].strip():  # loadtxt skips blank bodies, and warns when all are
        return None
    try:
        values = np.loadtxt(run, comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(run), 6) or not np.isfinite(values).all():
        return None
    angles = values[:, :2]
    key = angles.tobytes()
    if key not in layouts:
        layouts.clear()
        layouts[key] = _run_indices(angles, ring, column)
    if layouts[key] is None:
        return None
    js, last = layouts[key]
    return js, values[last, 2:].view(complex)


def read_response_file(path: str) -> PlaneWaveResponseSet:
    """The response set in the remskit-planewave-responses v1 file at path, read as a stream.

    A first pass checks the UTF-8 and counts the lines, so an undecodable
    byte is reported ahead of any record error and the allocation checks
    know the line count; the second parses the lines chunk by chunk. Either
    holds about one chunk of text, so the memory a read takes is the result's
    arrays and that.
    """
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe can be read once: parse its whole text
            return parse_response_text("".join(text_chunks(fh, path)))
        size = os.fstat(fh.fileno()).st_size
        n_lines = count_lines(text_chunks(fh, path, size))
        fh.seek(0)
        return _parse_response_lines(split_lines(text_chunks(fh, path, size)), n_lines)


def parse_response_text(text: str) -> PlaneWaveResponseSet:
    """The response set in a remskit-planewave-responses v1 text."""
    lines = text.splitlines()
    return _parse_response_lines(iter(lines), len(lines))


def _records(lines, ring: dict, column: dict, most: int):
    """(lineno, line, None) for each line from line 5 on, except that each
    run of consecutive s records (an "s", then a space or a tab), at most
    `most` of them, that _convert_s_run converts comes as one (lineno, first
    line, (js, values))."""
    lineno, layouts = 5, {}
    for is_s, group in groupby(lines, methodcaller("startswith", ("s ", "s\t"))):
        if not is_s:
            for line in group:
                yield lineno, line, None
                lineno += 1
            continue
        while run := list(islice(group, most)):
            converted = _convert_s_run([rec[2:] for rec in run], ring, column, layouts)
            if converted is not None:
                yield lineno, run[0], converted
            else:
                yield from ((lineno + k, line, None) for k, line in enumerate(run))
            lineno += len(run)


def _parse_response_lines(lines, n_lines: int) -> PlaneWaveResponseSet:
    """The response set in the iterator of n_lines lines of a response text.

    Each run of consecutive s lines in a scattered block is converted in
    bulk (_records); every other line, and any run the bulk path refuses, is
    read per line, which is the only source of errors. Records are stored in
    file order, so a later line that restates a direction wins.
    """
    first = next(lines, None)
    if first is None or first.strip() != _RESPONSE_MAGIC:
        raise ModelError("line 1: not a plane-wave response file")
    header = []
    for lineno, (key, count, kind, low) in enumerate(
        (("frequency_hz", 1, float, None), ("grid", 2, int, None), ("ports", 1, int, 1)), start=2
    ):
        if lineno > n_lines:
            raise ModelError(f"line {lineno}: missing {key} header")
        toks = next(lines, "").split()
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
    if n_lines - 4 < 2 * n * m_ports:
        raise ModelError(
            "no records" if n_lines == 4 else "incomplete response set: too few lines for its header"
        )
    grid = make_latlon_grid(n_theta, n_phi)
    # the grid is rings x columns, so a direction's index is its ring's plus its column's
    ring, column = _angle_keys(grid.theta[::n_phi], n_phi), _angle_keys(grid.phi[:n_phi])

    isfinite = math.isfinite
    dirs = {}  # direction tokens already looked up -> grid index

    def dir_index(th_s: str, ph_s: str, lineno: int) -> int:
        idx = dirs.get((th_s, ph_s))
        if idx is None:
            key = (round(float(th_s), 6), round(float(ph_s), 6))
            row, col = ring.get(key[0]), column.get(key[1])
            if row is None or col is None:
                raise ModelError(f"line {lineno}: direction {key} not on the declared grid")
            idx = dirs[th_s, ph_s] = row + col
        return idx

    port_waves = np.full((grid.size, 2, m_ports), np.nan, dtype=complex)
    scattered = block = None  # block: the open scattered block, the view scattered[in_idx, pol_idx]
    n_b = 0
    for lineno, line, converted in _records(lines, ring, column, n):
        if converted is not None and block is not None:
            js, values = converted
            block[js] = values
            continue
        toks = line.split()  # a converted run outside a block raises at its first line
        if not toks:
            continue
        try:
            if toks[0] == "s":
                if block is None:
                    raise ModelError(f"line {lineno}: s record outside a scattered block")
                if len(toks) != 7:
                    raise ModelError(f"line {lineno}: s record needs 6 fields")
                j = dir_index(toks[1], toks[2], lineno)
                re0, im0, re1, im1 = float(toks[3]), float(toks[4]), float(toks[5]), float(toks[6])
                if not (isfinite(re0) and isfinite(im0) and isfinite(re1) and isfinite(im1)):
                    raise ModelError(f"line {lineno}: non-finite value")
                block[j, 0], block[j, 1] = complex(re0, im0), complex(re1, im1)
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
                    if n_lines - lineno + 1 < 2 * n * (n + 1):
                        raise ModelError(f"line {lineno}: incomplete scattered-field blocks: too few lines")
                    scattered = np.full((n, 2, n, 2), np.nan, dtype=complex)
                i = dir_index(toks[1], toks[2], lineno)
                if toks[3] not in _POL_NAMES:
                    raise ModelError(f"line {lineno}: polarization must be theta or phi")
                block = scattered[i, _POL_NAMES.index(toks[3])]
            elif not toks[0].startswith("#"):  # a comment otherwise
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
    step); bilinear interpolation error otherwise. Every other field, mirror
    included (P commutes with rotations), carries over unchanged. Analytic
    structures are better rebuilt from rotated geometry.
    """
    rot, _ = real_vector(rot, "rotation", stacked=True)  # its rows
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

    scatter = None
    if s.scatter_kernel is not None:
        q = _scatter_blend(s.scatter_kernel, stencil, stencil)  # [in, out, c, d]
        scatter = np.einsum("iac,jicd,jbd->iajb", a, q, a)
    return replace(
        s,
        coupling=s.coupling.copy(),
        tx_kernel=resample_port_kernel(s.tx_kernel),
        rx_kernel=resample_port_kernel(s.rx_kernel),
        scatter_kernel=scatter,
    )
