"""Spherical direction grids and far-field power-wave patterns.

A pattern stores one complex 2-vector (theta-hat, phi-hat components) per
grid direction, in sqrt(W/sr). The grid carries positive area weights that
sum to 4*pi, so the weighted sum of squared pattern magnitudes is the total
radiated power in watts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError
from ._textio import atomic_write_text, csv_text, fmt

FOUR_PI = 4.0 * math.pi

# stencil entries that take the upper ring i1 / the next phi column j1
_UPPER_RING = np.array([False, False, True, True])
_UPPER_COL = np.array([False, True, False, True])

PATTERN_CSV_HEADER = (
    "theta_deg,phi_deg,re_a_theta,im_a_theta,re_a_phi,im_a_phi,intensity_W_per_sr"
)


@dataclass(frozen=True)
class Direction:
    """A direction on the sphere, physicist's convention.

    theta in [0, pi] measured from +z, phi in [0, 2*pi) from +x. Negative
    theta inputs are folded with the (-theta, phi+pi) convention used for
    pattern-slice plots.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi):
            raise ModelError(
                f"direction theta {self.theta} outside [0, pi]; "
                "use Direction.canonical for folding"
            )
        if not (0.0 <= self.phi < 2.0 * math.pi):
            raise ModelError(f"direction phi {self.phi} outside [0, 2*pi)")

    @staticmethod
    def canonical(theta: float, phi: float) -> "Direction":
        if theta < 0.0:
            theta = -theta
            phi = phi + math.pi
        if theta > math.pi:
            raise ModelError(f"cannot canonicalize theta {theta} > pi")
        phi = math.fmod(phi, 2.0 * math.pi)
        if phi < 0.0:
            phi += 2.0 * math.pi
        # fmod can land exactly on 2*pi after the += above
        if phi >= 2.0 * math.pi:
            phi = 0.0
        return Direction(theta, phi)

    @staticmethod
    def from_degrees(theta_deg: float, phi_deg: float) -> "Direction":
        return Direction.canonical(math.radians(theta_deg), math.radians(phi_deg))

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


def direction_from_vector(v) -> Direction:
    """Direction of a nonzero 3-vector."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ModelError("zero vector has no direction")
    theta = math.acos(max(-1.0, min(1.0, v[2] / n)))
    phi = math.atan2(v[1], v[0])
    return Direction.canonical(theta, phi)


def spherical_basis(theta, phi):
    """Unit vectors (r_hat, theta_hat, phi_hat) at (theta, phi), each (..., 3).

    theta and phi are scalars or equal-shape arrays.
    """
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    r_hat = np.stack([st * cp, st * sp, ct], axis=-1)
    theta_hat = np.stack([ct * cp, ct * sp, -st], axis=-1)
    phi_hat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return r_hat, theta_hat, phi_hat


def blend(values, idx, w) -> np.ndarray:
    """Stencil sum of values[idx[..., k]] * w[..., k] over the four entries k.

    values is indexed along its first axis; the result has shape
    idx.shape[:-1] + values.shape[1:]. The terms are added in stencil order
    starting from +0.0, which gives the same bits as accumulating only the
    nonzero-weight terms one at a time.
    """
    w = w.reshape(idx.shape[:-1] + (1,) * (values.ndim - 1) + (4,))

    def term(k):
        return w[..., k] * values[idx[..., k]]

    return 0.0 + term(0) + term(1) + term(2) + term(3)


@dataclass(frozen=True)
class DirectionGrid:
    """Equiangular cell-centered direction set with exact cell-area weights.

    Row-major layout: index = i * n_phi + j with theta ring i and phi column
    j. n_phi must be even so the grid is closed under the antipodal map
    (theta, phi) -> (pi - theta, phi + pi), which the scattering mirror term
    requires.
    """

    n_theta: int
    n_phi: int
    theta: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    antipode: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.n_theta * self.n_phi

    def compatible(self, other: "DirectionGrid") -> bool:
        return self.n_theta == other.n_theta and self.n_phi == other.n_phi

    def index_of(self, i: int, j: int) -> int:
        return i * self.n_phi + j

    def direction(self, idx: int) -> Direction:
        return Direction(float(self.theta[idx]), float(self.phi[idx]))

    def interp_stencil(self, theta, phi):
        """Bilinear stencil at (theta, phi): grid indices and weights, each (..., 4).

        theta and phi are scalars or equal-shape arrays. phi wraps around;
        theta is clamped to the first/last ring centers (pole cells have no
        partner ring beyond them). Entries are ordered (i0, j0), (i0, j1),
        (i1, j0), (i1, j1) for ring i1 = i0 + 1 (i1 = i0 on a clamped ring)
        and column j1 = j0 + 1 modulo n_phi.
        """
        t = np.asarray(theta, dtype=float) / (math.pi / self.n_theta) - 0.5
        inside = (t > 0.0) & (t < self.n_theta - 1)
        t = np.minimum(np.maximum(t, 0.0), self.n_theta - 1)
        i0 = np.floor(t)
        ft = (t - i0)[..., None]
        u = np.mod(phi, 2.0 * math.pi) / (2.0 * math.pi / self.n_phi)
        j0 = np.floor(u)
        fu = (u - j0)[..., None]
        rows = (i0[..., None] + (inside[..., None] & _UPPER_RING)) * self.n_phi
        cols = (j0[..., None] + _UPPER_COL) % self.n_phi
        w = np.where(_UPPER_RING, ft, 1.0 - ft) * np.where(_UPPER_COL, fu, 1.0 - fu)
        return (rows + cols).astype(int), w


def make_latlon_grid(n_theta: int, n_phi: int) -> DirectionGrid:
    """Build the cell-centered latitude-longitude grid.

    Weights are exact cell integrals d_phi * (cos(theta_lo) - cos(theta_hi)),
    so they telescope to 4*pi. Requires n_theta >= 2 and even n_phi >= 2.
    """
    if n_theta < 2 or n_phi < 2:
        raise ModelError(f"grid resolution ({n_theta}, {n_phi}) below minimum (2, 2)")
    if n_phi % 2 != 0:
        raise ModelError(
            f"n_phi = {n_phi} is odd; antipodal closure requires even n_phi"
        )
    dt = math.pi / n_theta
    dp = 2.0 * math.pi / n_phi
    theta_c = (np.arange(n_theta) + 0.5) * dt
    ring_w = dp * (np.cos(np.arange(n_theta) * dt) - np.cos(np.arange(1, n_theta + 1) * dt))
    # symmetrize so mirror-image rings carry bit-identical weights
    ring_w = 0.5 * (ring_w + ring_w[::-1])
    phi_c = np.arange(n_phi) * dp

    theta = np.repeat(theta_c, n_phi)
    phi = np.tile(phi_c, n_theta)
    weights = np.repeat(ring_w, n_phi)

    ii = np.repeat(np.arange(n_theta), n_phi)
    jj = np.tile(np.arange(n_phi), n_theta)
    antipode = (n_theta - 1 - ii) * n_phi + (jj + n_phi // 2) % n_phi

    return DirectionGrid(n_theta, n_phi, theta, phi, weights, antipode)


@dataclass
class FarFieldPattern:
    """Sampled far-field power-wave pattern a_F or b_F.

    values has shape (grid.size, 2); column 0 is the theta-hat component,
    column 1 the phi-hat component, both in sqrt(W/sr).
    """

    grid: DirectionGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.size, 2):
            raise ModelError(
                f"pattern values shape {self.values.shape} does not match "
                f"grid size ({self.grid.size}, 2)"
            )

    def copy(self) -> "FarFieldPattern":
        return FarFieldPattern(self.grid, self.values.copy())

    def __add__(self, other: "FarFieldPattern") -> "FarFieldPattern":
        if not self.grid.compatible(other.grid):
            raise ModelError("pattern grids do not match")
        return FarFieldPattern(self.grid, self.values + other.values)

    def __sub__(self, other: "FarFieldPattern") -> "FarFieldPattern":
        if not self.grid.compatible(other.grid):
            raise ModelError("pattern grids do not match")
        return FarFieldPattern(self.grid, self.values - other.values)

    def scaled(self, c: complex) -> "FarFieldPattern":
        return FarFieldPattern(self.grid, self.values * c)

    def at(self, d: Direction) -> np.ndarray:
        """Complex 2-vector at d, bilinearly interpolated off-grid."""
        return blend(self.values, *self.grid.interp_stencil(d.theta, d.phi))


def zero_pattern(grid: DirectionGrid) -> FarFieldPattern:
    return FarFieldPattern(grid, np.zeros((grid.size, 2), dtype=complex))


def impulse_pattern(grid: DirectionGrid, d: Direction, coeff) -> FarFieldPattern:
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


def inner_product(p: FarFieldPattern, q: FarFieldPattern) -> complex:
    """Discrete L2 inner product, linear in p and conjugate-linear in q."""
    if not p.grid.compatible(q.grid):
        raise ModelError("inner_product requires patterns on one grid")
    return complex(np.sum(p.grid.weights * np.sum(p.values * np.conj(q.values), axis=1)))


def total_power(p: FarFieldPattern) -> float:
    return float(np.real(inner_product(p, p)))


def intensity(p: FarFieldPattern, d: Direction) -> float:
    """Radiation intensity ||p(d)||^2 in W/sr."""
    v = p.at(d)
    return float(np.real(np.vdot(v, v)))


def antipodal_mirror(p: FarFieldPattern) -> FarFieldPattern:
    """Output at (theta, phi) is -diag(1, -1) * p(pi - theta, pi + phi)."""
    src = p.values[p.grid.antipode]
    out = np.empty_like(src)
    out[:, 0] = -src[:, 0]
    out[:, 1] = src[:, 1]
    return FarFieldPattern(p.grid, out)


def pattern_to_csv(p: FarFieldPattern) -> str:
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


def write_pattern_csv(p: FarFieldPattern, path: str) -> None:
    atomic_write_text(path, pattern_to_csv(p))
