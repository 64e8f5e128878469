"""Multiport scattering algebra, Touchstone files, tuning networks, frontends.

Conventions: real reference resistance r0 at every port, power waves
a = (v + r0 i) / (2 sqrt(r0)), b = (v - r0 i) / (2 sqrt(r0)). Tuning networks
order frontend ports first, radiating ports last.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericsError
from ._textio import atomic_write_text, fmt, number

COND_LIMIT = 1e12
CERTIFIED_COND = 1e-3 * COND_LIMIT
PASSIVITY_TOL = 1e-9


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


def reflection_coefficient(z, r0: float):
    """Gamma = (z - r0) / (z + r0), elementwise."""
    z = np.asarray(z, dtype=complex)
    return (z - r0) / (z + r0)


def max_singular_value(s: np.ndarray) -> float:
    return float(np.linalg.svd(np.asarray(s, dtype=complex), compute_uv=False)[0])


def is_passive(s: np.ndarray, tol: float = PASSIVITY_TOL) -> bool:
    return max_singular_value(s) <= 1.0 + tol


def is_reciprocal(s: np.ndarray, tol: float = 1e-9) -> bool:
    s = np.asarray(s, dtype=complex)
    return bool(np.max(np.abs(s - s.T)) <= tol)


def condition_number(mat: np.ndarray) -> float:
    """2-norm condition number: the ratio of the extreme singular values, inf when singular."""
    s = np.linalg.svd(mat, compute_uv=False)
    return s[0] / s[-1] if s[-1] > 0.0 else math.inf


def check_condition(mat: np.ndarray, what: str) -> None:
    """Raise NumericsError unless mat's 2-norm condition number is at most COND_LIMIT.

    An empty system is well-conditioned.
    """
    if mat.size == 0:
        return
    cond = condition_number(mat)
    if not cond <= COND_LIMIT:
        raise NumericsError(f"{what}: condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")


def checked_inv(a: np.ndarray, what: str) -> np.ndarray:
    """Inverse of a matrix, or of each matrix of a (..., k, k) stack, under check_condition's rule.

    ||A||_F ||A^-1||_F bounds the 2-norm condition number from above, so a
    matrix whose bound is at most CERTIFIED_COND passes without an SVD; the
    1e-3 margin to COND_LIMIT covers the rounding in the computed inverse, so
    the decision is the one check_condition makes. Every other matrix gets the
    exact rule, a singular one (LU) fails with condition number inf, and the
    first failing matrix raises NumericsError.
    """
    a = np.asarray(a)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise NumericsError(f"{what}: condition number inf exceeds {COND_LIMIT:.0e}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        bound2 = _frobenius2(a) * _frobenius2(inv)
    uncertified = ~(bound2 <= CERTIFIED_COND**2)
    if uncertified.any():  # np.argwhere costs more than a small inverse; skip it when all pass
        for idx in map(tuple, np.argwhere(uncertified)):
            check_condition(a[idx], what)
    return inv


def _frobenius2(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack."""
    flat = x.reshape(x.shape[:-2] + (-1,))
    return np.vecdot(flat, flat).real


def reduce_terminated_ports(s: np.ndarray, keep, gamma) -> np.ndarray:
    """Fold reflective terminations into a smaller scattering matrix.

    Ports in `keep` stay external; every other port p is terminated with the
    reflection gamma[k] (ordered as the terminated ports appear in s). The
    result is S_AA + S_AB G (I - S_BB G)^-1 S_BA. A (..., t) stack of
    reflection vectors gives the (..., a, a) stack of reduced matrices.
    """
    s = np.asarray(s, dtype=complex)
    n = s.shape[0]
    if s.shape != (n, n):
        raise ModelError(f"scattering matrix must be square, got {s.shape}")
    keep = list(keep)
    kept = set(keep)
    term = [p for p in range(n) if p not in kept]
    gamma = np.asarray(gamma, dtype=complex)
    if gamma.shape[-1:] != (len(term),):
        raise ModelError(f"need {len(term)} termination reflections, got {gamma.shape}")
    s_aa = s[np.ix_(keep, keep)]
    if not term:
        return np.broadcast_to(s_aa, gamma.shape[:-1] + s_aa.shape).copy()
    s_ab = s[np.ix_(keep, term)]
    s_ba = s[np.ix_(term, keep)]
    s_bb = s[np.ix_(term, term)]
    g = gamma[..., None, :]  # G is diagonal: scale the columns
    loop = np.eye(len(term)) - s_bb * g
    return s_aa + (s_ab * g) @ (checked_inv(loop, "terminated-port reduction") @ s_ba)


# ---------------------------------------------------------------------------
# tuning networks


@dataclass
class TuningNetwork:
    """(n_frontend + m_radiating)-port network between frontend and structure.

    s may also be a (..., dim, dim) stack of networks with one port layout.
    """

    n_frontend: int
    m_radiating: int
    s: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=complex)
        dim = self.n_frontend + self.m_radiating
        if self.s.shape[-2:] != (dim, dim):
            raise ModelError(f"tuning matrix shape {self.s.shape} != ({dim}, {dim})")

    @property
    def s_tt(self) -> np.ndarray:
        return self.s[..., : self.n_frontend, : self.n_frontend]

    @property
    def s_tr(self) -> np.ndarray:
        return self.s[..., : self.n_frontend, self.n_frontend :]

    @property
    def s_rt(self) -> np.ndarray:
        return self.s[..., self.n_frontend :, : self.n_frontend]

    @property
    def s_rr(self) -> np.ndarray:
        return self.s[..., self.n_frontend :, self.n_frontend :]


def through_tuning(n: int) -> TuningNetwork:
    """Ideal n-to-n pass-through."""
    s = np.zeros((2 * n, 2 * n), dtype=complex)
    s[:n, n:] = np.eye(n)
    s[n:, :n] = np.eye(n)
    return TuningNetwork(n, n, s)


def inline_tuning(gains) -> TuningNetwork:
    """Matched per-chain two-port with transmission coefficient gains[i]."""
    gains = np.asarray(gains, dtype=complex)
    n = gains.shape[0]
    s = np.zeros((2 * n, 2 * n), dtype=complex)
    s[:n, n:] = np.diag(gains)
    s[n:, :n] = np.diag(gains)
    return TuningNetwork(n, n, s)


def feedthrough_reflector_fixed(n: int, m: int, r: int) -> np.ndarray:
    """Fixed (n + m + r)-port core of a reflective reconfigurable network.

    Port layout [frontend | radiating | control]. Frontend chain i feeds
    radiating port i directly; radiating port n + j hangs on control port j,
    where a tunable reflective load is attached. Requires m = n + r.
    """
    if m != n + r:
        raise ModelError(f"feedthrough-reflector layout needs m = n + r, got {n}+{r} != {m}")
    dim = n + m + r
    s = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        s[i, n + i] = 1.0
        s[n + i, i] = 1.0
    for j in range(r):
        s[n + n + j, n + m + j] = 1.0
        s[n + m + j, n + n + j] = 1.0
    return s


def reconfigurable_tuning(fixed_s: np.ndarray, n: int, m: int, gammas) -> TuningNetwork:
    """Terminate the trailing control ports of fixed_s with reflections.

    A (K, r) stack of reflections gives a network holding K scattering
    matrices.
    """
    return TuningNetwork(n, m, reduce_terminated_ports(fixed_s, range(n + m), gammas))


# ---------------------------------------------------------------------------
# RF frontend


@dataclass
class RFFrontend:
    """Source and load one-ports behind the tuning network.

    z_tx[i]: output impedance of transmit chain i (Thevenin source v_tx[i]).
    z_rx[j]: input impedance of receive chain j, with series noise voltage
    v_gamma[j] and shunt noise current i_gamma[j].
    """

    z_tx: np.ndarray
    z_rx: np.ndarray
    r0: float = 50.0

    def __post_init__(self):
        self.z_tx = np.atleast_1d(np.asarray(self.z_tx, dtype=complex))
        self.z_rx = np.atleast_1d(np.asarray(self.z_rx, dtype=complex))
        if not (np.all(np.isfinite(self.z_tx)) and np.all(np.isfinite(self.z_rx))):
            raise ModelError("frontend impedances must be finite")
        if np.any(self.z_tx.real <= 0.0):
            raise ModelError("transmit impedances must have positive real part")
        if np.any(self.z_rx.real < 0.0):
            raise ModelError("receive impedances must have nonnegative real part")
        if not (math.isfinite(self.r0) and self.r0 > 0.0):
            raise ModelError("reference resistance must be positive and finite")

    @property
    def n_tx(self) -> int:
        return self.z_tx.shape[0]

    @property
    def n_rx(self) -> int:
        return self.z_rx.shape[0]

    @property
    def n(self) -> int:
        return self.n_tx + self.n_rx

    def s_rf(self) -> np.ndarray:
        """Diagonal reflection block of all N frontend one-ports."""
        g_tx = reflection_coefficient(self.z_tx, self.r0)
        g_rx = reflection_coefficient(self.z_rx, self.r0)
        return np.diag(np.concatenate([g_tx, g_rx]))

    def k_vtx(self) -> np.ndarray:
        """(N, n_tx) injection matrix for the transmit source voltages."""
        k = np.zeros((self.n, self.n_tx), dtype=complex)
        k[: self.n_tx, :] = np.diag(math.sqrt(self.r0) / (self.z_tx + self.r0))
        return k

    def k_vgamma(self) -> np.ndarray:
        """(N, n_rx) injection matrix for the series noise voltages."""
        k = np.zeros((self.n, self.n_rx), dtype=complex)
        k[self.n_tx :, :] = np.diag(math.sqrt(self.r0) / (self.z_rx + self.r0))
        return k

    def k_igamma(self) -> np.ndarray:
        """(N, n_rx) injection matrix for the shunt noise currents."""
        k = np.zeros((self.n, self.n_rx), dtype=complex)
        k[self.n_tx :, :] = np.diag(math.sqrt(self.r0) * self.z_rx / (self.z_rx + self.r0))
        return k

    def k_vrx(self) -> np.ndarray:
        """(n_rx, N) readout matrix: v_rx = k_vrx (b_T - a_T) + Z_rx i_gamma."""
        k = np.zeros((self.n_rx, self.n), dtype=complex)
        k[:, self.n_tx :] = np.diag(self.z_rx / math.sqrt(self.r0))
        return k

    def z_rx_diag(self) -> np.ndarray:
        return np.diag(self.z_rx)

    def available_power(self, v_tx) -> float:
        """P_A = v^H Re(Z_tx)^-1 v / 4 for Thevenin sources v behind Z_tx."""
        v = np.asarray(v_tx, dtype=complex)
        return float(np.real(np.vdot(v, v / self.z_tx.real)) / 4.0)

    def conjugate_match_tuning(self) -> np.ndarray:
        """S_TT block that presents the conjugate of each source impedance."""
        return np.diag((np.conj(self.z_tx) - self.r0) / (np.conj(self.z_tx) + self.r0))


# ---------------------------------------------------------------------------
# Touchstone v1


_UNIT_HZ = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


@dataclass
class TouchstoneData:
    """Touchstone v1 content in its on-disk numeric form.

    `columns[f, k]` holds the two raw numbers of matrix entry k (row-major)
    at frequency index f, in the file's format (RI, MA with degrees, or DB
    with degrees). Complex matrices are derived views; building them from
    the raw pairs on both the write and the parse side is what makes a
    write/parse cycle the identity.
    """

    n_ports: int
    frequency_unit: str
    format: str
    reference: float
    frequencies: np.ndarray
    columns: np.ndarray

    def __post_init__(self):
        self.frequency_unit = self.frequency_unit.lower()
        self.format = self.format.lower()
        if self.frequency_unit not in _UNIT_HZ:
            raise ModelError(f"unknown frequency unit {self.frequency_unit!r}")
        if self.format not in ("ri", "ma", "db"):
            raise ModelError(f"unknown format {self.format!r}")
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.columns = np.asarray(self.columns, dtype=float)
        f = self.frequencies.shape[0]
        if self.columns.shape != (f, self.n_ports * self.n_ports, 2):
            raise ModelError(
                f"columns shape {self.columns.shape} != ({f}, {self.n_ports ** 2}, 2)"
            )
        if not (math.isfinite(self.reference) and self.reference > 0.0):
            raise ModelError(f"reference resistance {self.reference} must be positive and finite")
        if not np.all(np.isfinite(self.frequencies)):
            raise ModelError("frequencies must be finite")
        if np.any(np.diff(self.frequencies) <= 0.0):
            raise ModelError("frequencies must be strictly increasing")
        # the one non-finite number a file may hold: a zero magnitude in dB
        finite = np.isfinite(self.columns)
        if self.format == "db":
            finite[..., 0] |= self.columns[..., 0] == -math.inf
        if not finite.all():
            raise ModelError("S-parameter data must be finite")

    @property
    def frequencies_hz(self) -> np.ndarray:
        return self.frequencies * _UNIT_HZ[self.frequency_unit]

    @property
    def matrices(self) -> np.ndarray:
        """(F, n, n) complex S-matrices derived from the raw pairs."""
        c1 = self.columns[:, :, 0]
        c2 = self.columns[:, :, 1]
        if self.format == "ri":
            vals = c1 + 1j * c2
        elif self.format == "ma":
            vals = c1 * np.exp(1j * np.radians(c2))
        else:
            vals = 10.0 ** (c1 / 20.0) * np.exp(1j * np.radians(c2))
        n = self.n_ports
        return vals.reshape(-1, n, n)

    @classmethod
    def from_matrices(
        cls,
        frequencies_hz,
        matrices,
        format: str = "ma",
        frequency_unit: str = "ghz",
        reference: float = 50.0,
    ) -> "TouchstoneData":
        mats = np.asarray(matrices, dtype=complex)
        if mats.ndim == 2:
            mats = mats[None, :, :]
        n = mats.shape[1]
        if mats.shape[1:] != (n, n):
            raise ModelError(f"matrices must be square, got {mats.shape}")
        freqs = np.asarray(frequencies_hz, dtype=float) / _UNIT_HZ[frequency_unit.lower()]
        flat = mats.reshape(mats.shape[0], n * n)
        fmt_l = format.lower()
        cols = np.empty((mats.shape[0], n * n, 2))
        if fmt_l == "ri":
            cols[:, :, 0] = flat.real
            cols[:, :, 1] = flat.imag
        elif fmt_l in ("ma", "db"):
            mag = np.abs(flat)
            with np.errstate(divide="ignore"):
                cols[:, :, 0] = mag if fmt_l == "ma" else 20.0 * np.log10(mag)
            cols[:, :, 1] = np.degrees(np.angle(flat))
        else:
            raise ModelError(f"unknown format {format!r}")
        return cls(n, frequency_unit, fmt_l, reference, freqs, cols)


def _record_pairs(data: TouchstoneData, f_idx: int) -> np.ndarray:
    """Raw pairs in on-disk order (2-port files swap to S11 S21 S12 S22)."""
    pairs = data.columns[f_idx]
    if data.n_ports == 2:
        return pairs[[0, 2, 1, 3]]
    return pairs


def touchstone_to_text(data: TouchstoneData) -> str:
    n = data.n_ports
    lines = [f"# {data.frequency_unit.upper()} S {data.format.upper()} R {fmt(data.reference)}"]
    for f_idx in range(data.frequencies.shape[0]):
        pairs = _record_pairs(data, f_idx)
        toks = [fmt(data.frequencies[f_idx])]
        if n <= 2:
            for p in pairs:
                toks.extend([fmt(p[0]), fmt(p[1])])
            lines.append(" ".join(toks))
        else:
            # one line start per matrix row, at most 4 entries per line
            for row in range(n):
                row_pairs = pairs[row * n : (row + 1) * n]
                for chunk in range(0, n, 4):
                    for p in row_pairs[chunk : chunk + 4]:
                        toks.extend([fmt(p[0]), fmt(p[1])])
                    lines.append(" ".join(toks))
                    toks = []
    return "\n".join(lines) + "\n"


def write_touchstone(data: TouchstoneData, path: str) -> None:
    atomic_write_text(path, touchstone_to_text(data))


def _expected_line_lengths(n: int):
    """Token counts of the lines of one frequency record, v1 wrapping."""
    if n == 1:
        return [3]
    if n == 2:
        return [9]
    counts = []
    first = True
    for _row in range(n):
        remaining = n
        row_first = True
        while remaining > 0:
            take = min(4, remaining)
            extra = 1 if (first and row_first) else 0
            counts.append(2 * take + extra)
            remaining -= take
            row_first = False
        first = False
    return counts


def _strip_comment(line: str) -> str:
    cut = line.find("!")
    return line if cut < 0 else line[:cut]


def parse_touchstone(text: str, n_ports: int | None = None) -> TouchstoneData:
    option = None
    data_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = _strip_comment(raw).strip()
        if not body:
            continue
        if body.startswith("["):
            raise ModelError(f"line {lineno}: version 2 keywords are not supported")
        if body.startswith("#"):
            if option is not None:
                raise ModelError(f"line {lineno}: multiple option lines")
            option = (lineno, body)
            continue
        data_lines.append((lineno, body.split()))
    unit, parameter, s_format, reference = "ghz", "s", "ma", 50.0
    if option is not None:
        lineno, body = option
        toks = body[1:].split()
        i = 0
        while i < len(toks):
            t = toks[i].lower()
            if t in _UNIT_HZ:
                unit = t
            elif t in ("s", "y", "z", "h", "g"):
                parameter = t
            elif t in ("ri", "ma", "db"):
                s_format = t
            elif t == "r":
                if i + 1 >= len(toks):
                    raise ModelError(f"line {lineno}: option R needs a value")
                i += 1
                reference = number(toks[i], f"line {lineno}: option R")
            else:
                raise ModelError(f"line {lineno}: unknown option token {toks[i]!r}")
            i += 1
    if parameter != "s":
        raise ModelError(f"only S-parameter files are supported, got {parameter.upper()!r}")
    if not data_lines:
        raise ModelError("no data lines")

    for lineno, toks in data_lines:
        for t in toks:
            if not re.fullmatch(r"[+-]?(\d+\.?\d*|\.\d+|inf)([eE][+-]?\d+)?", t):
                raise ModelError(f"line {lineno}: non-numeric token {t!r} in data")

    lengths = [len(toks) for _, toks in data_lines]

    def walks(n: int) -> bool:
        pattern = _expected_line_lengths(n)
        if len(lengths) % len(pattern) != 0:
            return False
        return all(
            lengths[i] == pattern[i % len(pattern)] for i in range(len(lengths))
        )

    if n_ports is None:
        candidates = [n for n in range(1, 9) if walks(n)]
        if not candidates:
            raise ModelError("data lines do not match any supported port count (1-8)")
        if len(candidates) > 1:
            raise ModelError(
                f"port count is ambiguous ({candidates}); pass n_ports explicitly"
            )
        n_ports = candidates[0]
    elif n_ports < 1 or not walks(n_ports):
        raise ModelError(f"data lines do not match an {n_ports}-port layout")

    per_record = len(_expected_line_lengths(n_ports))
    n_records = len(data_lines) // per_record
    freqs = np.empty(n_records)
    cols = np.empty((n_records, n_ports * n_ports, 2))
    for rec in range(n_records):
        toks = []
        for _, line_toks in data_lines[rec * per_record : (rec + 1) * per_record]:
            toks.extend(line_toks)
        freqs[rec] = float(toks[0])
        vals = np.array([float(t) for t in toks[1:]]).reshape(n_ports * n_ports, 2)
        if n_ports == 2:
            vals = vals[[0, 2, 1, 3]]  # disk order S11 S21 S12 S22
        cols[rec] = vals
    return TouchstoneData(n_ports, unit, s_format, reference, freqs, cols)


def read_touchstone(path: str, n_ports: int | None = None) -> TouchstoneData:
    if n_ports is None:
        m = re.search(r"\.s(\d+)p$", path.lower())
        if m:
            n_ports = int(m.group(1))
    with open(path, "r", encoding="utf-8") as fh:
        return parse_touchstone(fh.read(), n_ports=n_ports)
