"""Multiport scattering algebra, Touchstone files, tuning networks, frontends.

Conventions: real reference resistance r0 at every port, power waves
a = (v + r0 i) / (2 sqrt(r0)), b = (v - r0 i) / (2 sqrt(r0)). Tuning networks
order frontend ports first, radiating ports last.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ModelError, NumericsError
from ._textio import as_array, atomic_write_text, complex_array, fmt, number, read_text, real_array

COND_LIMIT = 1e12
CERTIFIED_COND = 1e-3 * COND_LIMIT


def reflection_coefficient(z, r0: float):
    """Gamma = (z - r0) / (z + r0), elementwise."""
    z = complex_array(z, "impedances")
    return (z - r0) / (z + r0)


def condition_number(mat: np.ndarray) -> float:
    """2-norm condition number: the ratio of the extreme singular values, inf when singular or not finite."""
    if not np.isfinite(mat).all():  # the SVD of a NaN matrix does not converge
        return math.inf
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


@np.errstate(over="ignore", invalid="ignore")  # an overflowing bound is inf or NaN: uncertified
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
    bound2 = _frobenius2(a) * _frobenius2(inv)
    certified = bound2 <= CERTIFIED_COND**2
    if not certified.all():  # np.argwhere costs more than a small inverse; skip it when all pass
        for idx in map(tuple, np.argwhere(~certified)):
            check_condition(a[idx], what)
    return inv


def _frobenius2(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack."""
    flat = x.reshape(x.shape[:-2] + (-1,))
    return np.vecdot(flat, flat).real


def reduce_terminated_ports(s: np.ndarray, n_keep: int, gamma) -> np.ndarray:
    """Fold reflective terminations of the trailing ports into a smaller scattering matrix.

    The leading n_keep ports stay external; trailing port n_keep + k is
    terminated with the reflection gamma[k]. Returns the reduced matrix
    S_AA + S_AB G (I - S_BB G)^-1 S_BA, formed on contiguous blocks of s,
    with the loop I - S_BB G inverted under checked_inv's rule.
    """
    s = complex_array(s, "scattering matrix")
    n = s.shape[0] if s.ndim else 0
    if s.shape != (n, n):
        raise ModelError(f"scattering matrix must be square, got {s.shape}")
    gamma = complex_array(gamma, "reflections")
    if not 0 <= n_keep <= n or gamma.shape != (n - n_keep,):
        raise ModelError(f"{n}-port matrix keeping {n_keep} ports: got {gamma.shape} reflections")
    loop = np.eye(gamma.size) - s[n_keep:, n_keep:] * gamma  # G is diagonal: scale the columns
    inv = checked_inv(loop, "terminated-port reduction")
    return s[:n_keep, :n_keep] + (s[:n_keep, n_keep:] * gamma) @ (inv @ s[n_keep:, :n_keep])


# ---------------------------------------------------------------------------
# tuning networks


@dataclass
class TuningNetwork:
    """Square scattering matrix s between frontend and structure: its first
    n_frontend ports face the frontend, the other m_radiating the structure."""

    n_frontend: int
    s: np.ndarray

    def __post_init__(self):
        self.n_frontend = number(self.n_frontend, "tuning network n_frontend", int)
        self.s = complex_array(self.s, "tuning matrix")
        if self.s.ndim != 2 or self.s.shape[0] != self.s.shape[1]:
            raise ModelError(f"tuning matrix shape {self.s.shape} is not square")
        if not 0 <= self.n_frontend <= len(self.s):
            raise ModelError(f"tuning network n_frontend {self.n_frontend} outside [0, {len(self.s)}]")

    @property
    def m_radiating(self) -> int:
        return len(self.s) - self.n_frontend

    @property
    def s_tt(self) -> np.ndarray:
        return self.s[: self.n_frontend, : self.n_frontend]

    @property
    def s_tr(self) -> np.ndarray:
        return self.s[: self.n_frontend, self.n_frontend :]

    @property
    def s_rt(self) -> np.ndarray:
        return self.s[self.n_frontend :, : self.n_frontend]

    @property
    def s_rr(self) -> np.ndarray:
        return self.s[self.n_frontend :, self.n_frontend :]


def through_tuning(n: int) -> TuningNetwork:
    """Ideal n-to-n pass-through."""
    return inline_tuning(np.ones(n))


def inline_tuning(gains) -> TuningNetwork:
    """Matched per-chain two-port with transmission coefficient gains[i]."""
    gains = complex_array(gains, "tuning gains")
    if gains.ndim != 1:
        raise ModelError(f"tuning gains must be 1-D, got {gains.ndim}-D")
    n = len(gains)
    s = np.zeros((2 * n, 2 * n), dtype=complex)
    s[:n, n:] = np.diag(gains)
    s[n:, :n] = np.diag(gains)
    return TuningNetwork(n, s)


def feedthrough_reflector_fixed(n: int, m: int) -> np.ndarray:
    """Fixed (n + m + r)-port core of a reflective reconfigurable network, r = m - n.

    Port layout [frontend | radiating | control]. Frontend chain i feeds
    radiating port i directly; radiating port n + j hangs on control port j,
    where a tunable reflective load is attached. Requires m >= n.
    """
    n, m = number(n, "feedthrough-reflector n", int, 0), number(m, "feedthrough-reflector m", int, 0)
    r = m - n
    if r < 0:
        raise ModelError(f"feedthrough-reflector layout needs m >= n, got m = {m} < n = {n}")
    dim = n + m + r
    s = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        s[i, n + i] = 1.0
        s[n + i, i] = 1.0
    for j in range(r):
        s[n + n + j, n + m + j] = 1.0
        s[n + m + j, n + n + j] = 1.0
    return s


# ---------------------------------------------------------------------------
# RF frontend


@dataclass
class RFFrontend:
    """The N independent one-ports behind the tuning network, transmit chains first.

    z_tx[i]: output impedance of transmit chain i (Thevenin source v_tx[i]).
    z_rx[j]: input impedance of receive chain j, with series noise voltage
    v_gamma[j] and shunt noise current i_gamma[j]. The one-ports are held as
    vectors: S_RF = diag(g_rf), the waves they inject are k_tx v_tx and
    k_rx (v_gamma + z_rx i_gamma), and v_rx = k_out (b_T - a_T)[n_tx:] + z_rx i_gamma.
    """

    z_tx: np.ndarray
    z_rx: np.ndarray
    r0: float = 50.0

    def __post_init__(self):
        self.z_tx = np.atleast_1d(complex_array(self.z_tx, "z_tx"))
        self.z_rx = np.atleast_1d(complex_array(self.z_rx, "z_rx"))
        if self.z_tx.ndim != 1 or self.z_rx.ndim != 1:
            raise ModelError(f"frontend impedances must be 1-D, got {self.z_tx.ndim}-D and {self.z_rx.ndim}-D")
        if np.any(self.z_tx.real <= 0.0):
            raise ModelError("transmit impedances must have positive real part")
        if np.any(self.z_rx.real < 0.0):
            raise ModelError("receive impedances must have nonnegative real part")
        self.r0 = number(self.r0, "reference resistance")
        if not self.r0 > 0.0:
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

    @property
    def g_rf(self) -> np.ndarray:
        """(N,) reflections of the one-ports: S_RF = diag(g_rf)."""
        return reflection_coefficient(np.concatenate([self.z_tx, self.z_rx]), self.r0)

    @property
    def k_tx(self) -> np.ndarray:
        """(n_tx,) wave injected per unit source voltage v_tx."""
        return math.sqrt(self.r0) / (self.z_tx + self.r0)

    @property
    def k_rx(self) -> np.ndarray:
        """(n_rx,) wave injected per unit noise voltage v_gamma; per unit i_gamma it is z_rx k_rx."""
        return math.sqrt(self.r0) / (self.z_rx + self.r0)

    @property
    def k_out(self) -> np.ndarray:
        """(n_rx,) receive voltage per unit b_T - a_T at the receive chains."""
        return self.z_rx / math.sqrt(self.r0)

    def available_power(self, v_tx) -> float:
        """P_A = v^H Re(Z_tx)^-1 v / 4 for Thevenin sources v behind Z_tx."""
        v = complex_array(v_tx, "v_tx", (self.n_tx,))
        return float(np.real(np.vdot(v, v / self.z_tx.real)) / 4.0)

    def conjugate_match_tuning(self) -> np.ndarray:
        """S_TT block that presents the conjugate of each source impedance."""
        return np.diag((np.conj(self.z_tx) - self.r0) / (np.conj(self.z_tx) + self.r0))


# ---------------------------------------------------------------------------
# Touchstone v1


_UNIT_HZ = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_FORMATS = ("ri", "ma", "db")

# a data token is a decimal number with an optional exponent, or inf: float() reads every match.
# Each token has one parse, so a data line that fails the line pattern fails in linear time.
_TOKEN = re.compile(r"[+-]?((\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?|inf)")
_DATA_LINE = re.compile(rf"{_TOKEN.pattern}(\s+{_TOKEN.pattern})*")


@dataclass
class TouchstoneData:
    """Touchstone v1 content in its on-disk numeric form.

    `columns[f, k]` holds the two raw numbers of matrix entry k (row-major)
    at frequency index f, in the file's format (RI, MA with degrees, or DB
    with degrees); the port count n_ports is the root of the entry count.
    Complex matrices are derived views; building them from the raw pairs on
    both the write and the parse side is what makes a write/parse cycle the
    identity.
    """

    frequency_unit: str
    format: str
    reference: float
    frequencies: np.ndarray
    columns: np.ndarray

    def __post_init__(self):
        self.frequency_unit = _option(self.frequency_unit, _UNIT_HZ, "frequency unit")
        self.format = _option(self.format, _FORMATS, "format")
        self.frequencies = real_array(self.frequencies, "frequencies")
        self.columns = as_array(self.columns, "columns", float)
        if self.frequencies.ndim != 1:
            raise ModelError(f"frequencies shape {self.frequencies.shape} is not 1-D")
        f, k = self.frequencies.size, self.columns.shape[1] if self.columns.ndim == 3 else 0
        if self.columns.shape != (f, k, 2) or k == 0 or math.isqrt(k) ** 2 != k:
            raise ModelError(f"columns shape {self.columns.shape} != ({f}, n*n, 2) for a port count n >= 1")
        self.reference = number(self.reference, "reference resistance")
        if not self.reference > 0.0:
            raise ModelError(f"reference resistance {self.reference} must be positive and finite")
        if np.any(np.diff(self.frequencies) <= 0.0):
            raise ModelError("frequencies must be strictly increasing")
        # the one non-finite number a file may hold: a zero magnitude in dB
        finite = np.isfinite(self.columns)
        if self.format == "db":
            finite[..., 0] |= self.columns[..., 0] == -math.inf
        if not finite.all():
            raise ModelError("S-parameter data must be finite")

    @property
    def n_ports(self) -> int:
        return math.isqrt(self.columns.shape[1])

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
        else:
            mag = c1 if self.format == "ma" else 10.0 ** (c1 / 20.0)
            vals = mag * np.exp(1j * np.radians(c2))
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
        """Raw pairs of the complex matrices."""
        mats = complex_array(matrices, "matrices")
        mats = mats[None] if mats.ndim == 2 else mats
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ModelError(f"matrices must be square, got {mats.shape}")
        n = mats.shape[1]
        try:
            freqs = np.array([number(f, "frequencies_hz") for f in frequencies_hz])
        except TypeError:  # not a sequence
            raise ModelError(f"frequencies_hz must be numbers, got {frequencies_hz!r}") from None
        unit, form = _option(frequency_unit, _UNIT_HZ, "frequency unit"), _option(format, _FORMATS, "format")
        freqs = freqs / _UNIT_HZ[unit]
        flat = mats.reshape(mats.shape[0], n * n)
        cols = np.empty((mats.shape[0], n * n, 2))
        if form == "ri":
            cols[:, :, 0] = flat.real
            cols[:, :, 1] = flat.imag
        else:
            mag = np.abs(flat)
            with np.errstate(divide="ignore"):
                cols[:, :, 0] = mag if form == "ma" else 20.0 * np.log10(mag)
            cols[:, :, 1] = np.degrees(np.angle(flat))
        return cls(unit, form, reference, freqs, cols)


def _option(value, options, what: str) -> str:
    """The option `value` in lower case, which must be a string naming one of options."""
    name = value.lower() if isinstance(value, str) else value
    if not isinstance(name, str) or name not in options:
        raise ModelError(f"unknown {what} {name!r}")
    return name


def _record_layout(n: int) -> tuple[list[int] | slice, list[int]]:
    """Touchstone v1 layout of one frequency record of an n-port file.

    A record is the frequency, then the two numbers of each of the n² matrix
    entries. Up to two ports it is one line; otherwise each matrix row starts
    a line and wraps after four entries. Returns the row-major indices of the
    entries in disk order (two-port records run S11 S21 S12 S22) and the
    token count of each line.
    """
    if n <= 2:
        return ([0, 2, 1, 3] if n == 2 else slice(None)), [1 + 2 * n * n]
    counts = [2 * min(4, n - c) for c in range(0, n, 4)] * n
    counts[0] += 1
    return slice(None), counts


def touchstone_to_text(data: TouchstoneData) -> str:
    order, counts = _record_layout(data.n_ports)
    f = data.frequencies.shape[0]
    pairs = data.columns[:, order].reshape(f, 2 * data.n_ports**2)
    toks = list(map(repr, np.column_stack([data.frequencies, pairs]).ravel().tolist()))
    bounds = np.cumsum([0] + counts * f).tolist()
    lines = [f"# {data.frequency_unit.upper()} S {data.format.upper()} R {fmt(data.reference)}"]
    lines += [" ".join(toks[a:b]) for a, b in zip(bounds, bounds[1:])]
    return "\n".join(lines) + "\n"


def write_touchstone(data: TouchstoneData, path: str) -> None:
    atomic_write_text(path, touchstone_to_text(data))


def parse_touchstone(text: str, n_ports: int | None = None) -> TouchstoneData:
    option = None
    data_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("!", 1)[0].strip()
        if not body:
            continue
        if body.startswith("["):
            raise ModelError(f"line {lineno}: version 2 keywords are not supported")
        if body.startswith("#"):
            if option is not None:
                raise ModelError(f"line {lineno}: multiple option lines")
            option = (lineno, body)
            continue
        if not _DATA_LINE.fullmatch(body):  # the token scan only names the bad token
            bad = next(t for t in body.split() if not _TOKEN.fullmatch(t))
            raise ModelError(f"line {lineno}: non-numeric token {bad!r} in data")
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
            elif t in _FORMATS:
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

    lengths = [len(toks) for _, toks in data_lines]
    total = sum(lengths)

    def fits(n: int) -> bool:
        # a record of 1 + 2n² numbers must fit before its layout is built
        if 1 + 2 * n * n > total:
            return False
        counts = _record_layout(n)[1]
        return lengths == counts * (len(lengths) // len(counts))

    if n_ports is None:
        candidates = [n for n in range(1, 9) if fits(n)]
        if not candidates:
            raise ModelError("data lines do not match any supported port count (1-8)")
        if len(candidates) > 1:
            raise ModelError(f"port count is ambiguous ({candidates}); pass n_ports explicitly")
        n_ports = candidates[0]
    elif n_ports < 1 or not fits(n_ports):
        raise ModelError(f"data lines do not match an {n_ports}-port layout")

    order = _record_layout(n_ports)[0]
    tokens = chain.from_iterable(toks for _, toks in data_lines)
    records = np.fromiter(map(float, tokens), float, total).reshape(-1, 1 + 2 * n_ports * n_ports)
    cols = np.empty((records.shape[0], n_ports * n_ports, 2))
    cols[:, order] = records[:, 1:].reshape(cols.shape)
    return TouchstoneData(unit, s_format, reference, records[:, 0].copy(), cols)


def read_touchstone(path: str, n_ports: int | None = None) -> TouchstoneData:
    if n_ports is None:
        m = re.search(r"\.s(\d+)p$", path.lower())
        if m:
            n_ports = int(m.group(1))
    return parse_touchstone(read_text(path), n_ports=n_ports)
