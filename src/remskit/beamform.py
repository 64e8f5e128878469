"""Joint impedance tuning and zero-forcing precoding.

Coordinate ascent over the finite impedance set of a reconfigurable tuning
network. Every candidate load configuration is scored together with its own
zero-forcing precoder through a quasi-power objective: worst signal gain
toward the users over the sum of worst inter-user interference gain, worst
leakage gain toward protected directions, and a regularizer that shrinks
between sweeps.
"""

from __future__ import annotations

import logging
import math
from dataclasses import astuple, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ._textio import complex_array, number
from .errors import ModelError, NumericsError
from .farfield import FOUR_PI, Direction
from .network import _frobenius2, checked_inv, reflection_coefficient
from .solver import ReconfigurableBuilder, ReMSModel, gain_operators

logger = logging.getLogger(__name__)

# Largest certified ||h||_F^2 ||t||_F^2 b of a rank-1 candidate's rows h and ZF precoder t (see _rank1_rows).
RANK1_ZF_COND = 4.5e3


def x_copol(d: Direction) -> np.ndarray:
    """Co-polarization projector of an x-oriented linear antenna."""
    return np.array([math.cos(d.phi), -math.sin(d.phi)])


@dataclass
class BeamformProblem:
    """One beam/null-forming task over a reconfigurable model.

    primary_dirs get one transmit stream each; secondary_dirs are protected.
    z_set is the finite load impedance alphabet, z_init a member of it.
    """

    r: int
    z_set: tuple
    primary_dirs: tuple
    secondary_dirs: tuple = ()
    q_co: Callable[[Direction], np.ndarray] = x_copol
    z_init: complex | None = None
    i_max: int = 10
    sigma_schedule: tuple | None = None
    rng_seed: int = 0

    def __post_init__(self):
        self.r = number(self.r, "BeamformProblem r", int)
        if self.r < 0:
            raise ModelError("number of tunable loads cannot be negative")
        z_set = complex_array(self.z_set, "load impedances")
        if z_set.ndim != 1:
            raise ModelError(f"load impedances must be complex numbers, got {self.z_set!r}")
        self.z_set = tuple(z_set.tolist())
        if len(self.z_set) < 1:
            raise ModelError("impedance set is empty")
        if any(z.real < 0.0 for z in self.z_set):
            raise ModelError("load impedances must lie in the closed right half-plane")
        for name, dirs in (("primary_dirs", self.primary_dirs), ("secondary_dirs", self.secondary_dirs)):
            if not isinstance(dirs, (list, tuple)):
                raise ModelError(f"{name} must be a list of Directions, got {dirs!r}")
        if len(self.primary_dirs) < 1:
            raise ModelError("need at least one primary direction")
        if not all(isinstance(d, Direction) for d in (*self.primary_dirs, *self.secondary_dirs)):
            raise ModelError("primary and secondary directions must be Direction entries")
        self.z_init = self.z_set[0] if self.z_init is None else complex(complex_array(self.z_init, "z_init", ()))
        if self.z_init not in self.z_set:
            raise ModelError("z_init is not a member of z_set")
        self.i_max = number(self.i_max, "BeamformProblem i_max", int)
        if self.i_max < 1:
            raise ModelError("need at least one sweep")
        schedule = geometric_schedule(count=self.i_max) if self.sigma_schedule is None else self.sigma_schedule
        try:
            self.sigma_schedule = tuple(float(s) for s in schedule)
        except (TypeError, ValueError):
            raise ModelError(f"regularizer schedule must be numbers, got {schedule!r}") from None
        if len(self.sigma_schedule) < self.i_max:
            got = len(self.sigma_schedule)
            raise ModelError(f"{self.i_max} sweeps need {self.i_max} regularizer values, got {got}")
        if not all(0.0 < s < math.inf for s in self.sigma_schedule):
            raise ModelError("regularizer schedule must be positive and finite")
        self.rng_seed = number(self.rng_seed, "BeamformProblem rng_seed", int, 0)


def geometric_schedule(initial: float = 20.0, ratio: float = 0.5, count: int = 10) -> tuple:
    """Regularizer values initial*ratio^i for sweeps i = 1..count."""
    return tuple(initial * ratio**i for i in range(1, count + 1))


def h_co(model: ReMSModel, dirs, q_co=x_copol) -> np.ndarray:
    """(len(dirs), n_tx) co-polarized rows of the transmit gain operator."""
    if not (isinstance(dirs, (list, tuple)) and dirs and all(isinstance(d, Direction) for d in dirs)):
        raise ModelError(f"h_co dirs must be a non-empty list of Directions, got {dirs!r}")
    return _co_rows(_projectors(dirs, q_co), gain_operators(model).vtx_gain_matrix(dirs))


def _projectors(dirs, q_co) -> np.ndarray:
    """(len(dirs), 2) co-polarization projector rows, one per direction, as complex numbers for the matmul."""
    return np.array([q_co(d) for d in dirs], dtype=complex)


def _co_rows(q: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """(..., d, n_tx) co-polarized rows of a (..., d, 2, n_tx) gain-matrix stack through (d, 2) projectors."""
    return (q[:, None] @ mats)[..., 0, :]


def zf_precoder(h: np.ndarray) -> np.ndarray:
    """Right pseudo-inverse H^H (H H^H)^-1, so H T = I.

    A (..., u, n_tx) stack of rows gives the (..., n_tx, u) stack of
    precoders from one checked_inv over the (..., u, u) Gram stack; the first
    failing Gram matrix raises.
    """
    h = np.asarray(h, dtype=complex)
    h_adj = h.mT.conj()
    return h_adj @ checked_inv(h @ h_adj, "zero-forcing Gram matrix")


@dataclass(slots=True)
class QuasiPowers:
    p_signal: float
    p_interf: float
    p_second: float


def _problem_dirs(problem: BeamformProblem) -> tuple:
    return tuple(problem.primary_dirs) + tuple(problem.secondary_dirs)


def _quasi_powers(fe, mats: np.ndarray, t: np.ndarray, u: int) -> tuple:
    """(K,) arrays p_signal, p_interf, p_second of a (K, n_tx, u) precoder stack through (K, u + s, 2, n_tx) mats.

    gains[k, i, j] is the gain toward direction i when precoder k drives column j; a silent column (zero available
    power) radiates nothing. Every gain is >= 0 or NaN, so a zeroed diagonal leaves the interference max as it is.
    """
    val = mats @ t[:, None]
    radiated = FOUR_PI * np.vecdot(val, val, axis=-2).real
    p_avail = np.vecdot(t, t / fe.z_tx.real[:, None], axis=-2).real[:, None] / 4.0
    gains = np.divide(radiated, p_avail, out=np.zeros(radiated.shape), where=p_avail != 0.0)
    p_signal = gains[:, :u].diagonal(0, 1, 2).min(axis=1)
    gains.reshape(len(gains), -1)[:, : u * u : u + 1] = 0.0  # zero the primary diagonal of this fresh array
    return p_signal, gains[:, :u].max(axis=(1, 2), initial=0.0), gains[:, u:].max(axis=(1, 2), initial=0.0)


@np.errstate(over="ignore", invalid="ignore")  # as Python floats: an overflowing sum is inf, inf / inf is NaN
def _objective(p_signal, p_interf, p_second, sigma) -> np.ndarray:
    """p_signal / ((p_interf + p_second) + sigma) per entry; a zero denominator: inf with signal, 0 without."""
    denom = (p_interf + p_second) + sigma
    if sigma > 0.0:  # quasi-powers are >= 0 or NaN: denom >= sigma or NaN
        return p_signal / denom
    return np.divide(p_signal, denom, out=np.where(p_signal > 0.0, math.inf, 0.0), where=denom != 0.0)


@np.errstate(over="ignore", invalid="ignore")  # _objective's state, entered once for the whole stack
def _score_rows(fe, mats: np.ndarray, q: np.ndarray, sigma: float):
    """(f, h, t) of each configuration of a (K, u + s, 2, n_tx) gain-matrix stack: the one scoring path.

    q holds the (u, 2) co-polarization projectors of the u primary directions. One zf_precoder
    call fits the K precoders and f is the (K,) objective column at regularizer sigma.
    """
    u = q.shape[0]
    h = _co_rows(q, mats[:, :u])
    t = zf_precoder(h)
    return _objective.__wrapped__(*_quasi_powers(fe, mats, t, u), sigma), h, t


def quasi_powers(model: ReMSModel, t: np.ndarray, problem: BeamformProblem) -> QuasiPowers:
    """Worst-case signal, interference, and leakage gains of precoder t."""
    mats = gain_operators(model).vtx_gain_matrix(_problem_dirs(problem))[None]
    t = complex_array(t, "precoder t", (model.frontend.n_tx, len(problem.primary_dirs)))[None]
    return QuasiPowers(*(float(p[0]) for p in _quasi_powers(model.frontend, mats, t, t.shape[2])))


def objective(model: ReMSModel, sigma: float, t: np.ndarray, problem: BeamformProblem) -> float:
    """p_signal / (p_interf + p_second + sigma)."""
    return float(_objective(*astuple(quasi_powers(model, t, problem)), sigma))


@dataclass(slots=True)
class CandidateScore:
    f: float
    t: np.ndarray


def evaluate_candidate(
    problem: BeamformProblem, model_builder, z_values, sigma: float, scored=None
) -> CandidateScore:
    """Score the load configuration z_values jointly with its ZF precoder.

    scored, when given, is the configuration's (f, t) row from a stacked
    pass over its coordinate's candidates at regularizer sigma; neither
    model_builder nor z_values is then used. Without it, the model is built
    for z_values and scored as a stack of one: the reference path.
    """
    if scored is None:
        model = model_builder(tuple(z_values))
        mats = gain_operators(model).vtx_gain_matrix(_problem_dirs(problem))
        f, _, t = _score_rows(model.frontend, mats[None], _projectors(problem.primary_dirs, problem.q_co), sigma)
        scored = float(f[0]), t[0]
    return CandidateScore(*scored)


def _rank1_rows(fe, t0, u, v, w, bound, q, sigma):
    """Scored (f, t) rows of one coordinate's candidates from its update; None to score them one by one.

    (t0, u, v, w) is the update (LoadPorts.update) of load ports restricted to the problem's 2(u + s)
    transmit rows, bound their certificate, q the (u, 2) primary co-polarization projectors and sigma
    the regularizer. The (K, u + s, 2, n_tx) gain matrices are T0 plus (K,) scalars times one outer
    product, 0 at the incumbent's own setting. They differ from a rebuild's by about eps b
    (eps = 2.2e-16; b = bound bounds every loop either path inverts). K and T0 are fresh each sweep,
    then carried through up to r accepted moves: an update of an inverse with backward error F is the
    exact inverse of A' + F, so a carried error is not amplified, and r updates add r roundings, the
    order r eps of a fresh r x r inverse's own. The ZF Gram inverse amplifies the difference by up to
    ||G||_F ||G^-1||_F <= ||h||_F^2 ||t||_F^2 (||h h^H||_F <= ||h||_F^2 and t^H t = G^-1; 1 up to
    rounding at u = 1), so the precoders differ by < 1e-12 if every candidate's ||h||_F^2 ||t||_F^2 b
    <= RANK1_ZF_COND = 4.5e3. The bound is conservative; None unless every candidate passes it.
    """
    mats = (t0 + w[:, None, None] * (u[:, None] * v)).reshape(w.size, -1, 2, t0.shape[1])
    try:
        f, h, t = _score_rows(fe, mats, q, sigma)
    except NumericsError:
        return None
    if not (_frobenius2(h) * _frobenius2(t)).max() * bound <= RANK1_ZF_COND:
        return None
    return list(zip(f.tolist(), t))


def _fisher_yates(rng: np.random.Generator, n: int) -> list:
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


@dataclass
class BeamformResult:
    z_r: tuple
    z_indices: tuple
    t: np.ndarray
    f_best: float
    f_trace: list = field(repr=False)
    evaluations: int = 0


def coordinate_ascent(
    problem: BeamformProblem, model_builder: Callable[[Sequence[complex]], ReMSModel]
) -> BeamformResult:
    """Sweep the loads coordinate by coordinate, keeping strict improvements.

    Each sweep draws a fresh seeded permutation of the coordinates; each
    coordinate pass scores every candidate impedance jointly with its own
    zero-forcing precoder and accepts only strict objective improvements.
    The incumbent keeps its recorded score across sweeps, so re-scoring it
    under a smaller regularizer can itself register as an improvement.
    Candidate evaluations that fail conditioning are logged and skipped.
    Deterministic for a fixed rng_seed.

    A ReconfigurableBuilder is reduced once to the r x r network its loads see
    (ReconfigurableBuilder.load_ports), on the problem's 2(u + s) transmit rows,
    the only ones the objective reads. Each sweep inverts that loop for the
    incumbent's reflections, whose T0 is the (2(u + s), n_tx) gain-matrix stack; a
    coordinate's K candidates are rank-1 updates of it (LoadPorts.update), scored by
    one array pass into one objective column, and an accepted move updates the
    reflections, the loop inverse and T0 in O(r^2), with no O(M) term. Only the
    comparison of the K objectives is sequential (a NaN never wins); the incumbent
    rescored under the sigma it was accepted at, equal up to rounding, is not
    compared. An uncertified reduction or a declined coordinate is scored like any
    other callable's, one rebuild per candidate, each failing candidate logging its
    own error. No case-study coordinate is declined.
    """
    z_idx = [problem.z_set.index(problem.z_init)] * problem.r
    probe = model_builder(tuple(problem.z_set[i] for i in z_idx))
    n_tx = probe.frontend.n_tx
    u = len(problem.primary_dirs)
    if u > n_tx:
        raise ModelError(f"{u} streams need at least {u} transmit chains, got {n_tx}")

    if problem.r == 0:
        score = evaluate_candidate(problem, model_builder, (), problem.sigma_schedule[0])
        return BeamformResult((), (), score.t, score.f, [score.f], evaluations=1)

    # what every coordinate's rank-1 pass reads: the load ports on the problem's rows, co-polar projectors
    gamma_set = reflection_coefficient(problem.z_set, probe.r0)
    gammas = gamma_set[z_idx]  # the incumbent's, updated with each accepted move
    ports = model_builder.load_ports(gamma_set) if isinstance(model_builder, ReconfigurableBuilder) else None
    if ports is not None:  # P and Q on the rows the objective reads: T0 is then the gain matrices
        tx = probe.structure.tx_at(_problem_dirs(problem)).reshape(-1, probe.structure.m_ports)
        ports = replace(ports, p=tx @ ports.p, q=tx @ ports.q)
    q = _projectors(problem.primary_dirs, problem.q_co)
    rng = np.random.default_rng(problem.rng_seed)
    t_best = np.eye(n_tx, u, dtype=complex)
    f_best, sigma_best = 0.0, None
    f_trace, n_eval = [], 0

    for sweep in range(problem.i_max):
        sigma = problem.sigma_schedule[sweep]
        if ports is not None:  # the incumbent's loop inverse and gain matrices, carried through the sweep
            k_inv, t0 = ports.loop(gammas)
        for coord in _fisher_yates(rng, problem.r):
            k_cur, rows = z_idx[coord], None
            if ports is not None:
                ks, u_c, v_c, w = ports.update(k_inv, gammas, coord, gamma_set)
                rows = _rank1_rows(probe.frontend, t0, u_c, v_c, w, ports.bound, q, sigma)
            for k, z_k in enumerate(problem.z_set):
                try:
                    if rows is None:  # the reference path: rebuild and score this candidate alone
                        z_values = [z_k if j == coord else problem.z_set[i] for j, i in enumerate(z_idx)]
                        score = evaluate_candidate(problem, model_builder, z_values, sigma)
                    else:
                        score = evaluate_candidate(problem, model_builder, None, sigma, rows[k])
                except NumericsError as err:
                    logger.warning("skipping load %d candidate %d (%s): %s", coord, k, z_k, err)
                    continue
                n_eval += 1
                # the incumbent rescored under its own sigma equals its record up to rounding
                if score.f > f_best and (k != z_idx[coord] or sigma != sigma_best):
                    f_best, t_best, sigma_best = score.f, score.t, sigma
                    z_idx[coord] = k
                    f_trace.append(f_best)
            if ports is not None and z_idx[coord] != k_cur:  # the accepted move, by Sherman-Morrison
                gammas[coord] = gamma_set[z_idx[coord]]
                t0 += w[z_idx[coord]] * np.outer(u_c, v_c)
                k_inv += w[z_idx[coord]] * np.outer(ks, k_inv[coord])

    z_r = tuple(problem.z_set[i] for i in z_idx)
    return BeamformResult(z_r, tuple(z_idx), t_best, f_best, f_trace, evaluations=n_eval)
