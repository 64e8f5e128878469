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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ModelError, NumericsError
from .farfield import FOUR_PI, Direction
from .network import check_condition
from .solver import GainOperators, ReMSModel, gain_operators

logger = logging.getLogger(__name__)


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
        if self.r < 0:
            raise ModelError("number of tunable loads cannot be negative")
        self.z_set = tuple(complex(z) for z in self.z_set)
        if len(self.z_set) < 1:
            raise ModelError("impedance set is empty")
        if any(z.real < 0.0 for z in self.z_set):
            raise ModelError("load impedances must lie in the closed right half-plane")
        if len(self.primary_dirs) < 1:
            raise ModelError("need at least one primary direction")
        if self.z_init is None:
            self.z_init = self.z_set[0]
        else:
            self.z_init = complex(self.z_init)
        if self.z_init not in self.z_set:
            raise ModelError("z_init is not a member of z_set")
        if self.sigma_schedule is None:
            self.sigma_schedule = geometric_schedule(count=self.i_max)
        self.sigma_schedule = tuple(float(s) for s in self.sigma_schedule)
        if self.i_max < 1:
            raise ModelError("need at least one sweep")
        if len(self.sigma_schedule) < self.i_max:
            raise ModelError(
                f"{self.i_max} sweeps need {self.i_max} regularizer values, "
                f"got {len(self.sigma_schedule)}"
            )
        if any(s <= 0.0 for s in self.sigma_schedule):
            raise ModelError("regularizer schedule must be positive")


def geometric_schedule(initial: float = 20.0, ratio: float = 0.5, count: int = 10) -> tuple:
    """Regularizer values initial*ratio^i for sweeps i = 1..count."""
    return tuple(initial * ratio**i for i in range(1, count + 1))


def h_co(model: ReMSModel, dirs, q_co=x_copol) -> np.ndarray:
    """(len(dirs), n_tx) co-polarized rows of the transmit gain operator."""
    return _h_rows(dirs, gain_operators(model).vtx_gain_matrix(dirs), q_co)


def _h_rows(dirs, mats: np.ndarray, q_co) -> np.ndarray:
    return np.array([q_co(d) @ m for d, m in zip(dirs, mats)])


def zf_precoder(h: np.ndarray) -> np.ndarray:
    """Right pseudo-inverse H^H (H H^H)^-1, so H T = I."""
    h = np.asarray(h, dtype=complex)
    gram = h @ h.conj().T
    check_condition(gram, "zero-forcing Gram matrix")
    return h.conj().T @ np.linalg.inv(gram)


@dataclass(frozen=True)
class QuasiPowers:
    p_signal: float
    p_interf: float
    p_second: float

    @property
    def denominator_part(self) -> float:
        return self.p_interf + self.p_second


def _column_gains(fe, mats: np.ndarray, t: np.ndarray) -> np.ndarray:
    """gains[i, u]: radiated gain through gain matrix mats[i] when driving precoder column u."""
    t = np.asarray(t, dtype=complex)
    gains = np.zeros((len(mats), t.shape[1]))
    for u in range(t.shape[1]):
        col = t[:, u]
        p_a = fe.available_power(col)
        if p_a == 0.0:
            continue  # a silent stream radiates nothing
        for i, m in enumerate(mats):
            val = m @ col
            gains[i, u] = FOUR_PI * float(np.vdot(val, val).real) / p_a
    return gains


def _problem_gain_matrices(ops: GainOperators, problem: BeamformProblem):
    """Gain matrices toward the primary and the secondary directions, from one lookup."""
    u = len(problem.primary_dirs)
    mats = ops.vtx_gain_matrix(tuple(problem.primary_dirs) + tuple(problem.secondary_dirs))
    return mats[:u], mats[u:]


def quasi_powers(model: ReMSModel, t: np.ndarray, problem: BeamformProblem) -> QuasiPowers:
    """Worst-case signal, interference, and leakage gains of precoder t."""
    return _quasi_powers(model.frontend, *_problem_gain_matrices(gain_operators(model), problem), t)


def _quasi_powers(fe, g_primary: np.ndarray, g_secondary: np.ndarray, t) -> QuasiPowers:
    gp = _column_gains(fe, g_primary, t)
    p_signal = float(np.min(np.diag(gp)))
    if gp.shape[0] > 1:
        p_interf = float(np.max(gp[~np.eye(gp.shape[0], dtype=bool)]))
    else:
        p_interf = 0.0
    if len(g_secondary) > 0:
        p_second = float(np.max(_column_gains(fe, g_secondary, t)))
    else:
        p_second = 0.0
    return QuasiPowers(p_signal, p_interf, p_second)


def objective(model: ReMSModel, sigma: float, t: np.ndarray, problem: BeamformProblem) -> float:
    """p_signal / (p_interf + p_second + sigma)."""
    return _objective_value(quasi_powers(model, t, problem), sigma)


def _objective_value(qp: QuasiPowers, sigma: float) -> float:
    denom = qp.denominator_part + sigma
    if denom == 0.0:
        return math.inf if qp.p_signal > 0.0 else 0.0
    return qp.p_signal / denom


def _acceptance_key(qp: QuasiPowers, sigma: float):
    """Total order on candidate scores without nonfinite arithmetic.

    Finite-denominator scores compare by the objective. A zero denominator
    (possible only at sigma = 0) with positive signal dominates everything
    finite; among those, (p_signal, -denominator) compares lexicographically.
    """
    denom = qp.denominator_part + sigma
    if denom == 0.0 and qp.p_signal > 0.0:
        return (1, qp.p_signal, -denom)
    f = 0.0 if denom == 0.0 else qp.p_signal / denom
    return (0, f, 0.0)


@dataclass
class CandidateScore:
    f: float
    powers: QuasiPowers
    h: np.ndarray
    t: np.ndarray
    ops: GainOperators
    key: tuple


def evaluate_candidate(
    problem: BeamformProblem, model_builder, z_values, sigma: float
) -> CandidateScore:
    """Build the model for z_values, fit its ZF precoder, score the pair."""
    model = model_builder(tuple(z_values))
    ops = gain_operators(model)
    g_primary, g_secondary = _problem_gain_matrices(ops, problem)
    h = _h_rows(problem.primary_dirs, g_primary, problem.q_co)
    t = zf_precoder(h)
    qp = _quasi_powers(model.frontend, g_primary, g_secondary, t)
    return CandidateScore(
        f=_objective_value(qp, sigma),
        powers=qp,
        h=h,
        t=t,
        ops=ops,
        key=_acceptance_key(qp, sigma),
    )


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
    """
    z_init_idx = problem.z_set.index(problem.z_init)
    z_idx = [z_init_idx] * problem.r

    if problem.r == 0:
        score = evaluate_candidate(problem, model_builder, (), problem.sigma_schedule[0])
        return BeamformResult(
            z_r=(),
            z_indices=(),
            t=score.t,
            f_best=score.f,
            f_trace=[score.f],
            evaluations=1,
        )

    probe = model_builder(tuple(problem.z_set[i] for i in z_idx))
    n_tx = probe.frontend.n_tx
    u = len(problem.primary_dirs)
    if u > n_tx:
        raise ModelError(f"{u} streams need at least {u} transmit chains, got {n_tx}")

    rng = np.random.default_rng(problem.rng_seed)
    t_best = np.zeros((n_tx, u), dtype=complex)
    t_best[:u, :u] = np.eye(u)
    f_best = 0.0
    key_best = (0, 0.0, 0.0)
    f_trace: list = []
    n_eval = 0

    for sweep in range(problem.i_max):
        sigma = problem.sigma_schedule[sweep]
        for coord in _fisher_yates(rng, problem.r):
            for k in range(len(problem.z_set)):
                cand_idx = list(z_idx)
                cand_idx[coord] = k
                z_values = tuple(problem.z_set[i] for i in cand_idx)
                try:
                    score = evaluate_candidate(problem, model_builder, z_values, sigma)
                except NumericsError as err:
                    logger.warning(
                        "skipping load %d candidate %d (%s): %s", coord, k, z_values[coord], err
                    )
                    continue
                n_eval += 1
                if score.key > key_best:
                    key_best = score.key
                    f_best = score.f
                    z_idx = cand_idx
                    t_best = score.t
                    f_trace.append(f_best)

    return BeamformResult(
        z_r=tuple(problem.z_set[i] for i in z_idx),
        z_indices=tuple(z_idx),
        t=t_best,
        f_best=f_best,
        f_trace=f_trace,
        evaluations=n_eval,
    )
