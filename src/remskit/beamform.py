"""Joint impedance tuning and zero-forcing precoding.

Coordinate ascent over the finite impedance set of a reconfigurable tuning
network. Every candidate load configuration is scored together with its own
zero-forcing precoder through a quasi-power objective: worst signal gain
toward the users over the sum of worst inter-user interference gain, worst
leakage gain toward protected directions, and a regularizer that shrinks
between sweeps.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ModelError, NumericsError
from .farfield import FOUR_PI, Direction
from .network import checked_inv
from .solver import ReconfigurableBuilder, ReMSModel, gain_operators, transmit_operator

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
        if not all(cmath.isfinite(z) for z in self.z_set):
            raise ModelError("load impedances must be finite")
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
        if not all(0.0 < s < math.inf for s in self.sigma_schedule):
            raise ModelError("regularizer schedule must be positive and finite")


def geometric_schedule(initial: float = 20.0, ratio: float = 0.5, count: int = 10) -> tuple:
    """Regularizer values initial*ratio^i for sweeps i = 1..count."""
    return tuple(initial * ratio**i for i in range(1, count + 1))


def h_co(model: ReMSModel, dirs, q_co=x_copol) -> np.ndarray:
    """(len(dirs), n_tx) co-polarized rows of the transmit gain operator."""
    return _h_rows(dirs, gain_operators(model).vtx_gain_matrix(dirs), q_co)


def _gain_matrices(model: ReMSModel, dirs) -> np.ndarray:
    """(len(dirs), 2, n_tx) far-field components toward dirs per unit v_tx, from one lookup."""
    _, _, core_tx = transmit_operator(model)
    return model.structure.tx_at(dirs) @ core_tx


def _h_rows(dirs, mats: np.ndarray, q_co) -> np.ndarray:
    return np.array([q_co(d) @ m for d, m in zip(dirs, mats)])


def zf_precoder(h: np.ndarray) -> np.ndarray:
    """Right pseudo-inverse H^H (H H^H)^-1, so H T = I."""
    h = np.asarray(h, dtype=complex)
    gram = h @ h.conj().T
    return h.conj().T @ checked_inv(gram, "zero-forcing Gram matrix")


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
        val = mats @ col
        gains[:, u] = FOUR_PI * np.vecdot(val, val).real / p_a
    return gains


def _problem_dirs(problem: BeamformProblem) -> tuple:
    return tuple(problem.primary_dirs) + tuple(problem.secondary_dirs)


def quasi_powers(model: ReMSModel, t: np.ndarray, problem: BeamformProblem) -> QuasiPowers:
    """Worst-case signal, interference, and leakage gains of precoder t."""
    mats = _gain_matrices(model, _problem_dirs(problem))
    u = len(problem.primary_dirs)
    return _quasi_powers(model.frontend, mats[:u], mats[u:], t)


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
    key: tuple


def evaluate_candidate(
    problem: BeamformProblem, model_builder, z_values, sigma: float, gain_mats=None
) -> CandidateScore:
    """Build the model for z_values, fit its ZF precoder, score the pair.

    gain_mats, when given, are the configuration's (primary + secondary, 2,
    n_tx) gain matrices toward the problem's directions, precomputed by the
    caller; the model is then not built, and model_builder only supplies the
    frontend.
    """
    if gain_mats is None:
        model = model_builder(tuple(z_values))
        frontend = model.frontend
        gain_mats = _gain_matrices(model, _problem_dirs(problem))
    else:
        frontend = model_builder.frontend
    u = len(problem.primary_dirs)
    g_primary, g_secondary = gain_mats[:u], gain_mats[u:]
    h = _h_rows(problem.primary_dirs, g_primary, problem.q_co)
    t = zf_precoder(h)
    qp = _quasi_powers(frontend, g_primary, g_secondary, t)
    return CandidateScore(
        f=_objective_value(qp, sigma),
        powers=qp,
        h=h,
        t=t,
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

    A ReconfigurableBuilder's candidates for one coordinate are built in one
    stacked pass (ReconfigurableBuilder.transmit_stack) and then scored one by
    one from their gain matrices; a candidate that fails a stacked condition
    check is rebuilt alone, which raises the check's error.
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

    stacked = isinstance(model_builder, ReconfigurableBuilder)
    if stacked:
        tx_dirs = probe.structure.tx_at(_problem_dirs(problem))
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
            candidates = []
            for k in range(len(problem.z_set)):
                cand_idx = list(z_idx)
                cand_idx[coord] = k
                candidates.append((cand_idx, tuple(problem.z_set[i] for i in cand_idx)))
            gain_mats = [None] * len(candidates)
            if stacked:
                core_tx, failed = model_builder.transmit_stack([z for _, z in candidates])
                mats = tx_dirs @ core_tx[:, None]
                gain_mats = [None if bad else g for bad, g in zip(failed, mats)]
            for k, (cand_idx, z_values) in enumerate(candidates):
                try:
                    score = evaluate_candidate(
                        problem, model_builder, z_values, sigma, gain_mats[k]
                    )
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
