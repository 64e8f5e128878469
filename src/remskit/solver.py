"""Interconnection of frontend, tuning network, and radiating structure.

Two independent solution paths are provided. `gain_operators` assembles the
closed-form input/output operators of the interconnected model from one loop:
the tuning network S closed on the block-diagonal Theta = diag(g_rf) (+) C,
the frontend's one-ports and the structure's coupling, gives
(I - S Theta)^-1 S, which the rank-1 load sweep reuses. `solve_direct` stacks
the raw block relations into one linear system and solves for every interior
wave vector; it exists as a cross-check and for power accounting, since it
exposes the waves at each reference plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, NumericsError
from .farfield import FarFieldPattern, intensity, total_power, zero_pattern
from .network import (
    RFFrontend,
    TuningNetwork,
    _frobenius2,
    check_condition,
    checked_inv,
    reduce_terminated_ports,
    reflection_coefficient,
)
from .radiating import RadiatingStructure, apply_receive, apply_scatter, apply_transmit


@dataclass
class ReMSModel:
    """Frontend + tuning network + radiating structure, shape-checked."""

    structure: RadiatingStructure
    tuning: TuningNetwork
    frontend: RFFrontend

    def __post_init__(self):
        if self.tuning.m_radiating != self.structure.m_ports:
            raise ModelError(
                f"tuning network drives {self.tuning.m_radiating} radiating ports, "
                f"structure has {self.structure.m_ports}"
            )
        if self.tuning.n_frontend != self.frontend.n:
            raise ModelError(
                f"tuning network exposes {self.tuning.n_frontend} frontend ports, "
                f"frontend has {self.frontend.n}"
            )

    @property
    def r0(self) -> float:
        return self.frontend.r0


# Largest certified ||A||_F ||A^-1||_F of a candidate loop (see SweepBase.load_sweep_transmit).
RANK1_COND = 4.5e2


@dataclass(frozen=True, eq=False)
class ReconfigurableBuilder:
    """Models of one structure and frontend behind a fixed network with tunable loads.

    fixed_s is the (N + M + r)-port fixed network, ports ordered [frontend |
    radiating | control]. Calling the builder with r load impedances (ohms,
    referenced to r0) terminates control port j in load j and returns that
    configuration's ReMSModel. sweep_base gives a configuration's SweepBase,
    from which every setting of any one load follows by a rank-1 update.
    """

    structure: RadiatingStructure
    frontend: RFFrontend
    fixed_s: np.ndarray

    @property
    def r0(self) -> float:
        return self.frontend.r0

    def __call__(self, z_values) -> ReMSModel:
        return self._build(reflection_coefficient(z_values, self.r0))[0]

    def _build(self, gammas):
        """(model, terminated-port loop inverse) with control port j terminated in gammas[j]."""
        n, m = self.frontend.n, self.structure.m_ports
        s, loop_inv = reduce_terminated_ports(self.fixed_s, n + m, gammas)
        return ReMSModel(self.structure, TuningNetwork(n, m, s), self.frontend), loop_inv

    def sweep_base(self, z_values) -> SweepBase | None:
        """The SweepBase of load configuration z_values; None unless its two loops pass their checks."""
        fe, s, g0 = self.frontend, self.fixed_s, reflection_coefficient(z_values, self.r0)
        n, nm = fe.n, fe.n + self.structure.m_ports
        try:
            model, inv1 = self._build(g0)
            loop, inv, ls = _interconnection(model)
        except NumericsError:
            return None
        loop1 = np.eye(g0.size) - s[nm:, nm:] * g0  # the terminated-port loop
        f_norms = np.sqrt([_frobenius2(a) for a in (loop1, loop, inv1, inv)]).reshape(2, 2, 1)
        k_tx = fe.k_tx
        return SweepBase(
            s, g0, model, (inv1, inv), f_norms, s[:nm, nm:] * g0, fe.g_rf, ls, k_tx,
            ls[n:, : k_tx.size] * k_tx,  # t0: gain_operators' core_tx expression, bit for bit
        )


@dataclass(frozen=True, eq=False)
class SweepBase:
    """A load configuration and what every rank-1 change of one of its loads reuses.

    gammas are the load reflections and t0 the configuration's core_tx. invs are the checked
    inverses of its two loops, the terminated-port loop I - S_BB G and the interconnection loop
    I - S Theta, and f_norms the (2, 2, 1) Frobenius norms of the loops (row 0) and of their
    inverses (row 1). sab_g is S_AB G, g_rf and k_tx the frontend's reflections and source
    injections (vectors, as RFFrontend holds them) and ls = (I - S Theta)^-1 S. None of these
    depends on the load a sweep changes.
    """

    fixed_s: np.ndarray
    gammas: np.ndarray
    model: ReMSModel
    invs: tuple
    f_norms: np.ndarray
    sab_g: np.ndarray
    g_rf: np.ndarray
    ls: np.ndarray
    k_tx: np.ndarray
    t0: np.ndarray

    def load_sweep_transmit(self, coord: int, gamma_set):
        """(T0, u, v, w, b): core_tx = T0 + w[k] u v with load coord set to the reflection gamma_set[k].

        u is the response at a_R tilde to a unit wave into that control port, v the wave out of it
        per unit v_tx, and w = delta / (1 - rho delta), delta = gamma - gammas[coord] the change of
        its reflection and rho the reflection looking into it: w = 0 at the incumbent setting.

        Candidate k changes each of the two loops by rank 1, A_k = A - w_k p q with w_k =
        delta_k / (1 - rho delta_k), rho the port's reflection before that loop closes. The triangle
        inequality on A_k and on its Sherman-Morrison inverse A^-1 + w_k (A^-1 p)(q A^-1) /
        (1 - w_k q A^-1 p) bounds ||A_k||_F ||A_k^-1||_F by (||A|| + ||p|| ||q|| |w_k|)
        (||A^-1|| + ||A^-1 p|| ||q A^-1|| |delta_k| / |1 - (rho + q A^-1 p) delta_k|), where
        rho + q A^-1 p is the reflection once the loop is closed: inf or nan where A_k may be
        singular. The (2, K) bounds come from one array expression; b[k] is candidate k's largest.
        None unless every b[k] <= RANK1_COND. A fresh inverse and an update each err by about
        eps cond (eps = 2.2e-16), so over two loops they differ by ~4 eps cond, < 1e-12 for
        cond <= 4.5e2 (measured < 1e-14 on generated models).
        """
        n, nm, n_tx = self.g_rf.size, self.sab_g.shape[0], self.k_tx.size
        s, ls, (inv1, inv) = self.fixed_s, self.ls, self.invs
        # port c of the fixed network with the other loads in place: S(delta) = S_0 + beta p q,
        # which changes the interconnection loop by beta p (q Theta), Theta = diag(g_rf) (+) C
        x, row1 = s[nm:, nm + coord], inv1[coord]
        ix = inv1 @ x
        p, q, rho1 = s[:nm, nm + coord] + self.sab_g @ ix, row1 @ s[nm:, :nm], row1 @ x
        q_th = np.concatenate((q[:n] * self.g_rf, q[n:] @ self.model.structure.coupling))
        ip, q_thi = inv @ p, q_th @ inv
        rho_out = rho1 + q_th @ ip  # with both loops closed
        d = gamma_set - self.gammas[coord]
        by_r, by_nm = np.array((x, ix, row1)), np.array((p, q_th, ip, q_thi))
        with np.errstate(all="ignore"):  # a singular candidate loop reads inf or nan
            # ||p|| ||q|| (row 0) and ||A^-1 p|| ||q A^-1|| (row 1) of each loop; q = e_c in the first
            fx, fix, frow = np.sqrt(np.vecdot(by_r, by_r).real)
            fp, fq, fip, fqi = np.sqrt(np.vecdot(by_nm, by_nm).real)
            pq = np.array([[fx, fp * fq], [fix * frow, fip * fqi]])
            # each loop's rho before (row 0) and after (row 1) it closes
            rhos = np.array([(0.0, rho1), (rho1, rho_out)])
            terms = self.f_norms + pq[..., None] * (abs(d) / abs(1.0 - rhos[..., None] * d))
            bound = (terms[0] * terms[1]).max(axis=0)
            if not np.all(bound <= RANK1_COND):
                return None
            v = (q[:n_tx] + q_th @ ls[:, :n_tx]) * self.k_tx
            return self.t0, ip[n:], v, d / (1.0 - rho_out * d), bound


@dataclass
class GainOperators:
    """Closed-form operators from every model input to every model output.

    Matrix-valued operators are dense; the two far-field-valued maps are
    exposed as methods because their output lives on the direction grid.
    """

    model: ReMSModel
    core_tx: np.ndarray = field(repr=False)  # (M, n_tx): v_tx -> a_R tilde
    mid_rx: np.ndarray = field(repr=False)  # (M, M): received port wave -> retransmit
    lead_rx: np.ndarray = field(repr=False)  # (n_rx, M): received port wave -> v_rx
    g_vtx_vrx: np.ndarray = field(repr=False)
    g_vgamma_vrx: np.ndarray = field(repr=False)
    g_igamma_vrx: np.ndarray = field(repr=False)
    g_vupsilon_vrx: np.ndarray = field(repr=False)

    def vtx_to_farfield(self, v_tx) -> FarFieldPattern:
        v = _source_vector(v_tx, self.model.frontend.n_tx, "v_tx")
        return apply_transmit(self.model.structure, self.core_tx @ v)

    def vtx_gain_matrix(self, d) -> np.ndarray:
        """(2, n_tx) far-field components at direction d per unit v_tx.

        A sequence of k directions gives the (k, 2, n_tx) stack from one lookup.
        """
        return self.model.structure.tx_at(d) @ self.core_tx

    def farfield_to_farfield(self, b: FarFieldPattern) -> FarFieldPattern:
        s = self.model.structure
        out = apply_scatter(s, b)
        out.values += apply_transmit(s, self.mid_rx @ apply_receive(s, b)).values
        return out

    def farfield_to_vrx(self, b: FarFieldPattern) -> np.ndarray:
        return self.lead_rx @ apply_receive(self.model.structure, b)

    def vtx_to_vrx(self, v_tx) -> np.ndarray:
        return self.g_vtx_vrx @ _source_vector(v_tx, self.model.frontend.n_tx, "v_tx")

    def vgamma_to_vrx(self, v_gamma) -> np.ndarray:
        return self.g_vgamma_vrx @ _source_vector(v_gamma, self.model.frontend.n_rx, "v_gamma")

    def igamma_to_vrx(self, i_gamma) -> np.ndarray:
        return self.g_igamma_vrx @ _source_vector(i_gamma, self.model.frontend.n_rx, "i_gamma")

    def upsilon_to_vrx(self, v_upsilon) -> np.ndarray:
        return self.g_vupsilon_vrx @ _source_vector(v_upsilon, self.model.structure.m_ports, "v_upsilon")


def _interconnection(model: ReMSModel):
    """(I - S Theta, its checked inverse, ls = (I - S Theta)^-1 S): the one loop of the model.

    The block-diagonal Theta = diag(g_rf) (+) C closes the tuning network S on the frontend's
    one-ports and on the structure's coupling: S Theta scales the frontend columns of S by g_rf
    and multiplies its radiating columns by C.
    """
    s, n = model.tuning.s, model.frontend.n
    s_theta = np.concatenate((s[:, :n] * model.frontend.g_rf, s[:, n:] @ model.structure.coupling), axis=1)
    loop = np.eye(s.shape[0]) - s_theta
    inv = checked_inv(loop, "interconnection loop (I - S Theta)")
    return loop, inv, inv @ s


def gain_operators(model: ReMSModel) -> GainOperators:
    """Closed-form operators from the outgoing waves [b_T; a_R] = ls e of the interconnection loop.

    e = [a_T; b_R] - Theta [b_T; a_R] holds the waves the sources inject: k_tx v_tx and
    k_rx (v_gamma + z_rx i_gamma) at the frontend, the received wave and (C - I) v_upsilon /
    (2 sqrt(r0)) at the radiating ports.
    """
    fe, st = model.frontend, model.structure
    n, n_tx, r, rx = fe.n, fe.n_tx, slice(fe.n, None), slice(fe.n_tx, fe.n)
    ls = _interconnection(model)[2]
    g_rx = fe.g_rf[rx]

    core_tx = ls[r, :n_tx] * fe.k_tx
    mid_rx = ls[r, r]
    # v_rx reads b_T - a_T = (1 - g_rf) b_T - e_T at the receive chains
    lead_rx = (fe.k_out * (1.0 - g_rx))[:, None] * ls[rx, r]
    to_vrx = fe.k_out[:, None] * ((1.0 - g_rx)[:, None] * ls[rx, :n] - np.eye(n)[rx])
    g_vtx_vrx = to_vrx[:, :n_tx] * fe.k_tx
    g_vgamma_vrx = to_vrx[:, rx] * fe.k_rx
    g_igamma_vrx = g_vgamma_vrx * fe.z_rx + np.diag(fe.z_rx)
    g_vupsilon_vrx = lead_rx @ (st.coupling - np.eye(st.m_ports)) / (2.0 * math.sqrt(fe.r0))

    return GainOperators(
        model, core_tx, mid_rx, lead_rx, g_vtx_vrx, g_vgamma_vrx, g_igamma_vrx, g_vupsilon_vrx
    )


# ---------------------------------------------------------------------------
# direct solve


@dataclass
class SolveResult:
    """All interface waves of one interconnection solve.

    Waves at the tuning network frontend side (a_t into the network, b_t
    back), at the radiating ports before (a_r, b_r) and after (a_r_tilde,
    b_r_tilde) the extrinsic-noise insertion plane, the receive voltages,
    and the outgoing far field.
    """

    a_t: np.ndarray
    b_t: np.ndarray
    a_r: np.ndarray
    b_r: np.ndarray
    a_r_tilde: np.ndarray
    b_r_tilde: np.ndarray
    v_rx: np.ndarray
    a_f: FarFieldPattern
    b_in: FarFieldPattern

    @property
    def p_transmit(self) -> float:
        """Net power into the tuning network from the frontend, W."""
        return float(np.vdot(self.a_t, self.a_t).real - np.vdot(self.b_t, self.b_t).real)

    @property
    def p_radiating(self) -> float:
        """Net power into the radiating ports, W."""
        return float(np.vdot(self.a_r, self.a_r).real - np.vdot(self.b_r, self.b_r).real)

    @property
    def p_farfield(self) -> float:
        """Net radiated power, W."""
        return total_power(self.a_f) - total_power(self.b_in)


def _source_vector(x, size: int, name: str) -> np.ndarray:
    if x is None:
        return np.zeros(size, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if x.shape != (size,):
        raise ModelError(f"{name} shape {x.shape} != ({size},)")
    if not np.all(np.isfinite(x)):
        raise ModelError(f"{name} must be finite")
    return x


def solve_direct(
    model: ReMSModel,
    v_tx=None,
    v_gamma=None,
    i_gamma=None,
    b_in: FarFieldPattern | None = None,
    v_upsilon=None,
) -> SolveResult:
    """Solve the stacked block relations for all interface waves."""
    fe, tn, st = model.frontend, model.tuning, model.structure
    n, m = fe.n, st.m_ports
    v_tx = _source_vector(v_tx, fe.n_tx, "v_tx")
    v_gamma = _source_vector(v_gamma, fe.n_rx, "v_gamma")
    i_gamma = _source_vector(i_gamma, fe.n_rx, "i_gamma")
    v_upsilon = _source_vector(v_upsilon, m, "v_upsilon")
    if b_in is None:
        b_in = zero_pattern(st.grid)
    elif not b_in.grid.compatible(st.grid):
        raise ModelError("incident pattern grid does not match structure grid")

    # unknowns x = [a_T, b_T, a_R, b_R, a_R~, b_R~]
    dim = 2 * n + 4 * m
    sl_at = slice(0, n)
    sl_bt = slice(n, 2 * n)
    sl_ar = slice(2 * n, 2 * n + m)
    sl_br = slice(2 * n + m, 2 * n + 2 * m)
    sl_art = slice(2 * n + 2 * m, 2 * n + 3 * m)
    sl_brt = slice(2 * n + 3 * m, 2 * n + 4 * m)
    a = np.zeros((dim, dim), dtype=complex)
    rhs = np.zeros(dim, dtype=complex)
    c_ups = 1.0 / (2.0 * math.sqrt(fe.r0))
    row = 0

    # tuning network: [b_T; a_R] = S [a_T; b_R]
    a[row : row + n, sl_bt] = np.eye(n)
    a[row : row + n, sl_at] = -tn.s_tt
    a[row : row + n, sl_br] = -tn.s_tr
    row += n
    a[row : row + m, sl_ar] = np.eye(m)
    a[row : row + m, sl_at] = -tn.s_rt
    a[row : row + m, sl_br] = -tn.s_rr
    row += m
    # extrinsic noise insertion between tuning and structure
    a[row : row + m, sl_art] = np.eye(m)
    a[row : row + m, sl_ar] = -np.eye(m)
    rhs[row : row + m] = c_ups * v_upsilon
    row += m
    a[row : row + m, sl_br] = np.eye(m)
    a[row : row + m, sl_brt] = -np.eye(m)
    rhs[row : row + m] = -c_ups * v_upsilon
    row += m
    # radiating structure port block
    a[row : row + m, sl_brt] = np.eye(m)
    a[row : row + m, sl_art] = -st.coupling
    rhs[row : row + m] = apply_receive(st, b_in)
    row += m
    # frontend one-ports
    a[row : row + n, sl_at] = np.eye(n)
    a[row : row + n, sl_bt] = -np.diag(fe.g_rf)
    rhs[row : row + fe.n_tx] = fe.k_tx * v_tx
    rhs[row + fe.n_tx : row + n] = fe.k_rx * (v_gamma + fe.z_rx * i_gamma)
    row += n

    check_condition(a, "direct interconnection system")
    x = np.linalg.solve(a, rhs)
    resid = np.max(np.abs(a @ x - rhs)) / max(1.0, float(np.max(np.abs(rhs))))
    if not resid <= 1e-10:
        raise NumericsError(f"direct solve residual {resid:.3e} exceeds 1e-10")

    a_t, b_t = x[sl_at], x[sl_bt]
    a_r, b_r = x[sl_ar], x[sl_br]
    a_rt, b_rt = x[sl_art], x[sl_brt]
    v_rx = fe.k_out * (b_t - a_t)[fe.n_tx :] + fe.z_rx * i_gamma
    a_f = apply_scatter(st, b_in)
    a_f.values += apply_transmit(st, a_rt).values
    return SolveResult(a_t, b_t, a_r, b_r, a_rt, b_rt, v_rx, a_f, b_in)


# ---------------------------------------------------------------------------
# power metrics


def _efficiency(p_out: float, p_in: float, what: str) -> float:
    if p_in == 0.0:
        raise ModelError(f"{what} is zero")
    return p_out / p_in


def matching_efficiency(model: ReMSModel, res: SolveResult, v_tx) -> float:
    """Transmit power over available power."""
    return _efficiency(res.p_transmit, model.frontend.available_power(v_tx), "available power")

def tuning_efficiency(res: SolveResult) -> float:
    """Radiating-port power over transmit power."""
    return _efficiency(res.p_radiating, res.p_transmit, "transmit power")

def radiation_efficiency(res: SolveResult) -> float:
    """Radiated power over radiating-port power."""
    return _efficiency(res.p_farfield, res.p_radiating, "radiating-port power")


def rems_gain(model: ReMSModel, v_tx, d) -> float:
    """Radiated intensity at d over available power, times 4 pi.

    Collapses to the usual antenna gain when the model has one lossless
    matched chain; in general it folds matching, tuning, and radiation
    losses into one number. A drive whose power overflows raises NumericsError.
    """
    v_tx = _source_vector(v_tx, model.frontend.n_tx, "v_tx")
    val = gain_operators(model).vtx_gain_matrix(d) @ v_tx
    p_a = model.frontend.available_power(v_tx)
    if p_a <= 0.0:
        raise ModelError("available power is zero; drive at least one chain")
    gain = 4.0 * math.pi * float(np.vdot(val, val).real) / p_a
    if not (math.isfinite(p_a) and math.isfinite(gain)):
        raise NumericsError(f"gain of drive v_tx is {gain} at available power {p_a:.3e} W")
    return gain


def directivity(pattern: FarFieldPattern, d) -> float:
    """4 pi times intensity at d over total radiated power."""
    p = total_power(pattern)
    if p <= 0.0:
        raise ModelError("pattern radiates no power")
    return 4.0 * math.pi * intensity(pattern, d) / p
