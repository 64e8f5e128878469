"""Interconnection of frontend, tuning network, and radiating structure.

Two independent solution paths are provided. `gain_operators` assembles the
closed-form input/output operators of the interconnected model by resolving
the feedback loops between the blocks. `solve_direct` stacks the raw block
relations into one linear system and solves for every interior wave vector;
it exists as a cross-check and for power accounting, since it exposes the
waves at each reference plane.
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
    check_condition,
    checked_inv,
    reconfigurable_tuning,
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


@dataclass(frozen=True, eq=False)
class ReconfigurableBuilder:
    """Models of one structure and frontend behind a fixed network with tunable loads.

    fixed_s is the (N + M + r)-port fixed network, ports ordered [frontend |
    radiating | control]. Calling the builder with r load impedances (ohms,
    referenced to r0) terminates control port j in load j and returns that
    configuration's ReMSModel; a (K, r) stack of impedances gives one model
    whose tuning network holds the K configurations' networks.
    """

    structure: RadiatingStructure
    frontend: RFFrontend
    fixed_s: np.ndarray

    @property
    def r0(self) -> float:
        return self.frontend.r0

    def __call__(self, z_values) -> ReMSModel:
        gammas = reflection_coefficient(np.asarray(z_values, dtype=complex), self.r0)
        n, m = self.frontend.n, self.structure.m_ports
        tuning = reconfigurable_tuning(self.fixed_s, n, m, gammas)
        return ReMSModel(structure=self.structure, tuning=tuning, frontend=self.frontend)


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
        v = np.asarray(v_tx, dtype=complex)
        return apply_transmit(self.model.structure, self.core_tx @ v)

    def vtx_dense(self) -> np.ndarray:
        """(n, 2, n_tx) sampled transmit operator, one pattern per chain."""
        return np.einsum("mic,mt->ict", self.model.structure.tx_kernel, self.core_tx)

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
        return self.g_vtx_vrx @ np.asarray(v_tx, dtype=complex)

    def vgamma_to_vrx(self, v_gamma) -> np.ndarray:
        return self.g_vgamma_vrx @ np.asarray(v_gamma, dtype=complex)

    def igamma_to_vrx(self, i_gamma) -> np.ndarray:
        return self.g_igamma_vrx @ np.asarray(i_gamma, dtype=complex)

    def upsilon_to_vrx(self, v_upsilon) -> np.ndarray:
        return self.g_vupsilon_vrx @ np.asarray(v_upsilon, dtype=complex)


def _transmit_loops(model: ReMSModel):
    """(a_r, a_t, core_tx) after the checks of loops I - L2 and I - L1 - L3."""
    fe, tn, c = model.frontend, model.tuning, model.structure.coupling
    s_rf = fe.s_rf()
    l1 = s_rf @ tn.s_tt
    l2 = tn.s_rr @ c
    a_r = checked_inv(np.eye(c.shape[0]) - l2, "radiating-side loop (I - L2)")
    l3 = s_rf @ tn.s_tr @ c @ a_r @ tn.s_rt
    a_t = checked_inv(np.eye(fe.n) - l1 - l3, "transmit loop (I - L1 - L3)")
    core_tx = a_r @ tn.s_rt @ a_t @ fe.k_vtx()
    return a_r, a_t, core_tx


def _receive_loops(model: ReMSModel):
    """(b_t, b_r) after the checks of loops I - L5 and I - L6 - L7."""
    fe, tn, c = model.frontend, model.tuning, model.structure.coupling
    s_rf = fe.s_rf()
    l5 = tn.s_tt @ s_rf
    b_t = checked_inv(np.eye(fe.n) - l5, "frontend reflection loop (I - L5)")
    l6 = c @ tn.s_rr
    l7 = c @ tn.s_rt @ s_rf @ b_t @ tn.s_tr
    b_r = checked_inv(np.eye(c.shape[0]) - l6 - l7, "receive loop (I - L6 - L7)")
    return b_t, b_r


def transmit_operator(model: ReMSModel) -> np.ndarray:
    """(M, n_tx) transmit operator core_tx: v_tx -> a_R tilde.

    The receive-side loops are checked too, after the transmit loops, so this
    accepts exactly the models gain_operators accepts and raises the same
    error. A tuning network holding a (K, ., .) stack gives the (K, M, n_tx)
    stack of operators.
    """
    core_tx = _transmit_loops(model)[2]
    _receive_loops(model)
    return core_tx


def gain_operators(model: ReMSModel) -> GainOperators:
    """Resolve the interconnection feedback loops into closed-form operators."""
    fe, tn, st = model.frontend, model.tuning, model.structure
    i_n, i_m = np.eye(fe.n), np.eye(st.m_ports)
    s_rf = fe.s_rf()
    s_tt, s_tr, s_rt, s_rr = tn.s_tt, tn.s_tr, tn.s_rt, tn.s_rr
    c = st.coupling
    a_r, a_t, core_tx = _transmit_loops(model)
    b_t, b_r = _receive_loops(model)

    k_vtx, k_vgamma, k_igamma, k_vrx = fe.k_vtx(), fe.k_vgamma(), fe.k_igamma(), fe.k_vrx()

    mid_rx = (s_rt @ s_rf @ b_t @ s_tr + s_rr) @ b_r
    lead_rx = k_vrx @ (i_n - s_rf) @ b_t @ s_tr @ b_r

    f_mid = s_tr @ c @ a_r @ s_rt + s_tt - i_n  # v_rx reads b_T - a_T
    to_vrx = k_vrx @ f_mid @ a_t
    g_vtx_vrx = to_vrx @ k_vtx
    g_vgamma_vrx = to_vrx @ k_vgamma
    g_igamma_vrx = to_vrx @ k_igamma + fe.z_rx_diag()
    g_vupsilon_vrx = lead_rx @ (c - i_m) / (2.0 * math.sqrt(fe.r0))

    return GainOperators(
        model=model,
        core_tx=core_tx,
        mid_rx=mid_rx,
        lead_rx=lead_rx,
        g_vtx_vrx=g_vtx_vrx,
        g_vgamma_vrx=g_vgamma_vrx,
        g_igamma_vrx=g_igamma_vrx,
        g_vupsilon_vrx=g_vupsilon_vrx,
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

    def vec(x, size, name):
        if x is None:
            return np.zeros(size, dtype=complex)
        x = np.asarray(x, dtype=complex)
        if x.shape != (size,):
            raise ModelError(f"{name} shape {x.shape} != ({size},)")
        if not np.all(np.isfinite(x)):
            raise ModelError(f"{name} must be finite")
        return x

    v_tx = vec(v_tx, fe.n_tx, "v_tx")
    v_gamma = vec(v_gamma, fe.n_rx, "v_gamma")
    i_gamma = vec(i_gamma, fe.n_rx, "i_gamma")
    v_upsilon = vec(v_upsilon, m, "v_upsilon")
    if b_in is None:
        b_in = zero_pattern(st.grid)
    elif not b_in.grid.compatible(st.grid):
        raise ModelError("incident pattern grid does not match structure grid")

    if v_upsilon.any() and not st.extrinsic_noise_enabled:
        raise ModelError("extrinsic noise ports are disabled for this structure")

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
    a[row : row + n, sl_bt] = -fe.s_rf()
    rhs[row : row + n] = fe.k_vtx() @ v_tx + fe.k_vgamma() @ v_gamma + fe.k_igamma() @ i_gamma
    row += n

    check_condition(a, "direct interconnection system")
    x = np.linalg.solve(a, rhs)
    resid = np.max(np.abs(a @ x - rhs)) / max(1.0, float(np.max(np.abs(rhs))))
    if not resid <= 1e-10:
        raise NumericsError(f"direct solve residual {resid:.3e} exceeds 1e-10")

    a_t, b_t = x[sl_at], x[sl_bt]
    a_r, b_r = x[sl_ar], x[sl_br]
    a_rt, b_rt = x[sl_art], x[sl_brt]
    v_rx = fe.k_vrx() @ (b_t - a_t) + fe.z_rx_diag() @ i_gamma
    a_f = apply_scatter(st, b_in)
    a_f.values += apply_transmit(st, a_rt).values
    return SolveResult(
        a_t=a_t,
        b_t=b_t,
        a_r=a_r,
        b_r=b_r,
        a_r_tilde=a_rt,
        b_r_tilde=b_rt,
        v_rx=v_rx,
        a_f=a_f,
        b_in=b_in,
    )


# ---------------------------------------------------------------------------
# power metrics


def matching_efficiency(model: ReMSModel, res: SolveResult, v_tx) -> float:
    """Transmit power over available power."""
    return res.p_transmit / model.frontend.available_power(v_tx)

def tuning_efficiency(res: SolveResult) -> float:
    """Radiating-port power over transmit power."""
    return res.p_radiating / res.p_transmit

def radiation_efficiency(res: SolveResult) -> float:
    """Radiated power over radiating-port power."""
    return res.p_farfield / res.p_radiating


def rems_gain(model: ReMSModel, v_tx, d) -> float:
    """Radiated intensity at d over available power, times 4 pi.

    Collapses to the usual antenna gain when the model has one lossless
    matched chain; in general it folds matching, tuning, and radiation
    losses into one number.
    """
    ops = gain_operators(model)
    pat = ops.vtx_to_farfield(v_tx)
    p_a = model.frontend.available_power(v_tx)
    if p_a <= 0.0:
        raise ModelError("available power is zero; drive at least one chain")
    return 4.0 * math.pi * intensity(pat, d) / p_a


def directivity(pattern: FarFieldPattern, d) -> float:
    """4 pi times intensity at d over total radiated power."""
    p = total_power(pattern)
    if p <= 0.0:
        raise ModelError("pattern radiates no power")
    return 4.0 * math.pi * intensity(pattern, d) / p
