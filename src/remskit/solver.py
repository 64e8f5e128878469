"""Interconnection of frontend, tuning network, and radiating structure.

Two independent solution paths are provided. `gain_operators` assembles the
closed-form input/output operators of the interconnected model from one loop:
the tuning network S closed on the block-diagonal Theta = diag(g_rf) (+) C,
the frontend's one-ports and the structure's coupling, gives
(I - S Theta)^-1 S, which also reduces a fixed network to its load ports. `solve_direct` stacks
the raw block relations into one linear system and solves for every interior
wave vector; it exists as a cross-check and for power accounting, since it
exposes the waves at each reference plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._textio import complex_array
from .errors import ModelError, NumericsError
from .farfield import FarFieldPattern, _one_direction, intensity, total_power, zero_pattern
from .network import (
    CERTIFIED_COND,
    RFFrontend,
    TuningNetwork,
    check_condition,
    checked_inv,
    condition_number,
    reduce_terminated_ports,
    reflection_coefficient,
)
from .radiating import RadiatingStructure, apply_receive, apply_scatter, apply_transmit


def _check_radiating_ports(m_tuning: int, m_structure: int) -> None:
    if m_tuning != m_structure:
        raise ModelError(f"tuning network drives {m_tuning} radiating ports, structure has {m_structure}")


@dataclass
class ReMSModel:
    """Frontend + tuning network + radiating structure, shape-checked."""

    structure: RadiatingStructure
    tuning: TuningNetwork
    frontend: RFFrontend

    def __post_init__(self):
        _check_radiating_ports(self.tuning.m_radiating, self.structure.m_ports)
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

    fixed_s is the (N + M + r)-port fixed network, ports ordered [frontend | radiating | control].
    Calling the builder with r load impedances (ohms, referenced to r0) terminates control port j
    in load j and returns that configuration's ReMSModel; load_ports gives the network the loads see.
    """

    structure: RadiatingStructure
    frontend: RFFrontend
    fixed_s: np.ndarray

    def __post_init__(self):
        s, nm = complex_array(self.fixed_s, "fixed network"), self.frontend.n + self.structure.m_ports
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ModelError(f"fixed network shape {s.shape} is not square")
        if len(s) < nm:
            raise ModelError(
                f"fixed network has {len(s)} ports, fewer than the N + M = {nm} of frontend and structure"
            )
        object.__setattr__(self, "fixed_s", s)  # the dataclass is frozen

    @property
    def r0(self) -> float:
        return self.frontend.r0

    def __call__(self, z_values) -> ReMSModel:
        n, m = self.frontend.n, self.structure.m_ports
        s = reduce_terminated_ports(self.fixed_s, n + m, reflection_coefficient(z_values, self.r0))
        return ReMSModel(self.structure, TuningNetwork(n, s), self.frontend)

    def load_ports(self, gamma_set) -> LoadPorts | None:
        """The r x r network the loads see, certified for reflections drawn from gamma_set; or None.

        With x = [frontend | radiating], c the control ports and Theta = diag(g_rf) (+) C, the
        matched-control loop L = (I - S_xx Theta)^-1 leaves S_LL = S_cx Theta L S_xc + S_cc.
        The certificate covers every G = diag(gammas) over gamma_set: with g = max |gamma_set|,
        a = g ||S_LL||_2 and a_cc = g ||S_cc||_2 below 1, cond(I - S_LL G) <= (1 + a) / (1 - a),
        ||K||_2 <= 1 / (1 - a), and a rebuild's cond(I - S_cc G) <= (1 + a_cc) / (1 - a_cc). Its
        interconnection loop I - S_red Theta = (I - S_xx Theta)(I - W G J V), W = L S_xc,
        V = S_cx Theta, J = (I - S_cc G)^-1, has inverse L + W G K V L = (I + W G K V) L, so its
        condition number is at most kappa_L (1 + x / (1 - a_cc))(1 + x / (1 - a)), x = g ||W||_2
        ||V||_2 and kappa_L that of I - S_xx Theta. bound, the largest of the three, covers every
        loop either path inverts. None if L fails its check, a or a_cc >= 1, or bound >
        CERTIFIED_COND (< COND_LIMIT): so every rebuild and every fresh K passes its check.
        """
        fe, st, s = self.frontend, self.structure, self.fixed_s
        n, nm, n_tx = fe.n, fe.n + st.m_ports, fe.n_tx
        try:
            loop, ls, s_theta = _interconnection(s, fe, st.coupling)  # ls = L [S_xx | S_xc]
        except NumericsError:
            return None
        w, v, s_cc = ls[:, nm:], s_theta[nm:], s[nm:, nm:]
        s_ll = v @ w + s_cc
        # ||S_LL||, ||S_cc||, ||W||^2 and ||V||^2 from one stacked SVD
        norms = np.linalg.svd(np.stack((s_ll, s_cc, w.mT.conj() @ w, v @ v.mT.conj())), compute_uv=False)[:, 0]
        g = float(np.abs(gamma_set).max())
        a, a_cc, x = g * norms[0], g * norms[1], g * math.sqrt(norms[2] * norms[3])
        if not (a < 1.0 and a_cc < 1.0):
            return None
        kappa = condition_number(loop) * (1.0 + x / (1.0 - a_cc)) * (1.0 + x / (1.0 - a))
        bound = max((1.0 + a) / (1.0 - a), (1.0 + a_cc) / (1.0 - a_cc), kappa)
        if not bound <= CERTIFIED_COND:
            return None
        r_tx = (v @ ls[:, :n_tx] + s[nm:, :n_tx]) * fe.k_tx
        return LoadPorts(ls[n:, :n_tx] * fe.k_tx, w[n:], r_tx, s_ll, float(bound))


@dataclass(frozen=True, eq=False)
class LoadPorts:
    """A fixed network reduced to its r load ports: T0 = P + Q G K R = X core_tx, K = (I - S_LL G)^-1.

    G = diag(gammas) holds the load reflections. With the loads matched, p is X core_tx and r the
    (r, n_tx) waves out of the control ports per unit v_tx; q is the X response of a_R tilde to unit
    waves into them, and s_ll is S_LL. The rows X may be any linear map of the M ports: load_ports
    gives X = I, and coordinate_ascent maps them to the problem's transmit rows.
    """

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    s_ll: np.ndarray
    bound: float  # ReconfigurableBuilder.load_ports' certificate

    def loop(self, gammas):
        """(K, T0): the checked loop inverse and T0 = P + Q G K R of configuration gammas."""
        k = checked_inv(np.eye(gammas.size) - self.s_ll * gammas, "load-port loop (I - S_LL G)")
        return k, self.p + (self.q * gammas) @ (k @ self.r)

    def update(self, k, gammas, coord, gamma_set):
        """(ks, u, v, w): from gammas with loop inverse k, load coord set to gamma_set[j], in O(r^2).

        By Sherman-Morrison the loop inverse becomes k + w[j] ks k[coord] and T0 becomes T0 + w[j] u v:
        ks = K S_LL e_c, u = Q (G ks + e_c), v = K[coord] R and w = delta / (1 - rho delta) with
        delta = gamma_set[j] - gammas[coord] and rho = ks[coord], so w = 0 at the incumbent setting.
        """
        ks, d = k @ self.s_ll[:, coord], gamma_set - gammas[coord]
        u = self.q @ (gammas * ks) + self.q[:, coord]
        return ks, u, k[coord] @ self.r, d / (1.0 - ks[coord] * d)


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

    @np.errstate(over="ignore", invalid="ignore")
    def farfield_to_farfield(self, b: FarFieldPattern) -> FarFieldPattern:
        s, b = self.model.structure, _incident_pattern(b, self.model.structure)
        out = apply_scatter(s, b)
        out.values += apply_transmit(s, self.mid_rx @ apply_receive(s, b)).values
        _finite(out.values, "scattered pattern")
        return out

    @np.errstate(over="ignore", invalid="ignore")
    def farfield_to_vrx(self, b: FarFieldPattern) -> np.ndarray:
        v_rx = self.lead_rx @ apply_receive(self.model.structure, _incident_pattern(b, self.model.structure))
        return _finite(v_rx, "v_rx")

    def vtx_to_vrx(self, v_tx) -> np.ndarray:
        return self.g_vtx_vrx @ _source_vector(v_tx, self.model.frontend.n_tx, "v_tx")

    def vgamma_to_vrx(self, v_gamma) -> np.ndarray:
        return self.g_vgamma_vrx @ _source_vector(v_gamma, self.model.frontend.n_rx, "v_gamma")

    def igamma_to_vrx(self, i_gamma) -> np.ndarray:
        return self.g_igamma_vrx @ _source_vector(i_gamma, self.model.frontend.n_rx, "i_gamma")

    def upsilon_to_vrx(self, v_upsilon) -> np.ndarray:
        return self.g_vupsilon_vrx @ _source_vector(v_upsilon, self.model.structure.m_ports, "v_upsilon")


def _interconnection(s, fe: RFFrontend, coupling):
    """(I - S_xx Theta, (I - S_xx Theta)^-1 S_x, S Theta): the loop closing s on the frontend and structure.

    x are the leading N + M ports of s and S_x its rows there; S Theta scales the frontend
    columns of s by g_rf and multiplies its radiating columns by C.
    """
    nm = fe.n + coupling.shape[0]
    s_theta = np.concatenate((s[:, : fe.n] * fe.g_rf, s[:, fe.n : nm] @ coupling), axis=1)
    loop = np.eye(nm) - s_theta[:nm]
    return loop, checked_inv(loop, "interconnection loop (I - S Theta)") @ s[:nm], s_theta


def gain_operators(model: ReMSModel) -> GainOperators:
    """Closed-form operators from the outgoing waves [b_T; a_R] = ls e of the interconnection loop.

    e = [a_T; b_R] - Theta [b_T; a_R] holds the waves the sources inject: k_tx v_tx and
    k_rx (v_gamma + z_rx i_gamma) at the frontend, the received wave and (C - I) v_upsilon /
    (2 sqrt(r0)) at the radiating ports.
    """
    fe, st = model.frontend, model.structure
    n, n_tx, r, rx = fe.n, fe.n_tx, slice(fe.n, None), slice(fe.n_tx, fe.n)
    ls = _interconnection(model.tuning.s, fe, st.coupling)[1]
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

    Waves at the tuning network's frontend side (a_t in, b_t back), at the
    radiating ports before (a_r, b_r) and after (a_r_tilde, b_r_tilde) the
    extrinsic-noise insertion plane, the receive voltages, the outgoing far
    field, and the net power (W) into the network, into the ports and radiated.
    """

    a_t: np.ndarray
    b_t: np.ndarray
    a_r: np.ndarray
    b_r: np.ndarray
    a_r_tilde: np.ndarray
    b_r_tilde: np.ndarray
    v_rx: np.ndarray
    a_f: FarFieldPattern
    p_transmit: float
    p_radiating: float
    p_farfield: float


def _source_vector(x, size: int, name: str) -> np.ndarray:
    return np.zeros(size, dtype=complex) if x is None else complex_array(x, name, (size,))


def _incident_pattern(b: FarFieldPattern, st: RadiatingStructure) -> FarFieldPattern:
    if not b.grid.compatible(st.grid):
        raise ModelError("incident pattern grid does not match structure grid")
    complex_array(b.values, "incident pattern")  # refuses a non-finite pattern
    return b


def _finite(x: np.ndarray, name: str) -> np.ndarray:
    """x, or NumericsError when an output of finite inputs overflows to inf or NaN."""
    if not np.all(np.isfinite(x)):
        raise NumericsError(f"{name} is not finite: the output overflows")
    return x


@np.errstate(over="ignore", invalid="ignore")
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
    b_in = zero_pattern(st.grid) if b_in is None else _incident_pattern(b_in, st)

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
    v_rx = _finite(fe.k_out * (b_t - a_t)[fe.n_tx :] + fe.z_rx * i_gamma, "v_rx")
    a_f = apply_scatter(st, b_in)
    a_f.values += apply_transmit(st, a_rt).values
    _finite(a_f.values, "radiated pattern a_f")
    powers = {
        "p_transmit": float(np.vdot(a_t, a_t).real - np.vdot(b_t, b_t).real),
        "p_radiating": float(np.vdot(a_r, a_r).real - np.vdot(b_r, b_r).real),
        "p_farfield": total_power(a_f) - total_power(b_in),
    }
    return SolveResult(a_t, b_t, a_r, b_r, a_rt, b_rt, v_rx, a_f, *(_finite(p, k) for k, p in powers.items()))


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
    val = gain_operators(model).vtx_gain_matrix(_one_direction(d)) @ v_tx
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
