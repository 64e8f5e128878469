"""Joint load tuning and zero-forcing precoding."""

import logging
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FREQ, random_frontend, random_model
from remskit import ModelError, NumericsError, Scene
from remskit.beamform import (
    BeamformProblem,
    QuasiPowers,
    _acceptance_key,
    _fisher_yates,
    coordinate_ascent,
    evaluate_candidate,
    geometric_schedule,
    h_co,
    objective,
    quasi_powers,
    x_copol,
    zf_precoder,
)
from remskit.farfield import Direction, make_latlon_grid
from remskit.network import (
    COND_LIMIT,
    RFFrontend,
    condition_number,
    feedthrough_reflector_fixed,
    max_singular_value,
    reconfigurable_tuning,
    reflection_coefficient,
)
from remskit.radiating import RadiatingStructure, random_reciprocal_structure
from remskit.solver import (
    ReconfigurableBuilder,
    ReMSModel,
    gain_operators,
    rems_gain,
    transmit_operator,
)

CASE_STUDY = os.path.join(os.path.dirname(__file__), os.pardir, "scenes", "rra_case_study.yaml")


def test_x_copol_projector():
    assert np.allclose(x_copol(Direction(1.0, 0.0)), [1.0, 0.0])
    assert np.allclose(x_copol(Direction(1.0, math.pi / 2.0)), [0.0, -1.0])
    d = Direction(0.7, 2.1)
    assert np.allclose(x_copol(d), [math.cos(2.1), -math.sin(2.1)])


def test_zf_precoder_right_inverse():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    t = zf_precoder(h)
    assert t.shape == (5, 3)
    assert np.max(np.abs(h @ t - np.eye(3))) < 1e-12


def test_zf_precoder_rejects_degenerate_rows():
    row = np.array([1.0 + 1j, 2.0, 0.5j])
    h = np.vstack([row, row])
    with pytest.raises(NumericsError, match="Gram"):
        zf_precoder(h)


def test_h_co_rows_read_the_gain_operator():
    rng = np.random.default_rng(5)
    grid = make_latlon_grid(8, 10)
    model = random_model(rng, grid, n_tx=3, n_rx=0, m=2)
    dirs = (Direction(0.8, 1.2), Direction(2.0, 4.4))
    h = h_co(model, dirs)
    assert h.shape == (2, 3)
    ops = gain_operators(model)
    for i, d in enumerate(dirs):
        assert np.allclose(h[i], x_copol(d) @ ops.vtx_gain_matrix(d), rtol=0, atol=1e-14)


def _quasi_problem(dirs, second=()):
    return BeamformProblem(
        r=1,
        z_set=(50.0 + 0.0j,),
        primary_dirs=dirs,
        secondary_dirs=second,
    )


def test_quasi_powers_are_worst_case_radiated_gains():
    rng = np.random.default_rng(9)
    grid = make_latlon_grid(8, 10)
    model = random_model(rng, grid, n_tx=3, n_rx=0, m=2)
    dirs = (Direction(1.0, 0.3), Direction(1.9, 2.0))
    second = (Direction(0.4, 5.0),)
    t = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    qp = quasi_powers(model, t, _quasi_problem(dirs, second))

    g = np.array(
        [[rems_gain(model, t[:, u], d) for u in range(2)] for d in dirs]
    )
    assert qp.p_signal == pytest.approx(min(g[0, 0], g[1, 1]), rel=1e-12)
    assert qp.p_interf == pytest.approx(max(g[0, 1], g[1, 0]), rel=1e-12)
    g2 = max(rems_gain(model, t[:, u], second[0]) for u in range(2))
    assert qp.p_second == pytest.approx(g2, rel=1e-12)
    assert qp.denominator_part == qp.p_interf + qp.p_second


def test_quasi_powers_silent_stream_counts_as_zero_gain():
    rng = np.random.default_rng(2)
    grid = make_latlon_grid(8, 10)
    model = random_model(rng, grid, n_tx=2, n_rx=0, m=2)
    dirs = (Direction(1.0, 0.3), Direction(1.9, 2.0))
    t = np.zeros((2, 2), dtype=complex)
    t[:, 0] = [1.0, 0.5j]
    qp = quasi_powers(model, t, _quasi_problem(dirs))
    assert qp.p_signal == 0.0  # the dead stream pins the worst-case signal


def test_single_stream_has_no_interference_term():
    rng = np.random.default_rng(3)
    grid = make_latlon_grid(8, 10)
    model = random_model(rng, grid, n_tx=2, n_rx=0, m=2)
    qp = quasi_powers(model, np.array([[1.0], [1j]]), _quasi_problem((Direction(1.2, 0.0),)))
    assert qp.p_interf == 0.0
    assert qp.p_second == 0.0


def test_objective_handles_zero_denominator():
    rng = np.random.default_rng(4)
    grid = make_latlon_grid(8, 10)
    model = random_model(rng, grid, n_tx=2, n_rx=0, m=2)
    problem = _quasi_problem((Direction(1.2, 0.0),))
    t = np.array([[1.0], [0.0]], dtype=complex)
    assert objective(model, 0.0, t, problem) == math.inf
    t0 = np.zeros((2, 1), dtype=complex)
    assert objective(model, 0.0, t0, problem) == 0.0
    sig = objective(model, 2.0, t, problem)
    qp = quasi_powers(model, t, problem)
    assert sig == qp.p_signal / 2.0


def test_acceptance_key_total_order():
    finite_lo = _acceptance_key(QuasiPowers(1.0, 1.0, 0.0), 1.0)
    finite_hi = _acceptance_key(QuasiPowers(3.0, 1.0, 0.0), 1.0)
    unbounded = _acceptance_key(QuasiPowers(0.1, 0.0, 0.0), 0.0)
    unbounded_hi = _acceptance_key(QuasiPowers(0.2, 0.0, 0.0), 0.0)
    dead = _acceptance_key(QuasiPowers(0.0, 0.0, 0.0), 0.0)
    assert finite_lo < finite_hi
    assert finite_hi < unbounded < unbounded_hi
    assert dead < finite_lo
    assert dead == (0, 0.0, 0.0)


def test_geometric_schedule_values():
    sched = geometric_schedule()
    assert len(sched) == 10
    assert sched[0] == 10.0
    assert np.allclose(sched, [20.0 * 0.5**i for i in range(1, 11)])
    assert geometric_schedule(8.0, 0.25, 3) == (2.0, 0.5, 0.125)


def test_problem_validation():
    d = (Direction(1.0, 0.0),)
    with pytest.raises(ModelError, match="negative"):
        BeamformProblem(r=-1, z_set=(50.0,), primary_dirs=d)
    with pytest.raises(ModelError, match="empty"):
        BeamformProblem(r=1, z_set=(), primary_dirs=d)
    with pytest.raises(ModelError, match="right half-plane"):
        BeamformProblem(r=1, z_set=(-5.0 + 1j,), primary_dirs=d)
    with pytest.raises(ModelError, match="primary"):
        BeamformProblem(r=1, z_set=(50.0,), primary_dirs=())
    with pytest.raises(ModelError, match="member"):
        BeamformProblem(r=1, z_set=(50.0,), primary_dirs=d, z_init=49.0)
    with pytest.raises(ModelError, match="at least one sweep"):
        BeamformProblem(r=1, z_set=(50.0,), primary_dirs=d, i_max=0)
    with pytest.raises(ModelError, match="regularizer values"):
        BeamformProblem(r=1, z_set=(50.0,), primary_dirs=d, i_max=3, sigma_schedule=(1.0,))
    with pytest.raises(ModelError, match="positive"):
        BeamformProblem(r=1, z_set=(50.0,), primary_dirs=d, i_max=1, sigma_schedule=(0.0,))
    # defaults fill in quietly
    p = BeamformProblem(r=0, z_set=(50.0,), primary_dirs=d)
    assert p.z_init == 50.0 + 0.0j
    assert len(p.sigma_schedule) == p.i_max


def test_problem_rejects_non_finite_loads():
    d = (Direction(1.0, 0.0),)
    for bad in (complex("nan"), complex(math.inf, 0.0), complex(1.0, math.nan), complex(1.0, -math.inf)):
        with pytest.raises(ModelError, match="finite"):
            BeamformProblem(r=1, z_set=(50.0, bad), primary_dirs=d)


def test_problem_rejects_non_finite_regularizer():
    d = (Direction(1.0, 0.0),)
    for bad in (math.nan, math.inf):
        with pytest.raises(ModelError, match="finite"):
            BeamformProblem(r=1, z_set=(50.0,), primary_dirs=d, i_max=2, sigma_schedule=(1.0, bad))


# ---------------------------------------------------------------------------
# coordinate ascent on a one-load reflective network


Z_SET = (1.0 + 0.0j, 1.0 + 25.0j, 1.0 - 40.0j, 50.0 + 0.0j)


def _one_load_setup(seed=17):
    rng = np.random.default_rng(seed)
    grid = make_latlon_grid(8, 10)
    structure = random_reciprocal_structure(grid, 2, rng, FREQ)
    fixed_s = feedthrough_reflector_fixed(1, 2, 1)

    def builder(z_values) -> ReMSModel:
        gammas = reflection_coefficient(np.asarray(z_values, dtype=complex), 50.0)
        return ReMSModel(
            structure=structure,
            tuning=reconfigurable_tuning(fixed_s, 1, 2, gammas),
            frontend=RFFrontend(z_tx=[50.0], z_rx=np.zeros(0)),
        )

    problem = BeamformProblem(
        r=1,
        z_set=Z_SET,
        primary_dirs=(Direction(math.radians(60.0), 0.0),),
        secondary_dirs=(Direction(math.radians(120.0), math.pi),),
        i_max=3,
        sigma_schedule=(1.0, 0.25, 0.05),
        rng_seed=11,
    )
    return problem, builder


def test_single_load_sweep_matches_exhaustive_search():
    problem, builder = _one_load_setup()
    result = coordinate_ascent(problem, builder)

    # every configuration is rescored in the last sweep, so the final
    # incumbent must be the exhaustive argmax at the final regularizer
    sigma_last = problem.sigma_schedule[problem.i_max - 1]
    scores = [
        evaluate_candidate(problem, builder, (z,), sigma_last) for z in problem.z_set
    ]
    best = max(range(len(scores)), key=lambda k: scores[k].key)
    assert result.z_indices == (best,)
    assert result.z_r == (problem.z_set[best],)
    assert result.f_best == scores[best].f
    assert np.array_equal(result.t, scores[best].t)
    assert result.evaluations == problem.i_max * len(problem.z_set)


def test_trace_increases_and_repeat_is_identical():
    problem, builder = _one_load_setup()
    a = coordinate_ascent(problem, builder)
    b = coordinate_ascent(problem, builder)
    assert len(a.f_trace) >= 1
    assert all(y > x for x, y in zip(a.f_trace, a.f_trace[1:]))
    assert a.f_best == a.f_trace[-1]
    assert a.f_trace == b.f_trace
    assert a.z_r == b.z_r
    assert a.evaluations == b.evaluations
    assert np.array_equal(a.t, b.t)


def test_no_tunable_loads_returns_zero_forcing_of_fixed_model():
    rng = np.random.default_rng(23)
    grid = make_latlon_grid(8, 10)
    structure = random_reciprocal_structure(grid, 1, rng, FREQ)
    fixed_s = feedthrough_reflector_fixed(1, 1, 0)

    def builder(z_values) -> ReMSModel:
        assert z_values == ()
        return ReMSModel(
            structure=structure,
            tuning=reconfigurable_tuning(fixed_s, 1, 1, np.zeros(0)),
            frontend=RFFrontend(z_tx=[50.0], z_rx=np.zeros(0)),
        )

    problem = BeamformProblem(
        r=0,
        z_set=(50.0,),
        primary_dirs=(Direction(1.0, 0.5),),
        i_max=4,
    )
    result = coordinate_ascent(problem, builder)
    assert result.z_r == () and result.z_indices == ()
    assert result.evaluations == 1
    assert len(result.f_trace) == 1
    t_ref = zf_precoder(h_co(builder(()), problem.primary_dirs))
    assert np.array_equal(result.t, t_ref)


def test_failing_candidates_are_logged_and_skipped(caplog):
    problem, builder = _one_load_setup()
    bad_index = 3

    def flaky(z_values):
        if z_values[0] == problem.z_set[bad_index]:
            raise NumericsError("synthetic conditioning failure")
        return builder(z_values)

    with caplog.at_level(logging.WARNING, logger="remskit.beamform"):
        result = coordinate_ascent(problem, flaky)
    assert result.z_indices[0] != bad_index
    assert result.evaluations == problem.i_max * (len(problem.z_set) - 1)
    assert any("skipping load" in rec.getMessage() for rec in caplog.records)


def test_more_streams_than_transmit_chains_raises():
    problem, builder = _one_load_setup()
    problem = BeamformProblem(
        r=1,
        z_set=problem.z_set,
        primary_dirs=(Direction(1.0, 0.0), Direction(2.0, 1.0)),
        i_max=1,
        sigma_schedule=(1.0,),
    )
    with pytest.raises(ModelError, match="transmit chains"):
        coordinate_ascent(problem, builder)


# ---------------------------------------------------------------------------
# stacked candidate scoring against the per-candidate rebuild


def _coordinate_candidates(problem, z_idx, coord):
    """The load configurations of one coordinate pass from incumbent z_idx."""
    out = []
    for k in range(len(problem.z_set)):
        idx = list(z_idx)
        idx[coord] = k
        out.append(tuple(problem.z_set[i] for i in idx))
    return out


def _reference_scores(problem, builder, candidates, sigma):
    out = []
    for z in candidates:
        try:
            out.append(evaluate_candidate(problem, builder, z, sigma))
        except NumericsError as err:
            out.append(err)
    return out


def _stacked_scores(problem, builder, candidates, sigma):
    """Scores from one stacked build; the per-candidate ones if the stacked build raises."""
    try:
        core_tx = transmit_operator(builder(candidates))
    except NumericsError:
        reference = _reference_scores(problem, builder, candidates, sigma)
        return [None if isinstance(r, NumericsError) else r for r in reference]
    dirs = tuple(problem.primary_dirs) + tuple(problem.secondary_dirs)
    mats = builder.structure.tx_at(dirs) @ core_tx[:, None]
    return [evaluate_candidate(problem, builder, z, sigma, g) for z, g in zip(candidates, mats)]


def _assert_scores_agree(stacked, reference):
    """Same skip set; f, key and t equal to 1e-12 relative."""
    assert [s is None for s in stacked] == [isinstance(r, NumericsError) for r in reference]
    for got, ref in zip(stacked, reference):
        if got is None:
            continue
        assert got.f == pytest.approx(ref.f, rel=1e-12, abs=0.0)
        assert got.key[0] == ref.key[0]
        assert got.key[1:] == pytest.approx(ref.key[1:], rel=1e-12, abs=0.0)
        assert np.max(np.abs(got.t - ref.t)) <= 1e-12 * np.max(np.abs(ref.t))


def test_stacked_scoring_matches_reference_on_case_study():
    problem, builder = Scene.load(CASE_STUDY).beamform_problem()
    assert isinstance(builder, ReconfigurableBuilder)
    z_init = [problem.z_set.index(problem.z_init)] * problem.r
    z_rand = np.random.default_rng(3).integers(0, len(problem.z_set), problem.r)
    for z_idx, coord, sigma in (
        (z_init, 0, problem.sigma_schedule[0]),
        (z_rand, 9, problem.sigma_schedule[-1]),
    ):
        candidates = _coordinate_candidates(problem, z_idx, coord)
        _assert_scores_agree(
            _stacked_scores(problem, builder, candidates, sigma),
            _reference_scores(problem, builder, candidates, sigma),
        )


def _near_limit_case(rng, n_rx, r, factor):
    """A generated reconfigurable model and one coordinate pass over it.

    The fixed network is a random passive matrix, so S_BB != 0 and the
    terminated-port loop is not the identity. The coupling is chosen so that
    the target candidate's I - s_rr C has condition number near
    factor * COND_LIMIT.
    """
    n_tx, m = 2, r + 1
    n = n_tx + n_rx
    grid = make_latlon_grid(4, 6)
    dim = n + m + r
    fixed = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    fixed *= 0.9 / max_singular_value(fixed)
    frontend = random_frontend(rng, n_tx, n_rx)
    z_set = tuple(complex(rng.uniform(0.0, 100.0), rng.uniform(-150.0, 150.0)) for _ in range(5))
    # the ascent's first coordinate pass starts from z_idx and visits the target
    z_idx = [int(rng.integers(0, len(z_set)))] * r
    rng_seed = int(rng.integers(0, 1000))
    coord = _fisher_yates(np.random.default_rng(rng_seed), r)[0]
    target = int(rng.integers(0, len(z_set)))
    target_idx = list(z_idx)
    target_idx[coord] = target
    z_target = np.array([z_set[i] for i in target_idx])
    s_rr = reconfigurable_tuning(fixed, n, m, reflection_coefficient(z_target, frontend.r0)).s_rr

    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        return q

    sv = np.logspace(0.0, -math.log10(factor * COND_LIMIT), m)
    coupling = np.linalg.solve(s_rr, np.eye(m) - unitary() @ np.diag(sv) @ unitary())
    kernel = 0.3 * (rng.standard_normal((m, grid.size, 2)) + 1j * rng.standard_normal((m, grid.size, 2)))
    structure = RadiatingStructure(
        m_ports=m,
        coupling=coupling,
        tx_kernel=kernel,
        rx_kernel=kernel,
        scatter_kernel=None,
        grid=grid,
        frequency=FREQ,
    )
    primary = (Direction(1.0, 0.5), Direction(2.0, 3.0))[: int(rng.integers(1, 3))]
    problem = BeamformProblem(
        r=r,
        z_set=z_set,
        primary_dirs=primary,
        secondary_dirs=(Direction(0.6, 4.0),),
        z_init=z_set[z_idx[0]],
        i_max=2,
        sigma_schedule=(1.0, 0.1),
        rng_seed=rng_seed,
    )
    builder = ReconfigurableBuilder(structure, frontend, fixed)
    return problem, builder, z_idx, coord, target, s_rr


@pytest.mark.parametrize("factor", [0.2, 5.0])
@settings(max_examples=15, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_rx=st.integers(0, 2), r=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_scoring_matches_reference_on_generated_models(caplog, factor, n_rx, r, seed):
    rng = np.random.default_rng(seed)
    problem, builder, z_idx, coord, target, s_rr = _near_limit_case(rng, n_rx, r, factor)
    sigma = problem.sigma_schedule[-1]
    candidates = _coordinate_candidates(problem, z_idx, coord)
    reference = _reference_scores(problem, builder, candidates, sigma)

    # the target lands on the side of COND_LIMIT its I - s_rr C puts it
    m = builder.structure.m_ports
    l2_fails = condition_number(np.eye(m) - s_rr @ builder.structure.coupling) > COND_LIMIT
    hit = reference[target]
    assert l2_fails == (isinstance(hit, NumericsError) and "(I - L2)" in str(hit))
    _assert_scores_agree(_stacked_scores(problem, builder, candidates, sigma), reference)

    # a plain callable takes the per-candidate path; both take the same
    # steps and log the same skips, naming the same failing checks
    with caplog.at_level(logging.WARNING, logger="remskit.beamform"):
        caplog.clear()
        fast = coordinate_ascent(problem, builder)
        fast_skips = caplog.messages
        caplog.clear()
        slow = coordinate_ascent(problem, lambda z: builder(z))
    assert fast_skips == caplog.messages
    assert fast.z_indices == slow.z_indices
    assert fast.evaluations == slow.evaluations
    assert fast.f_trace == pytest.approx(slow.f_trace, rel=1e-12, abs=0.0)
    assert np.max(np.abs(fast.t - slow.t)) <= 1e-12 * np.max(np.abs(slow.t))
