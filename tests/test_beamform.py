"""Joint load tuning and zero-forcing precoding."""

import logging
import math
import os
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    FREQ,
    dense_theta,
    max_singular_value,
    random_frontend,
    random_model,
    random_passive_structure,
)
from remskit import ModelError, NumericsError, Scene
from remskit.beamform import (
    BeamformProblem,
    QuasiPowers,
    _fisher_yates,
    _objective,
    _projectors,
    _quasi_powers,
    _rank1_rows,
    _score_rows,
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
    TuningNetwork,
    _frobenius2,
    condition_number,
    feedthrough_reflector_fixed,
    reduce_terminated_ports,
    reflection_coefficient,
)
from remskit.radiating import RadiatingStructure, random_reciprocal_structure
from remskit.solver import (
    ReconfigurableBuilder,
    ReMSModel,
    gain_operators,
    rems_gain,
    solve_direct,
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


def test_zf_precoder_stack_matches_per_slice_calls():
    rng = np.random.default_rng(1)
    stack = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    t = zf_precoder(stack)
    assert t.shape == (4, 3, 2)
    for h_k, t_k in zip(stack, t):
        ref = zf_precoder(h_k)
        assert np.max(np.abs(t_k - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(h_k @ t_k - np.eye(2))) < 1e-12


def test_zf_precoder_stack_with_rank_deficient_member_raises():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((3, 2, 3)) + 1j * rng.standard_normal((3, 2, 3))
    stack[1] = [[1.0, 2.0j, 0.0], [1.0, 2.0j, 0.0]]
    with pytest.raises(
        NumericsError, match=r"^zero-forcing Gram matrix: condition number inf exceeds 1e\+12$"
    ):
        zf_precoder(stack)


def test_stacked_quasi_powers_give_silent_columns_zero_gain():
    rng = np.random.default_rng(8)
    grid = make_latlon_grid(8, 10)
    model = random_model(rng, grid, n_tx=2, n_rx=0, m=2)
    dirs = (Direction(1.0, 0.3), Direction(1.9, 2.0))
    second = (Direction(0.4, 5.0),)
    problem = _quasi_problem(dirs, second)
    t = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    t[1, :, 1] = 0.0
    t[2] = 0.0
    mats = np.broadcast_to(gain_operators(model).vtx_gain_matrix(dirs + second), (3, 3, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        powers = _quasi_powers(model.frontend, mats, t, len(dirs))
    assert all(p.shape == (3,) for p in powers)  # one (K,) array per quasi-power
    live, half, dead = (QuasiPowers(*p) for p in zip(*(p.tolist() for p in powers)))
    ref = quasi_powers(model, t[0], problem)
    for got, want in zip(astuple(live), astuple(ref)):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert half.p_signal == 0.0  # the silent stream pins the worst-case signal
    assert half.p_interf == pytest.approx(rems_gain(model, t[1, :, 0], dirs[1]), rel=1e-12)
    assert half.p_second == pytest.approx(rems_gain(model, t[1, :, 0], second[0]), rel=1e-12)
    assert dead == QuasiPowers(0.0, 0.0, 0.0)


def _gathered_interference(gains, u):
    """The off-diagonal max of the (K, u + s, u) gains' primary rows as a boolean gather."""
    return gains[:, :u][:, ~np.eye(u, dtype=bool)].max(axis=1, initial=0.0)


@pytest.mark.parametrize("u", [1, 2, 3])
def test_interference_max_over_a_zeroed_diagonal_has_the_bits_of_the_gather(u):
    rng = np.random.default_rng(40 + u)
    gains = rng.uniform(0.0, 5.0, (64, u + 1, u))
    gains[rng.random(gains.shape) < 0.2] = 0.0
    k, i, j = (rng.integers(0, n, 40) for n in gains.shape)
    gains[k[:20], i[:20], j[:20]] = math.inf
    gains[k[20:], i[20:], j[20:]] = math.nan
    for c in range(u):  # on the diagonal only
        gains[2 * c, c, c], gains[2 * c + 1, c, c] = math.inf, math.nan
    zeroed = np.where(np.eye(u, dtype=bool), 0.0, gains[:, :u]).max(axis=(1, 2), initial=0.0)
    assert list(map(float.hex, zeroed.tolist())) == list(map(float.hex, _gathered_interference(gains, u).tolist()))

    # and _quasi_powers, whose gains are |mats t|^2 over the available power
    fe = RFFrontend(z_tx=[50.0, 30.0 + 5.0j, 75.0], z_rx=[])
    mats = rng.standard_normal((64, u + 1, 2, 3)) + 1j * rng.standard_normal((64, u + 1, 2, 3))
    mats[:4] *= 1e154  # |mats t|^2 overflows to inf
    mats[4:8] *= 1e160  # and further, to NaN
    t = rng.standard_normal((64, 3, u)) + 1j * rng.standard_normal((64, 3, u))
    t[8:12, :, 0] = 0.0  # silent columns
    t[12] = math.nan
    val = mats @ t[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        p_interf = _quasi_powers(fe, mats, t, u)[1]
        radiated = 4.0 * math.pi * np.vecdot(val, val, axis=-2).real
        p_avail = np.vecdot(t, t / fe.z_tx.real[:, None], axis=-2).real[:, None] / 4.0
        gains = np.divide(radiated, p_avail, out=np.zeros(radiated.shape), where=p_avail != 0.0)
    assert np.isinf(gains).any() and np.isnan(gains).any()
    assert list(map(float.hex, p_interf.tolist())) == list(map(float.hex, _gathered_interference(gains, u).tolist()))


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


def test_stacked_objective_column_is_the_per_candidate_scores_bit_for_bit():
    # one array of K objectives against K scores of one, and against the zero-denominator rule
    rng = np.random.default_rng(12)
    model = random_model(rng, make_latlon_grid(8, 10), n_tx=2, n_rx=0, m=2)
    d1, d2, d3 = Direction(1.0, 0.3), Direction(1.9, 2.0), Direction(0.4, 5.0)
    # one stream at sigma 0: a zero denominator, inf with signal and 0.0 for the silent precoder
    for dirs, second, sigma, want in (
        ((d1,), (), 0.0, [math.inf, 0.0, 0.0, math.inf]),
        ((d1, d2), (d3,), 0.3, None),
        ((d1, d2), (), 0.0, None),
    ):
        problem = _quasi_problem(dirs, second)
        t = rng.standard_normal((4, 2, len(dirs))) + 1j * rng.standard_normal((4, 2, len(dirs)))
        t[1, :, 0] = 0.0  # a silent column
        t[2] = 0.0  # a silent precoder
        mats = np.broadcast_to(gain_operators(model).vtx_gain_matrix(dirs + second), (4, len(dirs + second), 2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            column = _objective(*_quasi_powers(model.frontend, mats, t, len(dirs)), sigma).tolist()
        assert [f.hex() for f in column] == [objective(model, sigma, t_k, problem).hex() for t_k in t]
        for f, t_k in zip(column, t):
            qp = quasi_powers(model, t_k, problem)
            denom = (qp.p_interf + qp.p_second) + sigma
            ref = qp.p_signal / denom if denom != 0.0 else (math.inf if qp.p_signal > 0.0 else 0.0)
            assert f.hex() == ref.hex()
        assert want is None or column == want

    # a coordinate's candidates, rebuilt and scored as one stack, against the reference path
    problem, builder = Scene.load(CASE_STUDY).beamform_problem()
    sigma = problem.sigma_schedule[3]
    candidates = _coordinate_candidates(problem, [0] * problem.r, 5)
    dirs = (*problem.primary_dirs, *problem.secondary_dirs)
    mats = np.stack([gain_operators(builder(z)).vtx_gain_matrix(dirs) for z in candidates])
    q = _projectors(problem.primary_dirs, problem.q_co)
    column = _score_rows(builder.frontend, mats, q, sigma)[0].tolist()
    assert [f.hex() for f in column] == [evaluate_candidate(problem, builder, z, sigma).f.hex() for z in candidates]


_POWER = st.floats(min_value=0.0)


def _score_f(sigma, qp):
    """The objective a stacked pass forms for quasi-powers qp, as the one entry of a stack of one."""
    column = _objective(*(np.array([p]) for p in astuple(qp)), sigma)
    assert column.shape == (1,) and column.dtype == float
    return column[0]


@given(
    p=st.tuples(_POWER, _POWER, _POWER),
    sigma=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_objective_is_one_float_at_positive_sigma(p, sigma):
    qp = QuasiPowers(*p)
    assert _score_f(sigma, qp).hex() == (qp.p_signal / ((qp.p_interf + qp.p_second) + sigma)).hex()


def test_objective_at_zero_sigma():
    assert _score_f(0.0, QuasiPowers(0.1, 0.0, 0.0)) == math.inf
    assert _score_f(0.0, QuasiPowers(0.0, 0.0, 0.0)) == 0.0
    assert _score_f(0.0, QuasiPowers(3.0, 1.0, 0.5)) == 2.0


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("r", 1.5, "BeamformProblem r must be an integer, got 1.5"),
        ("i_max", 2.5, "BeamformProblem i_max must be an integer, got 2.5"),
        ("i_max", True, "BeamformProblem i_max must be a number, got True"),
        ("rng_seed", -1, "BeamformProblem rng_seed must be at least 0, got -1"),
        ("rng_seed", 1.5, "BeamformProblem rng_seed must be an integer, got 1.5"),
        ("z_set", (50, "x"), "load impedances must be complex numbers, got (50, 'x')"),
        ("z_set", 50.0, "load impedances must be complex numbers, got 50.0"),
        ("sigma_schedule", (1.0, "x"), "regularizer schedule must be numbers, got (1.0, 'x')"),
        ("primary_dirs", (1.0,), "primary and secondary directions must be Direction entries"),
        ("secondary_dirs", ((0.5, 0.0),), "primary and secondary directions must be Direction entries"),
        ("primary_dirs", 5, "primary_dirs must be a list of Directions, got 5"),
        ("secondary_dirs", None, "secondary_dirs must be a list of Directions, got None"),
    ],
)
def test_problem_rejects_malformed_fields(field, value, message):
    fields = {"r": 1, "z_set": (50.0,), "primary_dirs": (Direction(1.0, 0.0),), field: value}
    with pytest.raises(ModelError) as err:
        BeamformProblem(**fields)
    assert str(err.value) == message


def test_problem_keeps_a_large_integer_seed_exactly():
    seed = 2**64 + 1  # above 2**53, where a float holds no odd integer
    p = BeamformProblem(r=1, z_set=(50.0,), primary_dirs=(Direction(1.0, 0.0),), rng_seed=seed)
    assert p.rng_seed == seed


# ---------------------------------------------------------------------------
# coordinate ascent on a one-load reflective network


Z_SET = (1.0 + 0.0j, 1.0 + 25.0j, 1.0 - 40.0j, 50.0 + 0.0j)


def _one_load_setup(seed=17):
    rng = np.random.default_rng(seed)
    grid = make_latlon_grid(8, 10)
    structure = random_reciprocal_structure(grid, 2, rng, FREQ)
    fixed_s = feedthrough_reflector_fixed(1, 2)

    def builder(z_values) -> ReMSModel:
        gammas = reflection_coefficient(np.asarray(z_values, dtype=complex), 50.0)
        return ReMSModel(
            structure=structure,
            tuning=TuningNetwork(1, reduce_terminated_ports(fixed_s, 3, gammas)),
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
    best = max(range(len(scores)), key=lambda k: scores[k].f)
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
    fixed_s = feedthrough_reflector_fixed(1, 1)

    def builder(z_values) -> ReMSModel:
        assert z_values == ()
        return ReMSModel(
            structure=structure,
            tuning=TuningNetwork(1, reduce_terminated_ports(fixed_s, 2, np.zeros(0))),
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
    with pytest.raises(ModelError, match="2 streams need at least 2 transmit chains, got 1"):
        coordinate_ascent(problem, builder)
    # with no loads the count is checked too, before the one-candidate shortcut
    with pytest.raises(ModelError, match="2 streams need at least 2 transmit chains, got 1"):
        coordinate_ascent(replace(problem, r=0), lambda z_values: builder(problem.z_set[:1]))


# ---------------------------------------------------------------------------
# stacked candidate scoring against the per-candidate rebuild: a coordinate's
# K candidates from rank-1 updates of the load-port loop, scored in one array pass


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


def _problem_rows(builder, dirs):
    """The (2 len(dirs), M) transmit rows of builder's structure at dirs."""
    return builder.structure.tx_at(tuple(dirs)).reshape(-1, builder.structure.m_ports)


def _ascent_inputs(problem, builder):
    """The load reflections, load ports on the problem's transmit rows and co-polar projectors that an
    ascent forms once for its rank-1 passes."""
    gamma_set = reflection_coefficient(problem.z_set, builder.r0)
    ports = builder.load_ports(gamma_set)
    assert ports is not None  # the reduction is certified
    rows = _problem_rows(builder, (*problem.primary_dirs, *problem.secondary_dirs))
    ports = replace(ports, p=rows @ ports.p, q=rows @ ports.q)
    return gamma_set, ports, _projectors(problem.primary_dirs, problem.q_co)


def _rank1_rows_at(problem, builder, z_idx, coord, sigma):
    """Load coord's rank-1 rows at regularizer sigma from incumbent z_idx through a fresh load-port loop, or None."""
    gamma_set, ports, q = _ascent_inputs(problem, builder)
    gammas = gamma_set[list(z_idx)]
    k, t0 = ports.loop(gammas)
    _, u, v, w = ports.update(k, gammas, coord, gamma_set)
    return _rank1_rows(builder.frontend, t0, u, v, w, ports.bound, q, sigma)


def _rank1_scores(problem, builder, z_idx, coord, sigma):
    """Scores of load coord's candidates from the rank-1 pass, which must not decline."""
    rows = _rank1_rows_at(problem, builder, z_idx, coord, sigma)
    assert rows is not None  # the coordinate takes the rank-1 path, not the fallback
    return [evaluate_candidate(problem, builder, None, sigma, row) for row in rows]


def _assert_scores_agree(scores, reference):
    """Same skip set; f and t equal to 1e-12 relative."""
    assert [s is None for s in scores] == [isinstance(r, NumericsError) for r in reference]
    for got, ref in zip(scores, reference):
        if got is None:
            continue
        assert got.f == pytest.approx(ref.f, rel=1e-12, abs=0.0)
        assert np.max(np.abs(got.t - ref.t)) <= 1e-12 * np.max(np.abs(ref.t))


def _assert_ascents_agree(fast, slow):
    """The rank-1 ascent took the per-candidate rebuild's steps: same loads and evaluations, and its
    objective trace and precoder equal to 1e-12 relative."""
    assert fast.z_indices == slow.z_indices
    assert fast.evaluations == slow.evaluations
    assert fast.f_trace == pytest.approx(slow.f_trace, rel=1e-12, abs=0.0)
    assert np.max(np.abs(fast.t - slow.t)) <= 1e-12 * np.max(np.abs(slow.t))


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
            _rank1_scores(problem, builder, z_idx, coord, sigma),
            _reference_scores(problem, builder, candidates, sigma),
        )


def test_incumbent_rank1_row_is_the_rebuild_row_on_case_study():
    # the incumbent's own setting has w = 0: its row is T0's bit for bit, and T0 is the rebuild's core_tx
    problem, builder = Scene.load(CASE_STUDY).beamform_problem()
    rng = np.random.default_rng(11)
    z_idx = [int(i) for i in rng.integers(0, len(problem.z_set), problem.r)]
    assert len(set(z_idx)) > 1
    z_values = [problem.z_set[i] for i in z_idx]
    sigma = problem.sigma_schedule[-1]
    ref = evaluate_candidate(problem, builder, z_values, sigma)
    gamma_set, ports, q = _ascent_inputs(problem, builder)
    gammas = gamma_set[z_idx]
    k, t0 = ports.loop(gammas)
    # T0 is the (2(u + s), n_tx) gain-matrix stack of the rebuild
    mats = gain_operators(builder(z_values)).vtx_gain_matrix((*problem.primary_dirs, *problem.secondary_dirs))
    assert t0.shape == (2 * 2, builder.frontend.n_tx)
    assert np.max(np.abs(t0 - mats.reshape(t0.shape))) <= 1e-13 * np.max(np.abs(mats))
    f0, _, t_0 = _score_rows(builder.frontend, t0.reshape(1, -1, 2, t0.shape[1]), q, sigma)
    own = evaluate_candidate(problem, builder, None, sigma, (f0.tolist()[0], t_0[0]))
    for coord in range(problem.r):
        _, u, v, w = ports.update(k, gammas, coord, gamma_set)
        assert u.shape == (2 * 2,) and w[z_idx[coord]] == 0.0
        f, t = _rank1_rows(builder.frontend, t0, u, v, w, ports.bound, q, sigma)[z_idx[coord]]
        assert f.hex() == own.f.hex() and np.array_equal(t, own.t)
    _assert_scores_agree([own], [ref])


def _near_limit_case(rng, n_rx, r, factor, frontend_closed=True):
    """A generated reconfigurable model and one coordinate pass over it.

    The fixed network is a random passive matrix, so S_BB != 0 and the
    terminated-port loop is not the identity. The coupling is chosen so that
    the target candidate's I - S' C has condition number near
    factor * COND_LIMIT, where S' is the radiating-side reflection
    s_rr + s_rt G (I - s_tt G)^-1 s_tr with the frontend closed, G = S_RF, or
    s_rr alone without frontend_closed. I - S Theta then is near the limit in
    the first case and only its s_rr C sub-loop in the second.
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
    s = reduce_terminated_ports(fixed, n + m, reflection_coefficient(z_target, frontend.r0))
    s_rr = s[n:, n:]
    if frontend_closed:
        g = frontend.g_rf
        s_rr = s_rr + (s[n:, :n] * g) @ np.linalg.solve(np.eye(n) - s[:n, :n] * g, s[:n, n:])

    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        return q

    sv = np.logspace(0.0, -math.log10(factor * COND_LIMIT), m)
    coupling = np.linalg.solve(s_rr, np.eye(m) - unitary() @ np.diag(sv) @ unitary())
    kernel = 0.3 * (rng.standard_normal((m, grid.size, 2)) + 1j * rng.standard_normal((m, grid.size, 2)))
    structure = RadiatingStructure(
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
    return problem, builder, z_idx, coord, target


def _target_model(problem, builder, z_idx, coord, target):
    idx = list(z_idx)
    idx[coord] = target
    return builder([problem.z_set[i] for i in idx])


@pytest.mark.parametrize("factor", [1e-3, 5.0])
@settings(max_examples=15, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_rx=st.integers(0, 2), r=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_scoring_matches_reference_on_generated_models(caplog, factor, n_rx, r, seed):
    rng = np.random.default_rng(seed)
    problem, builder, z_idx, coord, target = _near_limit_case(rng, n_rx, r, factor)
    sigma = problem.sigma_schedule[-1]
    candidates = _coordinate_candidates(problem, z_idx, coord)
    reference = _reference_scores(problem, builder, candidates, sigma)

    # the target lands on the side of COND_LIMIT its interconnection loop I - S Theta puts it
    s = _target_model(problem, builder, z_idx, coord, target).tuning.s
    loop = np.eye(s.shape[0]) - s @ dense_theta(builder.frontend, builder.structure.coupling)
    hit = reference[target]
    assert (condition_number(loop) > COND_LIMIT) == (
        isinstance(hit, NumericsError) and "interconnection loop" in str(hit)
    )

    # a plain callable takes the per-candidate path; both take the same
    # steps and log the same skips, naming the same failing checks
    with caplog.at_level(logging.WARNING, logger="remskit.beamform"):
        caplog.clear()
        fast = coordinate_ascent(problem, builder)
        fast_skips = caplog.messages
        caplog.clear()
        slow = coordinate_ascent(problem, lambda z: builder(z))
    assert fast_skips == caplog.messages
    _assert_ascents_agree(fast, slow)


def test_gain_operators_serve_models_whose_sub_loop_is_singular():
    # I - s_rr C is beyond COND_LIMIT, and a resolution through that sub-loop refuses the model;
    # the one interconnection loop is regular, and its transmit operator is the direct solve's
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n_rx, r = int(rng.integers(0, 3)), int(rng.integers(1, 5))
        model = _target_model(*_near_limit_case(rng, n_rx, r, 5.0, frontend_closed=False))
        s_rr, c = model.tuning.s_rr, model.structure.coupling
        assert condition_number(np.eye(c.shape[0]) - s_rr @ c) > COND_LIMIT
        core_tx = gain_operators(model).core_tx
        direct = np.array([solve_direct(model, v_tx=e).a_r_tilde for e in np.eye(model.frontend.n_tx)]).T
        assert np.max(np.abs(core_tx - direct)) <= 1e-7 * np.max(np.abs(direct))


# ---------------------------------------------------------------------------
# rank-1 candidate scoring against the per-candidate rebuild


def _well_conditioned_case(rng, n_rx, r, n_tx=3):
    """A generated reconfigurable model with well-conditioned loops, and one coordinate pass.

    The fixed network and the coupling are random with largest singular value
    0.9, so S_BB != 0 and, with passive loads and frontend, every loop is
    I - X with ||X||_2 < 1. Three transmit chains for at most two streams keep
    the zero-forcing Gram matrix well conditioned too; two chains carry two
    streams, and their Gram matrix is sometimes ill conditioned.
    """
    m = r + 1
    n = n_tx + n_rx
    grid = make_latlon_grid(4, 6)

    def contraction(dim):
        s = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return s * (0.9 / max_singular_value(s))

    fixed = contraction(n + m + r)
    kernel = 0.3 * (rng.standard_normal((m, grid.size, 2)) + 1j * rng.standard_normal((m, grid.size, 2)))
    structure = RadiatingStructure(
        coupling=contraction(m),
        tx_kernel=kernel,
        rx_kernel=kernel,
        scatter_kernel=None,
        grid=grid,
        frequency=FREQ,
    )
    z_set = tuple(complex(rng.uniform(0.0, 100.0), rng.uniform(-150.0, 150.0)) for _ in range(5))
    z_idx = [int(i) for i in rng.integers(0, len(z_set), r)]
    streams = int(rng.integers(1, 3))
    problem = BeamformProblem(
        r=r,
        z_set=z_set,
        primary_dirs=(Direction(1.0, 0.5), Direction(2.0, 3.0))[: streams if n_tx > 2 else 2],
        secondary_dirs=(Direction(0.6, 4.0),),
        z_init=z_set[z_idx[0]],
        i_max=2,
        sigma_schedule=(1.0, 0.1),
        rng_seed=int(rng.integers(0, 1000)),
    )
    builder = ReconfigurableBuilder(structure, random_frontend(rng, n_tx, n_rx), fixed)
    return problem, builder, z_idx, int(rng.integers(0, r))


def _rel(x, y):
    """Largest entry difference over y's largest magnitude; 0 for two empty arrays of one shape."""
    assert x.shape == y.shape
    return float(np.max(np.abs(x - y)) / np.max(np.abs(y))) if y.size else 0.0


@settings(max_examples=40)
@given(
    n_tx=st.integers(0, 2),
    n_rx=st.integers(0, 2),
    m=st.integers(1, 4),
    r=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_load_port_algebra_matches_rebuilds_on_generated_models(n_tx, n_rx, m, r, seed):
    # P + Q G K R against a rebuild's core_tx, and the loop inverse and transmit operator carried
    # through a chain of accepted moves against fresh ones
    rng = np.random.default_rng(seed)
    dim = n_tx + n_rx + m + r
    fixed = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    fixed *= 0.9 / max_singular_value(fixed)
    assert np.all(fixed[-r:, -r:] != 0.0)  # S_cc != 0
    structure = random_passive_structure(make_latlon_grid(4, 6), m, rng, FREQ)
    builder = ReconfigurableBuilder(structure, random_frontend(rng, n_tx, n_rx), fixed)
    z_set = rng.uniform(0.0, 100.0, 5) + 1j * rng.uniform(-150.0, 150.0, 5)
    gamma_set = reflection_coefficient(z_set, builder.r0)
    ports = builder.load_ports(gamma_set)
    assert ports is not None
    for _ in range(3):
        idx = rng.integers(0, len(z_set), r)
        gammas = gamma_set[idx]
        k, t0 = ports.loop(gammas)
        assert _rel(t0, gain_operators(builder(z_set[idx])).core_tx) <= 1e-13
        for _ in range(int(rng.integers(1, 2 * r + 1))):
            coord, j = int(rng.integers(0, r)), int(rng.integers(0, len(z_set)))
            ks, u, v, w = ports.update(k, gammas, coord, gamma_set)
            t0 = t0 + w[j] * np.outer(u, v)
            k = k + w[j] * np.outer(ks, k[coord])
            gammas[coord], idx[coord] = gamma_set[j], j
        k_fresh, t0_fresh = ports.loop(gammas)
        assert _rel(k, k_fresh) <= 1e-13 and _rel(t0, t0_fresh) <= 1e-13
        assert _rel(t0, gain_operators(builder(z_set[idx])).core_tx) <= 1e-13



@settings(max_examples=40)
@given(
    n_tx=st.integers(1, 2),
    n_rx=st.integers(0, 2),
    m=st.integers(1, 4),
    r=st.integers(1, 4),
    n_dirs=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_load_ports_on_problem_rows_match_rebuilds_on_generated_models(n_tx, n_rx, m, r, n_dirs, seed):
    # T0 on the 2 n_dirs transmit rows and every candidate's rank-1 row, carried through a chain of
    # accepted moves, against tx_at(dirs) times a rebuild's core_tx
    rng = np.random.default_rng(seed)
    dim = n_tx + n_rx + m + r
    fixed = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    fixed *= 0.9 / max_singular_value(fixed)
    assert np.all(fixed[-r:, -r:] != 0.0)  # S_cc != 0
    structure = random_passive_structure(make_latlon_grid(4, 6), m, rng, FREQ)
    builder = ReconfigurableBuilder(structure, random_frontend(rng, n_tx, n_rx), fixed)
    z_set = rng.uniform(0.0, 100.0, 5) + 1j * rng.uniform(-150.0, 150.0, 5)
    gamma_set = reflection_coefficient(z_set, builder.r0)
    dirs = [Direction(rng.uniform(0.1, 3.0), rng.uniform(0.0, 6.2)) for _ in range(n_dirs)]
    rows = _problem_rows(builder, dirs)
    ports = builder.load_ports(gamma_set)
    assert ports is not None
    ports = replace(ports, p=rows @ ports.p, q=rows @ ports.q)

    def rebuild(idx):
        return rows @ gain_operators(builder(z_set[idx])).core_tx

    idx = rng.integers(0, len(z_set), r)
    gammas = gamma_set[idx]
    k, t0 = ports.loop(gammas)
    assert t0.shape == (2 * n_dirs, n_tx) and _rel(t0, rebuild(idx)) <= 1e-13
    for _ in range(int(rng.integers(1, 2 * r + 1))):
        coord, j = int(rng.integers(0, r)), int(rng.integers(0, len(z_set)))
        ks, u, v, w = ports.update(k, gammas, coord, gamma_set)
        assert u.shape == (2 * n_dirs,)
        for cand in range(len(z_set)):
            idx_c = idx.copy()
            idx_c[coord] = cand
            assert _rel(t0 + w[cand] * np.outer(u, v), rebuild(idx_c)) <= 1e-13
        t0 = t0 + w[j] * np.outer(u, v)
        k = k + w[j] * np.outer(ks, k[coord])
        gammas[coord], idx[coord] = gamma_set[j], j
    assert _rel(t0, rebuild(idx)) <= 1e-13

@settings(max_examples=25)
@given(n_rx=st.integers(0, 2), r=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_rank1_scoring_matches_rebuilds_on_generated_models(n_rx, r, seed):
    rng = np.random.default_rng(seed)
    problem, builder, z_idx, coord = _well_conditioned_case(rng, n_rx, r)
    assert np.any(builder.fixed_s[-r:, -r:] != 0.0)  # S_BB != 0
    sigma = problem.sigma_schedule[-1]
    candidates = _coordinate_candidates(problem, z_idx, coord)
    _assert_scores_agree(
        _rank1_scores(problem, builder, z_idx, coord, sigma),
        _reference_scores(problem, builder, candidates, sigma),
    )

    # whole ascents: the rank-1 pass takes the per-candidate path's steps
    fast = coordinate_ascent(problem, builder)
    _assert_ascents_agree(fast, coordinate_ascent(problem, lambda z: builder(z)))
    assert fast.evaluations == problem.i_max * r * len(problem.z_set)


def _recorded_rank1_rows(monkeypatch):
    """The list that every _rank1_rows result of the ascents that follow is appended to."""
    rank1_rows, rows = _rank1_rows, []

    def recorded(*args):
        rows.append(rank1_rows(*args))
        return rows[-1]

    monkeypatch.setattr("remskit.beamform._rank1_rows", recorded)
    return rows


@pytest.mark.parametrize("seed", [0, 1])
def test_rank1_ascent_matches_rebuilds_at_panel_size(monkeypatch, seed):
    # 64 loads and 65 radiating ports, one sweep: the per-candidate path rebuilds 320 models
    rng = np.random.default_rng(seed)
    problem, builder, _, _ = _well_conditioned_case(rng, int(rng.integers(0, 3)), 64)
    problem = replace(problem, i_max=1)
    rows = _recorded_rank1_rows(monkeypatch)
    fast = coordinate_ascent(problem, builder)
    assert len(rows) == problem.r and all(row is not None for row in rows)  # 0 fallbacks
    _assert_ascents_agree(fast, coordinate_ascent(problem, lambda z: builder(z)))
    assert fast.evaluations == problem.r * len(problem.z_set)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_case_study_rank1_ascent_matches_rebuilds(seed):
    # every case-study coordinate takes the rank-1 pass (test_case_study_ascent_builds_only_the_probe_model)
    problem, builder = Scene.load(CASE_STUDY).beamform_problem(seed_override=seed)
    _assert_ascents_agree(coordinate_ascent(problem, builder), coordinate_ascent(problem, lambda z: builder(z)))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 8), u=st.integers(1, 3), extra=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_rank1_certificate_bounds_the_zf_gram_condition(k, u, extra, seed):
    # ||h||_F^2 ||t||_F^2 >= ||G||_F ||G^-1||_F for t = zf_precoder(h) and G = h h^H, up to the
    # rounding of the inverse (relative eps cond(G)); one stream makes it 1 to rounding
    rng = np.random.default_rng(seed)
    n_tx = u + extra
    h = rng.standard_normal((k, u, n_tx)) + 1j * rng.standard_normal((k, u, n_tx))
    h *= 10.0 ** rng.uniform(-3.0, 3.0, (k, u, 1))  # rows of very different strengths
    try:
        t = zf_precoder(h)
    except NumericsError:  # a Gram beyond COND_LIMIT: no precoder to certify
        return
    gram = h @ h.mT.conj()
    exact = np.sqrt(_frobenius2(gram) * _frobenius2(np.linalg.inv(gram)))
    bound = _frobenius2(h) * _frobenius2(t)
    assert np.all(bound >= exact * (1.0 - 1e-13 * exact))
    if u == 1:
        assert np.max(np.abs(bound - 1.0)) <= 1e-14


def test_rank1_scoring_certifies_the_zf_gram_on_two_chain_models():
    # two streams on two chains: Gram conditions reach ~7e6, where an uncertified
    # rank-1 precoder lies up to 2e-10 from the rebuild's
    declined = 0
    for seed in range(400):
        rng = np.random.default_rng(seed)
        n_rx, r = int(rng.integers(0, 3)), int(rng.integers(1, 5))
        problem, builder, z_idx, coord = _well_conditioned_case(rng, n_rx, r, n_tx=2)
        sigma = problem.sigma_schedule[-1]
        rows = _rank1_rows_at(problem, builder, z_idx, coord, sigma)
        if rows is None:  # the ascent scores this coordinate candidate by candidate
            declined += 1
            continue
        _assert_scores_agree(
            [evaluate_candidate(problem, builder, None, sigma, row) for row in rows],
            _reference_scores(problem, builder, _coordinate_candidates(problem, z_idx, coord), sigma),
        )
    assert declined <= 40  # the rank-1 pass still scores most coordinates


def test_case_study_ascent_builds_only_the_probe_model(monkeypatch, caplog):
    problem, builder = Scene.load(CASE_STUDY).beamform_problem()
    build, builds = ReconfigurableBuilder.__call__, []

    def counted_build(self, z_values):  # every model build
        builds.append(tuple(z_values))
        return build(self, z_values)

    monkeypatch.setattr(ReconfigurableBuilder, "__call__", counted_build)
    rows = _recorded_rank1_rows(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="remskit.beamform"):
        result = coordinate_ascent(problem, builder)
    coords = problem.i_max * problem.r
    assert len(rows) == coords and all(row is not None for row in rows)  # 0 declined coordinates
    # the probe is the only model: no per-candidate rebuild and no per-incumbent one
    assert builds == [(problem.z_init,) * problem.r]
    assert caplog.messages == []
    assert result.evaluations == coords * len(problem.z_set)


def test_singular_gram_declines_the_rank1_pass_and_logs_the_rebuild_skips(caplog):
    # two identical streams: every candidate's Gram matrix is singular
    problem, builder, z_idx, coord = _well_conditioned_case(np.random.default_rng(5), 1, 2, n_tx=2)
    problem = replace(problem, primary_dirs=(Direction(1.0, 0.5),) * 2)
    assert _rank1_rows_at(problem, builder, z_idx, coord, 1.0) is None  # certified loops, singular Grams

    with caplog.at_level(logging.WARNING, logger="remskit.beamform"):
        caplog.clear()
        fast = coordinate_ascent(problem, builder)
        fast_skips = caplog.messages
        caplog.clear()
        slow = coordinate_ascent(problem, lambda z: builder(z))
    assert fast_skips == caplog.messages
    assert len(fast_skips) == problem.i_max * problem.r * len(problem.z_set)
    assert fast.evaluations == slow.evaluations == 0


def test_uncertified_load_ports_decline_the_rank1_pass(monkeypatch, caplog):
    # a rescaled fixed network whose loads see ||S_LL||_2 max|gamma| >= 1: every coordinate is rebuilt
    problem, builder, _, _ = _well_conditioned_case(np.random.default_rng(7), 1, 3)
    builder = replace(builder, fixed_s=3.0 * builder.fixed_s)
    fe, s, nm = builder.frontend, builder.fixed_s, builder.fixed_s.shape[0] - problem.r
    theta = dense_theta(fe, builder.structure.coupling)
    s_ll = s[nm:, :nm] @ theta @ np.linalg.solve(np.eye(nm) - s[:nm, :nm] @ theta, s[:nm, nm:]) + s[nm:, nm:]
    gamma_set = reflection_coefficient(problem.z_set, builder.r0)
    assert max_singular_value(s_ll) * np.max(np.abs(gamma_set)) >= 1.0
    assert builder.load_ports(gamma_set) is None
    rows = _recorded_rank1_rows(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="remskit.beamform"):
        caplog.clear()
        fast = coordinate_ascent(problem, builder)
        fast_skips = caplog.messages
        caplog.clear()
        slow = coordinate_ascent(problem, lambda z: builder(z))
    assert rows == []  # no rank-1 row
    assert fast_skips == caplog.messages
    assert fast.z_indices == slow.z_indices
    assert fast.evaluations == slow.evaluations == problem.i_max * problem.r * len(problem.z_set)
    assert fast.f_trace == slow.f_trace
    assert np.array_equal(fast.t, slow.t)
