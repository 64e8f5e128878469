"""Direct interconnection solve vs the closed-form gain operators."""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import remskit
from remskit import (
    Direction,
    ModelError,
    NumericsError,
    ReMSModel,
    RFFrontend,
    TuningNetwork,
    directivity,
    gain_operators,
    hertzian_dipole,
    inline_tuning,
    isotropic_radiator,
    make_latlon_grid,
    matching_efficiency,
    radiation_efficiency,
    rems_gain,
    solve_direct,
    through_tuning,
    tuning_efficiency,
)
from remskit.farfield import intensity
from remskit.radiating import RadiatingStructure

from conftest import (
    FREQ,
    dense_frontend,
    dense_gain_operators,
    random_frontend,
    random_model,
    random_passive_structure,
    random_pattern,
    random_tuning,
)


def _zero_kernel_structure(grid, m, coupling=None):
    if coupling is None:
        coupling = np.zeros((m, m), dtype=complex)
    return RadiatingStructure(
        coupling=np.asarray(coupling, dtype=complex),
        tx_kernel=np.zeros((m, grid.size, 2), dtype=complex),
        rx_kernel=np.zeros((m, grid.size, 2), dtype=complex),
        scatter_kernel=None,
        grid=grid,
        frequency=FREQ,
    )


def _rel(x, y):
    """Largest entry difference over y's largest magnitude; 0 for two empty arrays of one shape."""
    x, y = np.asarray(x), np.asarray(y)
    assert x.shape == y.shape
    if y.size == 0:
        return 0.0
    scale = max(float(np.max(np.abs(y))), 1e-300)
    return float(np.max(np.abs(x - y))) / scale


@settings(max_examples=40)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_operators_match_direct_solve(n_tx, n_rx, m, seed):
    # the vector frontend against the stacked system, and against the dense frontend's formulas
    grid = make_latlon_grid(6, 8)
    rng = np.random.default_rng(seed)
    model = random_model(rng, grid, n_tx=n_tx, n_rx=n_rx, m=m)
    fe = model.frontend
    ops = gain_operators(model)
    for name, ref in dense_gain_operators(model).items():
        assert _rel(getattr(ops, name), ref) < 1e-12, name

    v_tx = rng.standard_normal(fe.n_tx) + 1j * rng.standard_normal(fe.n_tx)
    res = solve_direct(model, v_tx=v_tx)
    assert _rel(ops.vtx_to_vrx(v_tx), res.v_rx) < 1e-11
    assert _rel(ops.vtx_to_farfield(v_tx).values, res.a_f.values) < 1e-11

    v_g = rng.standard_normal(fe.n_rx) + 1j * rng.standard_normal(fe.n_rx)
    assert _rel(ops.vgamma_to_vrx(v_g), solve_direct(model, v_gamma=v_g).v_rx) < 1e-11

    i_g = rng.standard_normal(fe.n_rx) + 1j * rng.standard_normal(fe.n_rx)
    assert _rel(ops.igamma_to_vrx(i_g), solve_direct(model, i_gamma=i_g).v_rx) < 1e-11

    v_u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    assert _rel(ops.upsilon_to_vrx(v_u), solve_direct(model, v_upsilon=v_u).v_rx) < 1e-11

    b_in = random_pattern(rng, grid)
    res_b = solve_direct(model, b_in=b_in)
    assert _rel(ops.farfield_to_vrx(b_in), res_b.v_rx) < 1e-11
    assert _rel(ops.farfield_to_farfield(b_in).values, res_b.a_f.values) < 1e-11

    # superposition of all drives at once
    res_all = solve_direct(
        model, v_tx=v_tx, v_gamma=v_g, i_gamma=i_g, v_upsilon=v_u, b_in=b_in
    )
    v_rx_sum = (
        ops.vtx_to_vrx(v_tx)
        + ops.vgamma_to_vrx(v_g)
        + ops.igamma_to_vrx(i_g)
        + ops.upsilon_to_vrx(v_u)
        + ops.farfield_to_vrx(b_in)
    )
    assert _rel(v_rx_sum, res_all.v_rx) < 1e-11


def test_gain_matrix_consistent_with_pattern():
    grid = make_latlon_grid(6, 8)
    rng = np.random.default_rng(32)
    model = random_model(rng, grid)
    ops = gain_operators(model)
    v = rng.standard_normal(model.frontend.n_tx) + 1j * rng.standard_normal(model.frontend.n_tx)
    p = ops.vtx_to_farfield(v)
    for idx in [0, 11, 29, 47]:
        d = grid.direction(idx)
        np.testing.assert_allclose(ops.vtx_gain_matrix(d) @ v, p.at(d), rtol=1e-12)
    dense = np.einsum("mic,mt->ict", model.structure.tx_kernel, ops.core_tx)
    np.testing.assert_allclose(
        np.einsum("ict,t->ic", dense, v), p.values, rtol=1e-12
    )


def test_batched_gain_matrix_matches_single_lookups():
    grid = make_latlon_grid(6, 8)
    rng = np.random.default_rng(33)
    ops = gain_operators(random_model(rng, grid))
    dirs = [grid.direction(3), Direction(0.0, 1.0), Direction(2.9, 6.2), Direction(1.1, 0.4)]
    np.testing.assert_allclose(
        ops.vtx_gain_matrix(dirs), [ops.vtx_gain_matrix(d) for d in dirs], rtol=1e-15, atol=0
    )


def test_operators_of_a_model_without_frontend_chains():
    # a loaded passive scatterer: no transmit or receive chain behind the network
    grid = make_latlon_grid(6, 8)
    rng = np.random.default_rng(34)
    for m in (1, 3):
        model = ReMSModel(
            structure=random_passive_structure(grid, m, rng, FREQ),
            tuning=random_tuning(rng, 0, m),
            frontend=RFFrontend(z_tx=[], z_rx=[]),
        )
        b = random_pattern(rng, grid)
        direct = solve_direct(model, b_in=b).a_f.values
        assert _rel(gain_operators(model).farfield_to_farfield(b).values, direct) <= 1e-10


def test_igamma_operator_matches_direct_solve_not_product_form():
    # the nested-loop form that conftest.dense_gain_operators keeps as an
    # oracle for gain_operators' one loop I - S Theta: eliminating the
    # radiating ports first (L2) leaves the frontend loop I - L1 - L3, a sum;
    # substituting the superficially similar I - L1 @ L3 breaks against the
    # direct solve
    grid = make_latlon_grid(6, 8)
    rng = np.random.default_rng(33)
    model = random_model(rng, grid, n_tx=2, n_rx=2, m=4)
    fe, tn, st = model.frontend, model.tuning, model.structure
    n, m = fe.n, st.m_ports
    dense = dense_frontend(fe)
    s_rf, c = dense.s_rf, st.coupling
    l1 = s_rf @ tn.s_tt
    l2 = tn.s_rr @ c
    a_r = np.linalg.inv(np.eye(m) - l2)
    l3 = s_rf @ tn.s_tr @ c @ a_r @ tn.s_rt
    f_mid = tn.s_tr @ c @ a_r @ tn.s_rt + tn.s_tt - np.eye(n)

    i_g = rng.standard_normal(fe.n_rx) + 1j * rng.standard_normal(fe.n_rx)
    direct = solve_direct(model, i_gamma=i_g).v_rx

    a_t_good = np.linalg.inv(np.eye(n) - l1 - l3)
    g_good = dense.k_vrx @ f_mid @ a_t_good @ dense.k_igamma + dense.z_rx
    assert _rel(g_good @ i_g, direct) < 1e-11

    a_t_bad = np.linalg.inv(np.eye(n) - l1 @ l3)
    g_bad = dense.k_vrx @ f_mid @ a_t_bad @ dense.k_igamma + dense.z_rx
    assert _rel(g_bad @ i_g, direct) > 1e-3


def test_matched_lna_reads_half_noise_voltage():
    # matched receive chain, zero-coupling structure: v_rx = -v_gamma / 2
    grid = make_latlon_grid(4, 4)
    model = ReMSModel(
        structure=_zero_kernel_structure(grid, 1),
        tuning=through_tuning(1),
        frontend=RFFrontend(z_tx=np.zeros(0), z_rx=[50.0], r0=50.0),
    )
    res = solve_direct(model, v_gamma=[1.0])
    np.testing.assert_allclose(res.v_rx, [-0.5], rtol=1e-14)
    ops = gain_operators(model)
    np.testing.assert_allclose(ops.vgamma_to_vrx([1.0]), [-0.5], rtol=1e-14)


def test_conjugate_match_extracts_available_power():
    grid = make_latlon_grid(4, 4)
    z = 30.0 + 40.0j
    fe = RFFrontend(z_tx=[z], z_rx=np.zeros(0), r0=50.0)
    s = np.zeros((2, 2), dtype=complex)
    s[0, 0] = fe.conjugate_match_tuning()[0, 0]
    model = ReMSModel(
        structure=_zero_kernel_structure(grid, 1),
        tuning=TuningNetwork(1, s),
        frontend=fe,
    )
    v_tx = [1.5 - 0.25j]
    res = solve_direct(model, v_tx=v_tx)
    p_a = fe.available_power(v_tx)
    assert res.p_transmit == pytest.approx(p_a, rel=1e-12)
    assert matching_efficiency(model, res, v_tx) == pytest.approx(1.0, rel=1e-12)


def test_reflective_tuning_transmits_nothing():
    grid = make_latlon_grid(4, 4)
    s = np.eye(2, dtype=complex)  # S_TT = 1: total reflection back at the frontend
    model = ReMSModel(
        structure=_zero_kernel_structure(grid, 1),
        tuning=TuningNetwork(1, s),
        frontend=RFFrontend(z_tx=[50.0], z_rx=np.zeros(0), r0=50.0),
    )
    res = solve_direct(model, v_tx=[1.0])
    assert res.p_transmit == pytest.approx(0.0, abs=1e-15)
    assert res.p_farfield == pytest.approx(0.0, abs=1e-18)


def test_attenuator_halves_radiating_power():
    grid = make_latlon_grid(19, 8)
    model = ReMSModel(
        structure=hertzian_dipole([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], grid, FREQ),
        tuning=inline_tuning([1.0 / math.sqrt(2.0)]),
        frontend=RFFrontend(z_tx=[50.0], z_rx=np.zeros(0), r0=50.0),
    )
    res = solve_direct(model, v_tx=[1.0])
    assert tuning_efficiency(res) == pytest.approx(0.5, rel=1e-12)
    # matched source: everything available enters the tuning network
    assert res.p_transmit == pytest.approx(model.frontend.available_power([1.0]), rel=1e-12)


def test_ill_conditioned_loop_raises():
    # chain 0 closes a near-unity feedback loop: s_rf ~ 1 - 1e-13 against a
    # unit self-coupling, while chain 1 stays healthy, so the interconnection
    # loop I - S Theta has condition ~1e13 and must be refused, not inverted
    grid = make_latlon_grid(4, 4)
    st = _zero_kernel_structure(grid, 2, coupling=[[1.0, 0.0], [0.0, 0.0]])
    model = ReMSModel(
        structure=st,
        tuning=through_tuning(2),
        frontend=RFFrontend(z_tx=[1e15, 50.0], z_rx=np.zeros(0), r0=50.0),
    )
    with pytest.raises(NumericsError, match="interconnection loop"):
        gain_operators(model)
    with pytest.raises(NumericsError):
        solve_direct(model, v_tx=[1.0, 0.0])


def test_rems_gain_isotropic_is_unity():
    grid = make_latlon_grid(9, 12)
    model = ReMSModel(
        structure=isotropic_radiator(grid, FREQ),
        tuning=through_tuning(1),
        frontend=RFFrontend(z_tx=[50.0], z_rx=np.zeros(0), r0=50.0),
    )
    g = rems_gain(model, [1.0], grid.direction(17))
    assert abs(g - 1.0) < 1e-14
    with pytest.raises(ModelError):
        rems_gain(model, [0.0], grid.direction(0))


def test_rems_gain_rejects_bad_drives():
    scene = remskit.Scene.load(os.path.join(os.path.dirname(__file__), os.pardir, "scenes", "friis.yaml"))
    model = scene.model("tx_model")
    d = Direction.from_degrees(90.0, 90.0)
    gain = rems_gain(model, [1.0], d)
    assert rems_gain(model, np.array([1.0 + 0j]), d) == gain and 0.0 < gain < math.inf
    for v_tx, match in (([math.nan], "must be finite"), ([math.inf], "must be finite"), ([1.0, 1.0], "shape")):
        with pytest.raises(ModelError, match=match):
            rems_gain(model, v_tx, d)
    # a finite drive whose power overflows
    with pytest.raises(NumericsError, match="gain of drive v_tx"):
        rems_gain(model, [1e200], d)


def test_rems_gain_dipole_null_on_axis():
    grid = make_latlon_grid(18, 36)
    model = ReMSModel(
        structure=hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], grid, FREQ),
        tuning=through_tuning(1),
        frontend=RFFrontend(z_tx=[50.0], z_rx=np.zeros(0), r0=50.0),
    )
    # along the dipole axis the pattern vanishes
    on_axis = Direction.from_degrees(90.0, 0.0)
    broadside = Direction.from_degrees(90.0, 90.0)
    assert rems_gain(model, [1.0], on_axis) < 1e-6
    assert rems_gain(model, [1.0], broadside) > 1.0


@settings(max_examples=30, deadline=None)
@given(
    n_tx=st.integers(1, 3),
    n_rx=st.integers(0, 2),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_rems_gain_lookup_matches_the_whole_grid_pattern(n_tx, n_rx, m, seed):
    # the old route: the whole-grid transmit pattern, then its intensity at d
    rng = np.random.default_rng(seed)
    grid = make_latlon_grid(int(rng.integers(3, 9)), 2 * int(rng.integers(2, 6)))
    model = random_model(rng, grid, n_tx=n_tx, n_rx=n_rx, m=m)
    ops = gain_operators(model)
    v = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
    p_a = model.frontend.available_power(v)
    on_grid = [grid.direction(int(i)) for i in rng.integers(0, grid.size, 3)]
    off_grid = [Direction(t, p) for t, p in zip(rng.uniform(0.0, math.pi, 3), rng.uniform(0.0, 2 * math.pi, 3))]
    for d in on_grid + off_grid:
        want = 4.0 * math.pi * intensity(ops.vtx_to_farfield(v), d) / p_a
        assert rems_gain(model, v, d) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_one_transmit_operator():
    assert not hasattr(remskit, "transmit_operator")
    assert not hasattr(remskit.solver, "transmit_operator")


def test_efficiency_chain_recomposes_gain():
    grid = make_latlon_grid(19, 36)
    model = ReMSModel(
        structure=hertzian_dipole([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], grid, FREQ),
        tuning=inline_tuning([0.8]),
        frontend=RFFrontend(z_tx=[30.0 + 10.0j], z_rx=np.zeros(0), r0=50.0),
    )
    v_tx = [1.0 + 0.5j]
    res = solve_direct(model, v_tx=v_tx)
    d = grid.direction(grid.index_of(9, 3))
    chain = (
        matching_efficiency(model, res, v_tx)
        * tuning_efficiency(res)
        * radiation_efficiency(res)
        * directivity(res.a_f, d)
    )
    assert chain == pytest.approx(rems_gain(model, v_tx, d), rel=1e-10)


def test_efficiencies_of_an_undriven_model_raise_model_error():
    grid = make_latlon_grid(7, 12)
    model = ReMSModel(
        structure=hertzian_dipole([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], grid, FREQ),
        tuning=inline_tuning([0.8]),
        frontend=RFFrontend(z_tx=[30.0 + 10.0j], z_rx=np.zeros(0), r0=50.0),
    )
    res = solve_direct(model, v_tx=[0.0])
    with pytest.raises(ModelError, match="available power is zero"):
        matching_efficiency(model, res, [0.0])
    with pytest.raises(ModelError, match="transmit power is zero"):
        tuning_efficiency(res)
    with pytest.raises(ModelError, match="radiating-port power is zero"):
        radiation_efficiency(res)


def test_directivity_of_dipole():
    grid = make_latlon_grid(37, 72)
    s = hertzian_dipole([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], grid, FREQ)
    from remskit import apply_transmit

    p = apply_transmit(s, [1.0])
    equator = Direction.from_degrees(90.0, 0.0)
    assert directivity(p, equator) == pytest.approx(1.5, abs=2e-3)


def test_solve_input_validation():
    grid = make_latlon_grid(4, 4)
    rng = np.random.default_rng(35)
    model = random_model(rng, grid, n_tx=2, n_rx=1, m=2)
    with pytest.raises(ModelError):
        solve_direct(model, v_tx=[1.0])  # needs 2 entries
    with pytest.raises(ModelError):
        solve_direct(model, b_in=random_pattern(rng, make_latlon_grid(4, 6)))
    with pytest.raises(ModelError, match="v_tx must be finite"):
        solve_direct(model, v_tx=[1.0, math.inf])
    with pytest.raises(ModelError, match="v_gamma must be finite"):
        solve_direct(model, v_gamma=[complex(0.0, math.nan)])
    with pytest.raises(ModelError, match="v_upsilon must be finite"):
        solve_direct(model, v_upsilon=[0.0, -math.inf])


def test_operator_input_maps_validate_like_solve_direct():
    # a wrong shape or a non-finite entry ends as ModelError, not a NumPy error or a NaN output
    model = random_model(np.random.default_rng(35), make_latlon_grid(4, 4), n_tx=2, n_rx=1, m=2)
    ops = gain_operators(model)
    maps = (
        (ops.vtx_to_farfield, "v_tx", 2),
        (ops.vtx_to_vrx, "v_tx", 2),
        (ops.vgamma_to_vrx, "v_gamma", 1),
        (ops.igamma_to_vrx, "i_gamma", 1),
        (ops.upsilon_to_vrx, "v_upsilon", 2),
    )
    for apply, name, size in maps:
        with pytest.raises(ModelError, match=rf"{name} shape \({size + 1},\) != \({size},\)"):
            apply(np.ones(size + 1))
        with pytest.raises(ModelError, match=f"{name} must be finite"):
            apply(np.full(size, math.nan))


def test_nan_residual_fails_the_residual_gate():
    # a received wave that overflows puts inf on the right-hand side; the NaN
    # residual must fail the gate, not slip past a `resid > tol` test
    grid = make_latlon_grid(4, 4)
    rng = np.random.default_rng(38)
    model = random_model(rng, grid, n_tx=1, n_rx=1, m=2)
    loud = dataclasses.replace(model.structure, rx_kernel=1e300 * model.structure.rx_kernel)
    b_in = random_pattern(rng, grid)
    b_in.values *= 1e10
    with pytest.raises(NumericsError, match="residual nan"):
        solve_direct(dataclasses.replace(model, structure=loud), v_tx=[1.0], b_in=b_in)


def test_non_finite_incident_patterns_raise_model_error():
    # a NaN or inf sample ends as ModelError at every map that takes an incident pattern,
    # not as a NaN output or a failed residual gate
    grid = make_latlon_grid(8, 16)
    rng = np.random.default_rng(1)
    model = random_model(rng, grid)
    ops = gain_operators(model)
    maps = (ops.farfield_to_vrx, ops.farfield_to_farfield, lambda b: solve_direct(model, b_in=b))
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        b_in = random_pattern(rng, grid)
        b_in.values[5, 1] = bad
        for apply in maps:
            with pytest.raises(ModelError, match="incident pattern must be finite"):
                apply(b_in)


def _float_limit_model():
    return random_model(np.random.default_rng(38), make_latlon_grid(4, 4), n_tx=1, n_rx=1, m=2)


def test_overflowing_receive_outputs_raise_numerics_error():
    # a finite incident pattern phased against the first receive kernel at the float limit
    # passes the input checks and the residual gate; its v_rx overflows to -inf + 1.25e307j
    model = _float_limit_model()
    k = model.structure.rx_kernel[0]
    b_in = remskit.FarFieldPattern(model.structure.grid, np.conj(k) / np.max(np.abs(k)) * 1.7e308)
    with pytest.raises(NumericsError, match="v_rx is not finite"):
        solve_direct(model, b_in=b_in)
    with pytest.raises(NumericsError, match="v_rx is not finite"):
        gain_operators(model).farfield_to_vrx(b_in)


def test_overflowing_power_ledger_raises_numerics_error():
    # finite waves whose squares overflow: the ledger would read nan (inf - inf), so the solve refuses it
    rng = np.random.default_rng(38)
    model = random_model(rng, make_latlon_grid(4, 4), n_tx=1, n_rx=1, m=2)
    b_in = random_pattern(rng, model.structure.grid)
    b_in.values *= 1e200
    for drive in (dict(b_in=b_in), dict(v_gamma=[1e200])):
        with pytest.raises(NumericsError, match="p_transmit is not finite"):
            solve_direct(model, **drive)


def test_overflowing_scattered_pattern_raises_numerics_error():
    # the pattern phased against the output sample with the largest row 1-norm (1.17 > 1)
    # of the far-field-to-far-field operator overflows that sample
    model = _float_limit_model()
    ops, grid = gain_operators(model), model.structure.grid
    unit = np.eye(2 * grid.size, dtype=complex).reshape(-1, grid.size, 2)
    op = np.array([ops.farfield_to_farfield(remskit.FarFieldPattern(grid, e)).values.ravel() for e in unit]).T
    row = op[np.argmax(np.abs(op).sum(axis=1))]
    assert np.abs(row).sum() > 1.0
    b_in = remskit.FarFieldPattern(grid, (np.conj(row) / np.abs(row) * 1.7e308).reshape(-1, 2))
    with pytest.raises(NumericsError, match="scattered pattern is not finite"):
        ops.farfield_to_farfield(b_in)


def test_model_shape_validation():
    grid = make_latlon_grid(4, 4)
    rng = np.random.default_rng(36)
    st = _zero_kernel_structure(grid, 2)
    with pytest.raises(ModelError):
        ReMSModel(structure=st, tuning=through_tuning(3), frontend=random_frontend(rng, 2, 1))
    with pytest.raises(ModelError):
        ReMSModel(
            structure=st,
            tuning=random_tuning(rng, 4, 2),
            frontend=random_frontend(rng, 2, 1),
        )


def test_malformed_tuning_matrix_raises_model_error():
    grid = make_latlon_grid(4, 4)
    rng = np.random.default_rng(37)
    st = _zero_kernel_structure(grid, 2)
    fe = random_frontend(rng, 1, 1)
    s = random_tuning(rng, 2, 2).s
    bad_nan = s.copy()
    bad_nan[1, 3] = complex(math.nan, 0.0)
    for bad, what in ((np.stack([s, s]), "shape"), (bad_nan, "finite")):
        with pytest.raises(ModelError, match=what):
            solve_direct(ReMSModel(structure=st, tuning=TuningNetwork(2, bad), frontend=fe))
