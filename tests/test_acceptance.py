"""End-to-end acceptance suite.

One test per shipped acceptance criterion; each records a PASS/FAIL line
with measured numbers for the terminal summary, then asserts the stated
tolerances.
"""

import math
import os
from time import perf_counter

import numpy as np
import pytest

from conftest import FREQ, mirror_matrix, port_wave_responses, random_model, random_pattern
from remskit import (
    Direction,
    RFFrontend,
    ReMSModel,
    RadiatingStructure,
    TouchstoneData,
    TuningNetwork,
    check_reciprocity,
    dipole_array,
    directivity,
    extract_rx_kernel,
    extract_scatter_kernel,
    far_channel,
    gain_operators,
    hertzian_dipole,
    isotropic_radiator,
    make_latlon_grid,
    matching_efficiency,
    parse_touchstone,
    radiation_efficiency,
    random_reciprocal_structure,
    read_response_file,
    rems_gain,
    solve_direct,
    structure_from_responses,
    synthesize_plane_wave_responses,
    synthetic_coupling,
    through_tuning,
    touchstone_to_text,
    tuning_efficiency,
    wavenumber,
    write_response_file,
)
from remskit.beamform import evaluate_candidate, coordinate_ascent, h_co
from remskit.scene import Scene

SCENES = os.path.join(os.path.dirname(__file__), os.pardir, "scenes")
LAM = 2.0 * math.pi / wavenumber(FREQ)


def _rel(x, y):
    scale = max(float(np.max(np.abs(y))), 1e-300)
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y)))) / scale


def test_criterion_1_free_space_link_oracle(criterion_report):
    t0 = perf_counter()
    grid = make_latlon_grid(19, 36)
    tx = hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], grid, FREQ)
    rx = hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], grid, FREQ)

    d0 = 5.0
    s = far_channel(tx, rx, [0.0, d0, 0.0])[0, 0]
    oracle = 3.0 * LAM / (8.0 * math.pi * d0)
    rel = abs(abs(s) - oracle) / oracle

    dists = np.geomspace(1.0, 100.0, 25)
    mags = [abs(far_channel(tx, rx, [0.0, d, 0.0])[0, 0]) for d in dists]
    slope = float(np.polyfit(np.log(dists), np.log(mags), 1)[0])
    elapsed = perf_counter() - t0

    ok = rel <= 1e-6 and abs(slope + 1.0) <= 1e-6 and elapsed < 1.0
    criterion_report(
        1,
        ok,
        f"|S(5 m)| = {abs(s):.10e} vs 3*lambda/(8*pi*d) rel dev {rel:.2e}; "
        f"log-log slope {slope:+.9f}; {elapsed:.2f} s",
    )
    assert rel <= 1e-6
    assert abs(slope + 1.0) <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_operators_match_direct_solve(criterion_report):
    t0 = perf_counter()
    grid = make_latlon_grid(18, 36)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n_tx = int(rng.integers(1, 3))
        n_rx = int(rng.integers(1, 3))
        m = int(rng.integers(1, 7))
        model = random_model(rng, grid, n_tx=n_tx, n_rx=n_rx, m=m)
        ops = gain_operators(model)

        v_tx = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
        v_g = rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)
        i_g = rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)
        b_in = random_pattern(rng, grid)

        res_t = solve_direct(model, v_tx=v_tx)
        worst = max(worst, _rel(ops.vtx_to_vrx(v_tx), res_t.v_rx))
        worst = max(worst, _rel(ops.vtx_to_farfield(v_tx).values, res_t.a_f.values))
        worst = max(worst, _rel(ops.vgamma_to_vrx(v_g), solve_direct(model, v_gamma=v_g).v_rx))
        worst = max(worst, _rel(ops.igamma_to_vrx(i_g), solve_direct(model, i_gamma=i_g).v_rx))
        res_b = solve_direct(model, b_in=b_in)
        worst = max(worst, _rel(ops.farfield_to_vrx(b_in), res_b.v_rx))
        worst = max(worst, _rel(ops.farfield_to_farfield(b_in).values, res_b.a_f.values))
        res_all = solve_direct(model, v_tx=v_tx, v_gamma=v_g, i_gamma=i_g, b_in=b_in)
        v_sum = (
            ops.vtx_to_vrx(v_tx)
            + ops.vgamma_to_vrx(v_g)
            + ops.igamma_to_vrx(i_g)
            + ops.farfield_to_vrx(b_in)
        )
        worst = max(worst, _rel(v_sum, res_all.v_rx))
    elapsed = perf_counter() - t0

    ok = worst <= 1e-10 and elapsed < 30.0
    criterion_report(
        2, ok, f"100 random passive models at 18x36: worst operator-vs-direct "
        f"rel dev {worst:.2e}; {elapsed:.1f} s"
    )
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_3_reciprocity(criterion_report):
    grid = make_latlon_grid(18, 36)
    k = wavenumber(FREQ)
    positions = [[0.0, 0.0, 0.0], [0.025, 0.0, 0.0], [0.0, 0.03, 0.0]]
    elements = [([1.0, 0.0, 0.0], p) for p in positions]
    analytic = [
        dipole_array(
            elements,
            grid,
            FREQ,
            coupling=synthetic_coupling(positions, k, 1.2),
            enforce_passivity=True,
        ),
        hertzian_dipole([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], grid, FREQ),
        isotropic_radiator(grid, FREQ),
    ]
    sym_dev = 0.0
    sym_ok = True
    for s in analytic:
        rep = check_reciprocity(s, tol=1e-12)
        sym_ok = sym_ok and rep.coupling_ok and rep.kernel_ok and rep.scatter_ok
        sym_dev = max(sym_dev, rep.max_coupling_dev, rep.max_kernel_dev, rep.max_scatter_dev)

    rng = np.random.default_rng(77)
    pair_grid = make_latlon_grid(9, 12)
    swap_dev = 0.0
    for _ in range(20):
        s1 = random_reciprocal_structure(pair_grid, int(rng.integers(1, 4)), rng, FREQ)
        s2 = random_reciprocal_structure(pair_grid, int(rng.integers(1, 4)), rng, FREQ)
        disp = rng.uniform(-2.0, 2.0, size=3) + np.array([0.0, 5.0, 0.0])
        fwd = far_channel(s1, s2, disp)
        bwd = far_channel(s2, s1, -disp)
        swap_dev = max(swap_dev, _rel(fwd, bwd.T))

    ok = sym_ok and sym_dev <= 1e-12 and swap_dev <= 1e-10
    criterion_report(
        3, ok, f"analytic symmetry dev {sym_dev:.2e}; far-channel swap dev "
        f"{swap_dev:.2e} over 20 random reciprocal pairs"
    )
    assert sym_ok and sym_dev <= 1e-12
    assert swap_dev <= 1e-10


def _zero_kernel_structure(grid, m):
    return RadiatingStructure(
        coupling=np.zeros((m, m), dtype=complex),
        tx_kernel=np.zeros((m, grid.size, 2), dtype=complex),
        rx_kernel=np.zeros((m, grid.size, 2), dtype=complex),
        scatter_kernel=None,
        grid=grid,
        frequency=FREQ,
    )


def _matched_dipole_chain(grid):
    return ReMSModel(
        structure=hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], grid, FREQ),
        tuning=through_tuning(1),
        frontend=RFFrontend(z_tx=[50.0], z_rx=np.zeros(0)),
    )


def test_criterion_4_power_accounting(criterion_report):
    grid = make_latlon_grid(6, 8)
    rng = np.random.default_rng(404)
    worst_margin = -math.inf
    violations = 0
    for _ in range(1000):
        n_tx = int(rng.integers(1, 3))
        n_rx = int(rng.integers(0, 2))
        m = int(rng.integers(1, 5))
        model = random_model(rng, grid, n_tx=n_tx, n_rx=n_rx, m=m)
        v_tx = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
        res = solve_direct(model, v_tx=v_tx)
        p_a = model.frontend.available_power(v_tx)
        margin = (res.p_transmit - p_a) / max(1.0, p_a)
        worst_margin = max(worst_margin, margin)
        if margin > 1e-12:
            violations += 1

    # conjugate-matched single chain pulls exactly the available power
    z = 30.0 + 40.0j
    fe = RFFrontend(z_tx=[z], z_rx=np.zeros(0))
    s = np.zeros((2, 2), dtype=complex)
    s[0, 0] = fe.conjugate_match_tuning()[0, 0]
    match_model = ReMSModel(
        structure=_zero_kernel_structure(make_latlon_grid(4, 6), 1),
        tuning=TuningNetwork(1, s),
        frontend=fe,
    )
    res = solve_direct(match_model, v_tx=[1.0])
    p_a = fe.available_power([1.0])
    match_dev = abs(res.p_transmit - p_a) / p_a

    # matched lossless chain: quadrature error collapses as the grid doubles
    errs = []
    chain_dev = 0.0
    for shape in ((9, 8), (18, 16)):
        model = _matched_dipole_chain(make_latlon_grid(*shape))
        res = solve_direct(model, v_tx=[1.0])
        p_a = model.frontend.available_power([1.0])
        chain_dev = max(
            chain_dev,
            abs(res.p_transmit - p_a) / p_a,
            abs(res.p_radiating - p_a) / p_a,
        )
        errs.append(abs(res.p_farfield - p_a) / p_a)
    shrink = errs[0] / errs[1]

    ok = (
        violations == 0
        and match_dev <= 1e-12
        and chain_dev <= 1e-12
        and shrink >= 4.0
    )
    criterion_report(
        4, ok, f"transmit/available margin max {worst_margin:.2e} over 1000 models "
        f"({violations} violations); conjugate-match dev {match_dev:.2e}; "
        f"quadrature error {errs[0]:.2e} -> {errs[1]:.2e} (shrink {shrink:.2f}x)"
    )
    assert violations == 0
    assert match_dev <= 1e-12
    assert chain_dev <= 1e-12
    assert shrink >= 4.0


def test_criterion_5_gain_reference_points(criterion_report):
    # matched isotropic reference sits at exactly unit gain
    grid = make_latlon_grid(18, 36)
    iso = ReMSModel(
        structure=isotropic_radiator(grid, FREQ),
        tuning=through_tuning(1),
        frontend=RFFrontend(z_tx=[50.0], z_rx=np.zeros(0)),
    )
    g_iso = rems_gain(iso, [1.0], grid.direction(100))
    iso_dev = abs(g_iso - 1.0)

    # matched dipole close to the ideal 1.76 dB on a dense grid
    dip = _matched_dipole_chain(make_latlon_grid(36, 72))
    g_dip = rems_gain(dip, [1.0], Direction.from_degrees(90.0, 90.0))
    dip_db = 10.0 * math.log10(g_dip)

    # the loss chain recomposes the full gain through a lossy mismatch
    grid5 = make_latlon_grid(19, 36)
    lossy = ReMSModel(
        structure=hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], grid5, FREQ),
        tuning=TuningNetwork(1, np.array([[0.0, 0.8], [0.8, 0.0]], dtype=complex)),
        frontend=RFFrontend(z_tx=[30.0 + 10.0j], z_rx=np.zeros(0)),
    )
    d = Direction.from_degrees(90.0, 90.0)
    v = [1.0]
    res = solve_direct(lossy, v_tx=v)
    product = (
        matching_efficiency(lossy, res, v)
        * tuning_efficiency(res)
        * radiation_efficiency(res)
        * directivity(res.a_f, d)
    )
    chain_dev = abs(product - rems_gain(lossy, v, d)) / rems_gain(lossy, v, d)

    ok = iso_dev <= 1e-14 and abs(dip_db - 1.76) <= 0.02 and chain_dev <= 1e-10
    criterion_report(
        5, ok, f"isotropic gain dev {iso_dev:.1e}; dipole {dip_db:.4f} dB at 36x72; "
        f"efficiency-chain recomposition dev {chain_dev:.2e}"
    )
    assert iso_dev <= 1e-14
    assert abs(dip_db - 1.76) <= 0.02
    assert chain_dev <= 1e-10


def test_criterion_6_extraction_round_trip(criterion_report, tmp_path):
    # receive side at the production grid density
    grid = make_latlon_grid(18, 36)
    s_rx = dipole_array(
        [([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]), ([0.0, 0.0, 1.0], [0.02, 0.0, 0.0])],
        grid,
        FREQ,
    )
    resp = port_wave_responses(s_rx)
    write_response_file(resp, str(tmp_path / "rx.rsp"))
    resp_back = read_response_file(str(tmp_path / "rx.rsp"))
    rx_dev = _rel(extract_rx_kernel(resp_back), s_rx.rx_kernel)
    built = structure_from_responses(resp_back)
    tx_dev = _rel(built.tx_kernel, s_rx.tx_kernel)
    tx_is_rx = bool(np.array_equal(built.tx_kernel, built.rx_kernel))

    # reduced scattering kernel on a coarser grid (the file grows as size^2)
    grid_s = make_latlon_grid(8, 8)
    positions = [[0.0, 0.0, 0.0], [0.025, 0.0, 0.0]]
    s_sc = dipole_array(
        [([1.0, 0.0, 0.0], p) for p in positions],
        grid_s,
        FREQ,
        coupling=synthetic_coupling(positions, wavenumber(FREQ), 1.0),
        enforce_passivity=True,
    )
    resp_s = synthesize_plane_wave_responses(s_sc)
    write_response_file(resp_s, str(tmp_path / "sc.rsp"))
    sc_back = read_response_file(str(tmp_path / "sc.rsp"))
    # the certified array scatters mirror * P; its reduced kernel is (mirror - 1) P / w
    n = grid_s.size
    reduced = (s_sc.mirror - 1.0) * mirror_matrix(grid_s) / np.repeat(grid_s.weights, 2)[:, None]
    sc_dev = _rel(extract_scatter_kernel(sc_back), reduced.reshape(n, 2, n, 2))

    ok = rx_dev <= 1e-10 and tx_dev <= 1e-10 and tx_is_rx and sc_dev <= 1e-10
    criterion_report(
        6, ok, f"rx kernel dev {rx_dev:.2e} (18x36 file), scatter kernel dev "
        f"{sc_dev:.2e} (8x8 file), transmit reuses receive: {tx_is_rx}"
    )
    assert rx_dev <= 1e-10
    assert tx_dev <= 1e-10
    assert tx_is_rx
    assert sc_dev <= 1e-10


def test_criterion_7_joint_tuning_case_study(criterion_report):
    scene = Scene.load(os.path.join(SCENES, "rra_case_study.yaml"))
    problem, builder = scene.beamform_problem()

    t0 = perf_counter()
    result = coordinate_ascent(problem, builder)
    elapsed = perf_counter() - t0

    trace_ok = len(result.f_trace) >= 1 and all(
        b > a for a, b in zip(result.f_trace, result.f_trace[1:])
    )

    model_f = builder(result.z_r)
    h = h_co(model_f, problem.primary_dirs, problem.q_co)
    ht_dev = float(np.max(np.abs(h @ result.t - np.eye(len(problem.primary_dirs)))))

    again = coordinate_ascent(problem, builder)
    deterministic = (
        again.f_trace == result.f_trace
        and again.z_indices == result.z_indices
        and bool(np.array_equal(again.t, result.t))
    )

    z0 = (problem.z_init,) * problem.r
    base = evaluate_candidate(problem, builder, z0, problem.sigma_schedule[0])
    model_0 = builder(z0)
    pri, sec = problem.primary_dirs[0], problem.secondary_dirs[0]
    g0_pri = rems_gain(model_0, base.t[:, 0], pri)
    g0_sec = rems_gain(model_0, base.t[:, 0], sec)
    gf_pri = rems_gain(model_f, result.t[:, 0], pri)
    gf_sec = rems_gain(model_f, result.t[:, 0], sec)
    drop_db = 10.0 * math.log10(g0_sec / gf_sec)
    delta_pri_db = 10.0 * math.log10(gf_pri / g0_pri)

    ok = (
        trace_ok
        and ht_dev <= 1e-10
        and deterministic
        and drop_db >= 10.0
        and delta_pri_db >= -3.0
        and elapsed < 300.0
    )
    criterion_report(
        7, ok, f"f_best {result.f_best:.4f} after {result.evaluations} evaluations; "
        f"protected direction {drop_db:+.2f} dB down, primary {delta_pri_db:+.2f} dB; "
        f"|HT - I| = {ht_dev:.2e}; repeat identical: {deterministic}; {elapsed:.0f} s"
    )
    assert trace_ok
    assert ht_dev <= 1e-10
    assert deterministic
    assert drop_db >= 10.0
    assert delta_pri_db >= -3.0
    assert elapsed < 300.0


def test_criterion_8_touchstone_round_trip(criterion_report):
    rng = np.random.default_rng(8)
    freqs = np.array([1.0e9, 2.5e9])
    worst_ok = True
    for fmt in ("ri", "ma", "db"):
        for n in (1, 2, 3, 4):
            mats = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
            data = TouchstoneData.from_matrices(freqs, mats, format=fmt)
            back = parse_touchstone(touchstone_to_text(data))
            bit_exact = (
                np.array_equal(back.columns, data.columns)
                and np.array_equal(back.frequencies, data.frequencies)
                and np.array_equal(back.matrices, data.matrices)
            )
            if fmt == "ri":
                bit_exact = bit_exact and np.array_equal(back.matrices, mats)
            worst_ok = worst_ok and bit_exact

    criterion_report(
        8, worst_ok, "write->parse bit-exact for ri/ma/db across 1-4 ports"
    )
    assert worst_ok
