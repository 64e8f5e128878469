"""Radiating-structure kernels, passivity, reciprocity, extraction, and io."""

import dataclasses
import inspect
import math
import os
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import remskit
import remskit.farfield as farfield_mod
import remskit.network as network_mod
import remskit.radiating as radiating_mod
from remskit import (
    Direction,
    FarFieldPattern,
    GainOperators,
    ModelError,
    antipodal_mirror,
    apply_receive,
    apply_scatter,
    apply_transmit,
    check_reciprocity,
    dipole_array,
    extract_rx_kernel,
    extract_scatter_kernel,
    hertzian_dipole,
    isotropic_radiator,
    make_latlon_grid,
    random_reciprocal_structure,
    rotate_structure,
    structure_from_responses,
    synthesize_plane_wave_responses,
    synthetic_coupling,
    total_power,
)
from remskit.farfield import direction_from_vector
from remskit.radiating import (
    C_LIGHT,
    Z0_FREE_SPACE,
    PlaneWaveResponseSet,
    RadiatingStructure,
    _scatter_asymmetry,
    _weighted_operator_norm,
    parse_response_text,
    read_response_file,
    rx_extraction_factor,
    wavenumber,
    write_response_file,
)

from remskit.scene import Scene, rotation_matrix

from conftest import (
    FREQ,
    apply_full,
    fejer_weights,
    loop_blend,
    loop_dipole_kernel,
    loop_stencil,
    mirror_matrix,
    port_wave_responses,
    power_balance,
    random_passive_structure,
    random_pattern,
    response_text,
)

LAMBDA = C_LIGHT / FREQ
SCENES = os.path.join(os.path.dirname(__file__), os.pardir, "scenes")


def test_physical_constants():
    assert wavenumber(FREQ) == pytest.approx(2.0 * math.pi / 0.0555171, rel=1e-6)
    assert Z0_FREE_SPACE == pytest.approx(376.7303, rel=1e-6)
    # the receive-kernel conversion factor is purely imaginary, |.| ~ 349.6 at 5.4 GHz
    f = rx_extraction_factor(FREQ)
    assert f.real == 0.0
    assert abs(f) == pytest.approx(349.6, rel=1e-3)


# ---------------------------------------------------------------------------
# analytic kernels


def test_dipole_kernel_analytic():
    g = make_latlon_grid(8, 10)
    pos = [0.01, -0.02, 0.005]
    s = hertzian_dipole([1.0, 0.0, 0.0], pos, g, FREQ)
    k = wavenumber(FREQ)
    amp = math.sqrt(3.0 / (8.0 * math.pi))
    for idx in range(0, g.size, 7):
        th, ph = float(g.theta[idx]), float(g.phi[idx])
        # explicit spherical-basis projections of an x-oriented current
        proj_theta = math.cos(th) * math.cos(ph)
        proj_phi = -math.sin(ph)
        r_hat = np.array(
            [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
        )
        phase = np.exp(1j * k * float(r_hat @ pos))
        np.testing.assert_allclose(s.tx_kernel[0, idx, 0], amp * proj_theta * phase, atol=1e-14)
        np.testing.assert_allclose(s.tx_kernel[0, idx, 1], amp * proj_phi * phase, atol=1e-14)
    # minimal-scattering idealization: reciprocal, no reduced scatter kernel
    np.testing.assert_array_equal(s.rx_kernel, s.tx_kernel)
    assert s.scatter_kernel is None


@pytest.mark.parametrize(
    "orientation, position",
    [([1.0, 0.0, 0.0], [0.01, -0.02, 0.005]), ([0.0, 0.6, 0.8], [0.0, 0.0, 0.0])],
)
def test_hertzian_dipole_is_the_one_element_array(orientation, position):
    g = make_latlon_grid(8, 10)
    s = hertzian_dipole(orientation, position, g, FREQ)
    ref = dipole_array([(orientation, position)], g, FREQ)
    # and the single kernel on its own, bit for bit
    kern = loop_dipole_kernel(orientation, position, g, wavenumber(FREQ))[None]
    for other in (ref.tx_kernel, ref.rx_kernel, kern):
        np.testing.assert_array_equal(s.tx_kernel, other)
        np.testing.assert_array_equal(s.rx_kernel, other)
    assert s.m_ports == 1 and s.scatter_kernel is None and ref.scatter_kernel is None
    np.testing.assert_array_equal(s.coupling, np.zeros((1, 1)))
    assert s.frequency == FREQ and s.grid is g


def test_dipole_radiated_power_normalized():
    # sin^2 pattern with amplitude sqrt(3/8pi) integrates to 1 W for unit drive
    for n_theta, n_phi, tol in [(19, 36, 2e-3), (38, 72, 5e-4)]:
        g = make_latlon_grid(n_theta, n_phi)
        s = hertzian_dipole([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], g, FREQ)
        assert total_power(apply_transmit(s, [1.0])) == pytest.approx(1.0, abs=tol)


def test_dipole_rejects_non_unit_orientation():
    g = make_latlon_grid(4, 4)
    with pytest.raises(ModelError):
        hertzian_dipole([2.0, 0.0, 0.0], [0.0, 0.0, 0.0], g, FREQ)


@pytest.mark.parametrize("bad", [0, 2, 4])
def test_dipole_array_rejects_any_non_unit_orientation(bad):
    g = make_latlon_grid(4, 4)
    elements = [([0.0, 0.0, 1.0], [0.01 * i, 0.0, 0.0]) for i in range(5)]
    elements[bad] = ([0.0, 0.0, 1.0 + 1e-6], elements[bad][1])
    with pytest.raises(ModelError, match="unit vector"):
        dipole_array(elements, g, FREQ)


@settings(max_examples=40)
@given(
    n_theta=st.integers(2, 10),
    half_n_phi=st.integers(1, 10),
    m=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_theta=2, half_n_phi=1, m=1, seed=0)  # the one element hertzian_dipole builds
def test_batched_dipole_kernels_match_the_per_element_formula(n_theta, half_n_phi, m, seed):
    g = make_latlon_grid(n_theta, 2 * half_n_phi)
    rng = np.random.default_rng(seed)
    axes = rng.standard_normal((m, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    positions = rng.uniform(-0.5, 0.5, (m, 3)) * LAMBDA
    s = dipole_array(list(zip(axes, positions)), g, FREQ)
    ref = np.stack([loop_dipole_kernel(o, p, g, wavenumber(FREQ)) for o, p in zip(axes, positions)])
    tol = 1e-15 * np.abs(ref).max()
    np.testing.assert_allclose(s.tx_kernel, ref, rtol=0.0, atol=tol)
    np.testing.assert_array_equal(s.rx_kernel, s.tx_kernel)


def test_array_pattern_superposes_element_phases():
    g = make_latlon_grid(12, 16)
    k = wavenumber(FREQ)
    quarter = 0.25 * LAMBDA
    elements = [
        ([0.0, 0.0, 1.0], [quarter, 0.0, 0.0]),
        ([0.0, 0.0, 1.0], [-quarter, 0.0, 0.0]),
    ]
    s = dipole_array(elements, g, FREQ)
    drive = np.array([1.0, 1.0j])
    p = apply_transmit(s, drive)
    amp = math.sqrt(3.0 / (8.0 * math.pi))
    for idx in range(0, g.size, 11):
        th, ph = float(g.theta[idx]), float(g.phi[idx])
        # z-dipoles excite only the theta component, weighted by the array factor
        psi = k * quarter * math.sin(th) * math.cos(ph)
        af = np.exp(1j * psi) + 1j * np.exp(-1j * psi)
        expect = -amp * math.sin(th) * af
        np.testing.assert_allclose(p.values[idx, 0], expect, atol=1e-13)
        assert p.values[idx, 1] == 0.0


def test_isotropic_radiator_unit_power():
    g = make_latlon_grid(9, 12)
    s = isotropic_radiator(g, FREQ)
    np.testing.assert_allclose(
        s.tx_kernel[0, :, 0], 1.0 / math.sqrt(4.0 * math.pi), atol=1e-15
    )
    assert np.all(s.tx_kernel[0, :, 1] == 0.0)
    # constant intensity integrates exactly (weights telescope)
    assert total_power(apply_transmit(s, [1.0])) == pytest.approx(1.0, rel=1e-12)
    s_phi = isotropic_radiator(g, FREQ, pol="phi")
    assert np.all(s_phi.tx_kernel[0, :, 0] == 0.0)
    with pytest.raises(ModelError):
        isotropic_radiator(g, FREQ, pol="left")


def test_synthetic_coupling_values():
    k = wavenumber(FREQ)
    positions = [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.2, 0.0]]
    c = synthetic_coupling(positions, k, gamma=0.7)
    assert c.shape == (3, 3)
    assert np.all(np.diag(c) == 0.0)
    d01 = 0.1
    np.testing.assert_allclose(c[0, 1], 0.7 * np.exp(-1j * k * d01) / (k * d01), rtol=1e-14)
    np.testing.assert_array_equal(c, c.T)
    with pytest.raises(ModelError):
        synthetic_coupling([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], k, gamma=1.0)


def _loop_coupling(positions, k, gamma):
    """Per-pair reference loop for synthetic_coupling."""
    p = np.asarray(positions, dtype=float)
    m = len(p)
    c = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            d = float(np.linalg.norm(p[i] - p[j]))
            if d == 0.0:
                raise ModelError(f"elements {i} and {j} are co-located")
            c[i, j] = gamma * np.exp(-1j * k * d) / (k * d)
    return c


def test_synthetic_coupling_equals_the_pair_loop_bit_for_bit():
    k = wavenumber(FREQ)
    with open(os.path.join(SCENES, "rra_case_study.yaml"), "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    case_study = [el["position_m"] for el in raw["structures"][0]["elements"]]
    rng = np.random.default_rng(146)
    panel = rng.uniform(-0.5, 0.5, (146, 3))
    for positions, gamma in ((case_study, 2.5), (panel, 0.7), (panel[:1], 1.0), ([], 1.0)):
        assert np.array_equal(synthetic_coupling(positions, k, gamma), _loop_coupling(positions, k, gamma))
    # the first co-located pair, row by row, is the one named
    clash = panel[:6].copy()
    clash[4] = clash[2]
    clash[5] = clash[1]
    for build in (synthetic_coupling, _loop_coupling):
        with pytest.raises(ModelError, match="elements 1 and 5 are co-located"):
            build(clash, k, 1.0)


# ---------------------------------------------------------------------------
# block action


def test_apply_receive_is_bilinear():
    g = make_latlon_grid(6, 8)
    rng = np.random.default_rng(7)
    s = random_reciprocal_structure(g, 3, rng, FREQ)
    b = random_pattern(rng, g)
    out = apply_receive(s, b)
    # direct weighted pairing, no conjugation anywhere
    expect = np.array(
        [
            np.sum(g.weights * (s.rx_kernel[m, :, 0] * b.values[:, 0] + s.rx_kernel[m, :, 1] * b.values[:, 1]))
            for m in range(3)
        ]
    )
    np.testing.assert_allclose(out, expect, rtol=1e-13)
    c = 0.3 - 2.0j
    np.testing.assert_allclose(apply_receive(s, FarFieldPattern(g, c * b.values)), c * out, rtol=1e-13)


def test_apply_scatter_zero_kernel_is_mirror():
    g = make_latlon_grid(6, 8)
    rng = np.random.default_rng(8)
    s = hertzian_dipole([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], g, FREQ)
    b = random_pattern(rng, g)
    np.testing.assert_array_equal(
        apply_scatter(s, b).values, antipodal_mirror(b).values
    )


def test_apply_scatter_adds_weighted_kernel_action():
    g = make_latlon_grid(5, 6)
    rng = np.random.default_rng(9)
    s = random_reciprocal_structure(g, 2, rng, FREQ)
    b = random_pattern(rng, g)
    out = apply_scatter(s, b)
    expect = antipodal_mirror(b).values + np.einsum(
        "icjd,jd->ic", s.scatter_kernel, b.values * g.weights[:, None]
    )
    np.testing.assert_allclose(out.values, expect, rtol=1e-12)


@pytest.mark.parametrize("source", ["random", "rotated", "file-backed"])
def test_apply_scatter_matmul_matches_the_einsum_without_copying_the_kernel(source, tmp_path):
    g = make_latlon_grid(5, 6)
    rng = np.random.default_rng(10)
    s = random_reciprocal_structure(g, 2, rng, FREQ)
    if source == "rotated":
        s = rotate_structure(s, rotation_matrix([1.0, -2.0, 0.5], 71.0))
    elif source == "file-backed":  # the extracted kernel keeps the file's transposed layout
        path = str(tmp_path / "r.rsp")
        write_response_file(synthesize_plane_wave_responses(s), path)
        s = structure_from_responses(read_response_file(path))
    n2 = 2 * g.size
    assert np.shares_memory(s.scatter_kernel.reshape(n2, n2), s.scatter_kernel)
    b = random_pattern(rng, g)
    expect = s.mirror * antipodal_mirror(b).values + np.einsum(
        "icjd,jd->ic", s.scatter_kernel, b.values * g.weights[:, None]
    )
    assert _rel(apply_scatter(s, b).values, expect) <= 1e-13


def test_the_test_kit_stays_out_of_the_package():
    # generators, oracles and text joiners that only tests call live in conftest
    kit = {"apply_full", "power_balance", "random_passive_structure", "response_to_text", "kernels_to_text",
           "pattern_to_csv", "is_passive", "is_reciprocal", "waves_from_vi", "vi_from_waves", "impulse_pattern"}
    for module in (remskit, radiating_mod, farfield_mod, network_mod):
        assert not kit & set(dir(module)), module.__name__
    assert not {"__add__", "__sub__"} & set(vars(FarFieldPattern))
    assert "extrinsic_noise_enabled" not in {f.name for f in dataclasses.fields(RadiatingStructure)}
    assert "kernel_scale" not in inspect.signature(random_reciprocal_structure).parameters
    assert "include_scatter" not in inspect.signature(synthesize_plane_wave_responses).parameters
    assert not hasattr(GainOperators, "vtx_dense")


def test_mirror_matrix_matches_antipodal_mirror():
    g = make_latlon_grid(6, 8)
    rng = np.random.default_rng(10)
    p = random_pattern(rng, g)
    m = mirror_matrix(g)
    np.testing.assert_array_equal(
        (m @ p.values.reshape(-1)).reshape(-1, 2), antipodal_mirror(p).values
    )
    # the mirror is a unitary involution
    np.testing.assert_array_equal(m @ m, np.eye(2 * g.size))


def test_apply_full_combines_blocks():
    g = make_latlon_grid(5, 8)
    rng = np.random.default_rng(12)
    s = random_reciprocal_structure(g, 2, rng, FREQ)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = random_pattern(rng, g)
    b_out, a_out = apply_full(s, a, b)
    np.testing.assert_allclose(b_out, s.coupling @ a + apply_receive(s, b), rtol=1e-13)
    np.testing.assert_allclose(
        a_out.values, apply_transmit(s, a).values + apply_scatter(s, b).values, rtol=1e-13
    )


# ---------------------------------------------------------------------------
# passivity


def _full_weighted_operator(s):
    """Assemble the dense weighted scattering block the passivity claim is about."""
    g = s.grid
    n, m = g.size, s.m_ports
    sqw = np.repeat(np.sqrt(g.weights), 2)
    top = np.hstack([s.coupling, s.rx_kernel.reshape(m, 2 * n) * sqw[None, :]])
    scatter_w = 0.0
    if s.scatter_kernel is not None:
        scatter_w = sqw[:, None] * s.scatter_kernel.reshape(2 * n, 2 * n) * sqw[None, :]
    bottom = np.hstack(
        [sqw[:, None] * s.tx_kernel.reshape(m, 2 * n).T, scatter_w + s.mirror * mirror_matrix(g)]
    )
    return np.vstack([top, bottom])


def test_random_passive_structure_is_passive():
    g = make_latlon_grid(6, 8)
    rng = np.random.default_rng(13)
    for _ in range(5):
        s = random_passive_structure(g, 3, rng, FREQ)
        op = _full_weighted_operator(s)
        assert float(np.linalg.svd(op, compute_uv=False)[0]) <= 1.0 + 1e-9


def test_random_passive_structure_power_balance():
    g = make_latlon_grid(6, 8)
    rng = np.random.default_rng(14)
    s = random_passive_structure(g, 2, rng, FREQ)
    for _ in range(10):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = random_pattern(rng, g)
        p_in, p_out = power_balance(s, a, b)
        assert p_out <= p_in + 1e-9 * p_in


def test_dipole_array_passivity_rescale():
    g = make_latlon_grid(6, 8)
    quarter = 0.25 * LAMBDA
    elements = [
        ([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
        ([1.0, 0.0, 0.0], [quarter, 0.0, 0.0]),
    ]
    coup = synthetic_coupling(
        [p for _, p in elements], wavenumber(FREQ), gamma=1.5
    )
    s = dipole_array(elements, g, FREQ, coupling=coup, enforce_passivity=True)
    op = _full_weighted_operator(s)
    assert float(np.linalg.svd(op, compute_uv=False)[0]) <= 1.0 + 1e-9
    # the rescale keeps the structure exactly reciprocal
    rep = check_reciprocity(s, 1e-12)
    assert rep.coupling_ok and rep.kernel_ok and rep.scatter_ok


@settings(max_examples=60)
@given(
    n_theta=st.integers(2, 8),
    half_n_phi=st.integers(1, 5),
    m=st.integers(1, 4),
    gamma=st.one_of(st.floats(0.0, 0.2), st.floats(1.0, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_theta=2, half_n_phi=1, m=4, gamma=2.5, seed=3)  # M = n: R is square
@example(n_theta=2, half_n_phi=1, m=4, gamma=0.0, seed=4)
@example(n_theta=2, half_n_phi=1, m=10, gamma=1.5, seed=5)  # M > 2n: R is wide, no complement
def test_reduced_passivity_norm_is_the_dense_svd(n_theta, half_n_phi, m, gamma, seed):
    g = make_latlon_grid(n_theta, 2 * half_n_phi)
    rng = np.random.default_rng(seed)
    axes = rng.standard_normal((m, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    positions = rng.uniform(-0.5, 0.5, (m, 3)) * LAMBDA
    elements = list(zip(axes, positions))
    coup = synthetic_coupling(positions, wavenumber(FREQ), gamma)

    plain = dipole_array(elements, g, FREQ, coupling=coup)
    assert plain.scatter_kernel is None
    dense = float(np.linalg.svd(_full_weighted_operator(plain), compute_uv=False)[0])
    sigma = _weighted_operator_norm(plain.coupling, plain.tx_kernel, g)
    assert sigma == pytest.approx(dense, rel=1e-12, abs=0.0)
    # the mirror block alone has norm 1, so every certified array is rescaled
    assert dense >= 1.0 - 1e-12

    s = dipole_array(elements, g, FREQ, coupling=coup, enforce_passivity=True)
    scale = sigma * (1.0 + 1e-12)
    assert np.array_equal(s.coupling, plain.coupling / scale)
    assert np.array_equal(s.tx_kernel, plain.tx_kernel / scale)
    assert np.array_equal(s.rx_kernel, plain.rx_kernel / scale)
    certified = float(np.linalg.svd(_full_weighted_operator(s), compute_uv=False)[0])
    assert certified <= 1.0 + 1e-9


@pytest.mark.parametrize("n_theta, n_phi, m", [(2, 2, 4), (2, 2, 1), (2, 2, 10), (8, 16, 1), (8, 16, 4)])
def test_passivity_norm_of_a_rank_one_span(n_theta, n_phi, m):
    # x-dipoles at the origin have real kernels, so span(conj(K_w)) has rank 1
    # and the QR's R factor has zero rows; (2, 2, 10) has M > 2n, so R is wide
    # and Q covers every field direction
    g = make_latlon_grid(n_theta, n_phi)
    rng = np.random.default_rng(n_theta + m)
    coup = 0.8 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    elements = [([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])] * m
    plain = dipole_array(elements, g, FREQ, coupling=coup)
    dense = float(np.linalg.svd(_full_weighted_operator(plain), compute_uv=False)[0])
    sigma = _weighted_operator_norm(plain.coupling, plain.tx_kernel, g)
    assert sigma == pytest.approx(dense, rel=1e-12, abs=0.0)
    s = dipole_array(elements, g, FREQ, coupling=coup, enforce_passivity=True)
    assert float(np.linalg.svd(_full_weighted_operator(s), compute_uv=False)[0]) <= 1.0 + 1e-9


@pytest.mark.parametrize("n_theta, n_phi", [(2, 2), (3, 4), (7, 10), (18, 36), (40, 80)])
def test_dipole_kernels_have_the_minimum_scattering_symmetry(n_theta, n_phi):
    # the condition _weighted_operator_norm's reduction rests on: P^H K_w = -conj(K_w)
    g = make_latlon_grid(n_theta, n_phi)
    rng = np.random.default_rng(n_theta * n_phi)
    for m in (1, 3, 6):
        axes = rng.standard_normal((m, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        positions = rng.uniform(-2.0, 2.0, (m, 3)) * LAMBDA
        tx = dipole_array(list(zip(axes, positions)), g, FREQ).tx_kernel
        mirrored = tx[:, g.antipode] * np.array([-1.0, 1.0])
        assert np.abs(mirrored + tx.conj()).max() <= 1e-13 * np.abs(tx).max()


def test_mutual_resistance_matches_its_closed_form():
    # two equal-orientation Hertzian dipoles a distance d apart exchange
    # (3/2)[sin^2 psi sin u/u + (1 - 3 cos^2 psi)(cos u/u^2 - sin u/u^3)], u = k|d|,
    # psi the angle between the axis and d; Fejer's rule integrates the
    # band-limited product exactly
    g = make_latlon_grid(36, 72)
    w = fejer_weights(g)
    rng = np.random.default_rng(16)
    for _ in range(12):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        d = rng.standard_normal(3)
        d *= rng.uniform(0.1, 1.5) * LAMBDA / np.linalg.norm(d)
        tx = dipole_array([(axis, np.zeros(3)), (axis, d)], g, FREQ).tx_kernel
        mutual = np.sum(w[:, None] * tx[0] * tx[1].conj())
        u = wavenumber(FREQ) * np.linalg.norm(d)
        cos2 = (axis @ d) ** 2 / (d @ d)
        near = math.cos(u) / u**2 - math.sin(u) / u**3
        ref = 1.5 * ((1.0 - cos2) * math.sin(u) / u + (1.0 - 3.0 * cos2) * near)
        assert abs(mutual - ref) <= 1e-12


def test_case_study_geometry_certifies_at_36x72():
    with open(os.path.join(SCENES, "rra_case_study.yaml"), "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw["grid"] = {"n_theta": 36, "n_phi": 72}
    scene = Scene.from_dict(raw, base_dir=SCENES)
    tracemalloc.start()
    try:
        s = scene.structure(raw["problem"]["structure"])
        assert s.grid.size == 36 * 72 and s.mirror < 1.0
        rep = check_reciprocity(s, 1e-12)
        assert rep.coupling_ok and rep.kernel_ok and rep.scatter_ok
        rng = np.random.default_rng(36)
        for _ in range(20):
            a = rng.standard_normal(s.m_ports) + 1j * rng.standard_normal(s.m_ports)
            p_in, p_out = power_balance(s, a, random_pattern(rng, s.grid))
            assert p_out <= p_in * (1.0 + 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense (n, 2, n, 2) absorber kernel alone would be 430 MB here
    assert peak < 50e6


def _certified_pair(grid, gamma=1.5):
    quarter = 0.25 * LAMBDA
    positions = [[0.0, 0.0, 0.0], [quarter, 0.0, 0.0]]
    coup = synthetic_coupling(positions, wavenumber(FREQ), gamma)
    return dipole_array(
        [([1.0, 0.0, 0.0], p) for p in positions], grid, FREQ, coupling=coup, enforce_passivity=True
    )


def test_mirror_coefficient_matches_the_dense_reduced_kernel():
    from remskit import ReMSModel, solve_direct
    from remskit.channel import far_channel

    from conftest import dense_reduced_twin, random_frontend, random_tuning

    g = make_latlon_grid(6, 12)
    rng = np.random.default_rng(37)
    with open(os.path.join(SCENES, "rra_case_study.yaml"), "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw["grid"] = {"n_theta": 6, "n_phi": 12}
    structures = [
        Scene.from_dict(raw, base_dir=SCENES).structure("array"),
        _certified_pair(g),
        random_passive_structure(g, 3, rng, FREQ),
    ]
    assert [s.mirror < 1.0 for s in structures] == [True, True, True]
    assert structures[0].scatter_kernel is None and structures[2].mirror == 0.0
    other = random_reciprocal_structure(g, 2, rng, FREQ)
    for s in structures:
        dense = dense_reduced_twin(s)
        assert dense.mirror == 1.0
        m = s.m_ports
        for _ in range(3):
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            b = random_pattern(rng, g)
            assert _rel(apply_scatter(s, b).values, apply_scatter(dense, b).values) <= 1e-14
            (p_in, p_out), (q_in, q_out) = power_balance(s, a, b), power_balance(dense, a, b)
            assert p_in == q_in and abs(p_out - q_out) <= 1e-14 * q_out

        tuning, frontend = random_tuning(rng, 2 + 1, m), random_frontend(rng, 2, 1)
        drive = dict(v_tx=rng.standard_normal(2) + 0.5j, b_in=random_pattern(rng, g))
        got = solve_direct(ReMSModel(s, tuning, frontend), **drive)
        want = solve_direct(ReMSModel(dense, tuning, frontend), **drive)
        for wave in ("a_t", "b_t", "a_r", "b_r", "a_r_tilde", "b_r_tilde", "v_rx"):
            assert _rel(getattr(got, wave), getattr(want, wave)) <= 1e-14, wave
        assert _rel(got.a_f.values, want.a_f.values) <= 1e-14

        disp = np.array([0.3, 2.0, 0.7])
        assert _rel(far_channel(s, other, disp), far_channel(dense, other, disp)) <= 1e-14
        assert _rel(far_channel(other, s, -disp), far_channel(other, dense, -disp)) <= 1e-14

        resp, resp_dense = synthesize_plane_wave_responses(s), synthesize_plane_wave_responses(dense)
        np.testing.assert_array_equal(resp.port_waves, resp_dense.port_waves)
        assert _rel(extract_scatter_kernel(resp), dense.scatter_kernel) <= 1e-14
        assert _rel(resp.scattered, resp_dense.scattered) <= 1e-14


def test_certified_array_scatters_no_remainder_at_any_direction_pair():
    g = make_latlon_grid(6, 12)
    s = _certified_pair(g)
    assert s.scatter_kernel is None and s.mirror < 1.0
    dirs = [g.direction(i) for i in range(g.size)]
    rng = np.random.default_rng(38)
    dirs += [Direction(t, p) for t, p in zip(rng.uniform(0.0, math.pi, 8), rng.uniform(0.0, 2.0 * math.pi, 8))]
    antipodes = [direction_from_vector(-d.unit_vector()) for d in dirs]
    for d_out in dirs:
        for d_in in dirs:
            assert not s.scatter_at(d_out, d_in).any()
    for d, opposite in zip(dirs, antipodes):
        assert not s.scatter_at(d, opposite).any() and not s.scatter_at(opposite, d).any()


# ---------------------------------------------------------------------------
# reciprocity


def test_check_reciprocity_accepts_and_flags():
    g = make_latlon_grid(5, 6)
    rng = np.random.default_rng(15)
    s = random_reciprocal_structure(g, 3, rng, FREQ)
    rep = check_reciprocity(s, 1e-12)
    assert rep.coupling_ok and rep.kernel_ok and rep.scatter_ok
    assert max(rep.max_coupling_dev, rep.max_kernel_dev, rep.max_scatter_dev) <= 1e-13

    broken = RadiatingStructure(
        coupling=s.coupling,
        tx_kernel=s.tx_kernel,
        rx_kernel=2.0 * s.tx_kernel,  # violates rx = tx
        scatter_kernel=s.scatter_kernel,
        grid=g,
        frequency=FREQ,
    )
    rep = check_reciprocity(broken, 1e-12)
    assert rep.coupling_ok and rep.scatter_ok and not rep.kernel_ok
    assert rep.max_kernel_dev > 0.1


@pytest.mark.parametrize("n", [1, 127, 130, 300])
def test_blocked_scatter_asymmetry_equals_dense_formula(n):
    # 2n = 2, 254, 260, 600 rows: none is a multiple of the 256-row block
    rng = np.random.default_rng(n)
    k = rng.standard_normal((n, 2, n, 2)) + 1j * rng.standard_normal((n, 2, n, 2))
    dense = float(np.max(np.abs(k - k.transpose(2, 3, 0, 1))))
    assert _scatter_asymmetry(k) == dense
    k[n - 1, 1, 0, 0] = np.nan  # the dense formula gives NaN too
    assert math.isnan(_scatter_asymmetry(k))


# ---------------------------------------------------------------------------
# extraction and response files


def test_extraction_round_trip_in_memory():
    g = make_latlon_grid(6, 8)
    rng = np.random.default_rng(16)
    s = random_reciprocal_structure(g, 3, rng, FREQ)
    resp = synthesize_plane_wave_responses(s)
    np.testing.assert_allclose(extract_rx_kernel(resp), s.rx_kernel, rtol=1e-12)
    np.testing.assert_allclose(extract_scatter_kernel(resp), s.scatter_kernel, rtol=1e-12)
    rebuilt = structure_from_responses(resp, coupling=s.coupling)
    np.testing.assert_allclose(rebuilt.tx_kernel, s.tx_kernel, rtol=1e-12)
    np.testing.assert_array_equal(rebuilt.rx_kernel, rebuilt.tx_kernel)


def test_response_text_round_trip_bit_exact():
    g = make_latlon_grid(4, 4)
    rng = np.random.default_rng(17)
    s = random_reciprocal_structure(g, 2, rng, FREQ)
    resp = synthesize_plane_wave_responses(s)
    text = response_text(resp)
    back = parse_response_text(text)
    assert back.frequency == resp.frequency
    np.testing.assert_array_equal(back.port_waves, resp.port_waves)
    np.testing.assert_array_equal(back.scattered, resp.scattered)
    # and the text itself is a fixed point of the writer
    assert response_text(back) == text


def test_response_parser_diagnostics():
    g = make_latlon_grid(2, 2)
    resp = PlaneWaveResponseSet(
        FREQ, g, np.zeros((g.size, 2, 1), dtype=complex)
    )
    text = response_text(resp)

    with pytest.raises(ModelError, match="line 1"):
        parse_response_text("not a response file\n" + text)
    lines = text.splitlines()
    bad = "\n".join(lines[:4] + ["b 45.0 0.0 theta 5 0.0 0.0"] + lines[5:])
    with pytest.raises(ModelError, match="port 5 out of range"):
        parse_response_text(bad)
    bad = "\n".join(lines[:4] + ["b 46.5 0.0 theta 0 0.0 0.0"] + lines[5:])
    with pytest.raises(ModelError, match="not on the declared grid"):
        parse_response_text(bad)
    with pytest.raises(ModelError, match="no records"):
        parse_response_text("\n".join(lines[:4]) + "\n")
    with pytest.raises(ModelError, match="incomplete"):
        parse_response_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ModelError, match="unknown record"):
        parse_response_text(text + "q 1 2 3\n")
    # comments and blank lines are fine
    assert parse_response_text(text + "\n# trailing comment\n").m_ports == 1

    def parse_with(lineno, line):
        return parse_response_text("\n".join(lines[: lineno - 1] + [line] + lines[lineno:]) + "\n")

    cases = [
        (2, "frequency_hz", "line 2: frequency_hz header has 0 values"),
        (2, "frequency_hz 5.4 GHz", "line 2: frequency_hz header has 2 values"),
        (2, "frequency_hz -1.0", "line 2: frequency_hz must be positive"),
        (3, "grid 8", "line 3: grid header has 1 values"),
        (3, "grid 2 x", "line 3: grid must be a number"),
        (4, "ports x", "line 4: ports must be a number"),
        (4, "ports 0", "line 4: ports must be at least 1"),
        (4, "ports 1.5", "line 4: ports must be an integer"),
        (5, "b 45.0 0.0 theta 1.5 0.0 0.0", "line 5: port must be an integer"),
        (5, "b 45.0 0.0 theta 0 abc 0.0", "line 5: could not convert"),
        (5, "b 45.0 x theta 0 0.0 0.0", "line 5: could not convert"),
        (5, "b 45.0 0.0 theta 0 inf 0.0", "line 5: non-finite value"),
    ]
    for lineno, line, match in cases:
        with pytest.raises(ModelError, match=match):
            parse_with(lineno, line)


def test_response_parser_rejects_non_finite_scatter_values():
    g = make_latlon_grid(2, 2)
    s = random_reciprocal_structure(g, 1, np.random.default_rng(4), FREQ)
    lines = response_text(synthesize_plane_wave_responses(s)).splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("s "))
    toks = lines[k].split()
    toks[6] = "nan"
    lines[k] = " ".join(toks)
    with pytest.raises(ModelError, match=f"line {k + 1}: non-finite value"):
        parse_response_text("\n".join(lines) + "\n")


def test_response_parser_keeps_the_later_of_duplicated_records():
    g = make_latlon_grid(2, 2)
    s = random_reciprocal_structure(g, 2, np.random.default_rng(5), FREQ)
    resp = synthesize_plane_wave_responses(s)
    lines = response_text(resp).splitlines()

    def changed(line, values):
        return " ".join(line.split()[: -len(values)] + list(values))

    kb = next(i for i, line in enumerate(lines) if line.startswith("b ") and line.split()[4] == "1")
    b_line = changed(lines[kb], ("0.25", "-0.5"))
    ks = [i for i, line in enumerate(lines) if line.startswith("s ")][2]  # block (0, theta), j = 2
    s_line = changed(lines[ks], ("1.0", "2.0", "3.0", "4.0"))

    # a changed copy right after the original wins; right before it, the original wins
    after = lines[: kb + 1] + [b_line] + lines[kb + 1 : ks + 1] + [s_line] + lines[ks + 1 :]
    back = parse_response_text("\n".join(after) + "\n")
    assert back.port_waves[0, 0, 1] == 0.25 - 0.5j
    np.testing.assert_array_equal(back.scattered[0, 0, 2], [1 + 2j, 3 + 4j])
    before = lines[:kb] + [b_line] + lines[kb:ks] + [s_line] + lines[ks:]
    back = parse_response_text("\n".join(before) + "\n")
    np.testing.assert_array_equal(back.port_waves, resp.port_waves)
    np.testing.assert_array_equal(back.scattered, resp.scattered)

    # a block header repeated at the end overrides only the records it carries
    last = lines[-1].split()
    header = next(line for line in lines if line.startswith("scattered "))
    tail = [header, " ".join(last[:3] + ["7.0", "0.0", "0.0", "-7.0"])]
    back = parse_response_text("\n".join(lines + tail) + "\n")
    want = resp.scattered.copy()
    want[0, 0, g.size - 1] = [7.0, -7.0j]
    np.testing.assert_array_equal(back.scattered, want)


def test_response_parser_names_the_first_bad_scatter_line():
    g = make_latlon_grid(2, 2)
    s = random_reciprocal_structure(g, 1, np.random.default_rng(8), FREQ)
    lines = response_text(synthesize_plane_wave_responses(s)).splitlines()
    first_block = next(i for i, line in enumerate(lines) if line.startswith("scattered "))
    k = first_block + 2  # the second s record of the first block, 0-based
    s_records = [i for i, line in enumerate(lines) if line.startswith("s ")]
    k_last = s_records[-1]

    def parse_with(edits):
        edited = list(lines)
        for at, field, word in edits:
            toks = edited[at].split()
            toks[field] = word
            edited[at] = " ".join(toks)
        return parse_response_text("\n".join(edited) + "\n")

    cases = [
        ([(k, 4, "abc")], f"line {k + 1}: could not convert"),
        ([(k, 5, "inf")], f"line {k + 1}: non-finite value"),
        ([(k, 1, "46.5")], f"line {k + 1}: direction .* not on the declared grid"),
        ([(k_last, 6, "nan")], f"line {k_last + 1}: non-finite value"),
        # two bad records in one block: the earlier line is the one named
        ([(k, 6, "nan"), (k + 1, 3, "x")], f"line {k + 1}: non-finite value"),
        ([(k, 3, "x"), (k + 1, 6, "nan")], f"line {k + 1}: could not convert"),
    ]
    for edits, match in cases:
        with pytest.raises(ModelError, match=match):
            parse_with(edits)
    # an s record before the first block header
    moved = lines[:first_block] + [lines[k]] + lines[first_block:]
    with pytest.raises(ModelError, match=f"line {first_block + 1}: s record outside a scattered block"):
        parse_response_text("\n".join(moved) + "\n")


def test_short_response_text_fails_before_allocating_its_declared_grid(tmp_path):
    g = make_latlon_grid(20, 40)
    lines = response_text(
        synthesize_plane_wave_responses(hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], g, FREQ))
    ).splitlines()
    labels = [" ".join(line.split()[1:3]) for line in lines[4:24]]
    header_only = "\n".join(lines[:4] + ["scattered " + labels[0] + " theta"]) + "\n"
    # every b record, then the first of 1600 scattered blocks, cut after 20 records
    one_block = "\n".join(
        lines + ["scattered " + labels[0] + " theta"] + [f"s {label} 0.0 0.0 0.0 0.0" for label in labels]
    ) + "\n"
    cases = [
        (header_only, "incomplete response set: too few lines for its header"),
        (one_block, f"line {len(lines) + 1}: incomplete scattered-field blocks: too few lines"),
    ]
    path = tmp_path / "short.rsp"
    for text, match in cases:
        path.write_text(text, encoding="utf-8")
        for parse, source in ((parse_response_text, text), (read_response_file, str(path))):
            tracemalloc.start()
            try:
                with pytest.raises(ModelError, match=match):
                    parse(source)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the declared (800, 2, 800, 2) scattered array alone is 41 MB
            assert peak < 10 * len(text) + 16_000, (parse.__name__, len(text), peak)


def test_response_set_rejects_non_finite_values(tmp_path):
    from remskit.radiating import write_response_file

    g = make_latlon_grid(2, 2)
    resp = synthesize_plane_wave_responses(random_reciprocal_structure(g, 1, np.random.default_rng(9), FREQ))
    for bad in (complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, math.nan)):
        port_waves = resp.port_waves.copy()
        port_waves[1, 0, 0] = bad
        with pytest.raises(ModelError, match="port_waves must be finite"):
            PlaneWaveResponseSet(FREQ, g, port_waves, resp.scattered)
        scattered = resp.scattered.copy()
        scattered[0, 1, 2, 1] = bad
        with pytest.raises(ModelError, match="scattered must be finite"):
            PlaneWaveResponseSet(FREQ, g, resp.port_waves, scattered)
    for frequency in (math.nan, math.inf, 0.0, -FREQ):
        with pytest.raises(ModelError, match="frequency must be positive and finite"):
            PlaneWaveResponseSet(frequency, g, resp.port_waves)
    # a structure with a non-finite kernel has no response set to write
    s = random_reciprocal_structure(g, 1, np.random.default_rng(9), FREQ)
    s.rx_kernel[0, 1, 0] = math.nan
    with pytest.raises(ModelError, match="port_waves must be finite"):
        write_response_file(synthesize_plane_wave_responses(s), str(tmp_path / "r.rsp"))
    assert not (tmp_path / "r.rsp").exists()


def test_response_file_io(tmp_path):
    from remskit.radiating import read_response_file, write_response_file

    g = make_latlon_grid(3, 4)
    rng = np.random.default_rng(18)
    s = random_reciprocal_structure(g, 2, rng, FREQ)
    resp = port_wave_responses(s)
    path = tmp_path / "responses.txt"
    write_response_file(resp, str(path))
    back = read_response_file(str(path))
    np.testing.assert_array_equal(back.port_waves, resp.port_waves)
    assert back.scattered is None


# ---------------------------------------------------------------------------
# rotation


def test_rotate_identity_is_exact():
    g = make_latlon_grid(10, 12)
    s = hertzian_dipole([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], g, FREQ)
    r = rotate_structure(s, np.eye(3))
    np.testing.assert_allclose(r.tx_kernel, s.tx_kernel, atol=1e-14)
    np.testing.assert_array_equal(r.coupling, s.coupling)
    assert r.frequency == s.frequency


def test_rotate_z_dipole_to_x_dipole():
    g = make_latlon_grid(36, 72)
    s_z = hertzian_dipole([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], g, FREQ)
    s_x = hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], g, FREQ)
    rot = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])  # y-axis, +90 deg
    r = rotate_structure(s_z, rot)
    # resampled kernels approximate the analytic rebuild to stencil accuracy
    err = np.max(np.abs(r.tx_kernel - s_x.tx_kernel))
    assert err < 0.05


def _rel(x, y):
    return float(np.max(np.abs(x - y))) / float(np.max(np.abs(y)))


def test_rotate_z_by_one_phi_step_shifts_every_kernel():
    g = make_latlon_grid(8, 16)
    s = random_reciprocal_structure(g, 2, np.random.default_rng(21), FREQ)
    r = rotate_structure(s, rotation_matrix([0.0, 0.0, 1.0], 360.0 / g.n_phi))
    # new sample (i, j) reads old sample (i, j - 1); the local basis turns with it
    ring, col = np.divmod(np.arange(g.size), g.n_phi)
    src = ring * g.n_phi + (col - 1) % g.n_phi
    assert _rel(r.tx_kernel, s.tx_kernel[:, src, :]) <= 1e-14
    assert _rel(r.rx_kernel, s.rx_kernel[:, src, :]) <= 1e-14
    assert _rel(r.scatter_kernel, s.scatter_kernel[src][:, :, src, :]) <= 1e-14


def test_rotate_keeps_every_field_but_the_kernels():
    g = make_latlon_grid(8, 16)
    kernels = {"tx_kernel", "rx_kernel", "scatter_kernel"}
    certified = _certified_pair(g)
    random = dataclasses.replace(random_passive_structure(g, 2, np.random.default_rng(25), FREQ), mirror=0.25)
    for s in (certified, random):
        r = rotate_structure(s, rotation_matrix([1.0, -2.0, 0.5], 71.0))
        for f in dataclasses.fields(s):
            if f.name not in kernels:
                assert np.array_equal(getattr(r, f.name), getattr(s, f.name)), f.name
        assert r.coupling is not s.coupling
        assert r.mirror == s.mirror


def test_certified_array_rotated_by_one_phi_step_stays_passive():
    g = make_latlon_grid(8, 16)
    s = _certified_pair(g, gamma=2.5)
    r = rotate_structure(s, rotation_matrix([0.0, 0.0, 1.0], 360.0 / g.n_phi))
    assert r.mirror == s.mirror < 1.0 and r.scatter_kernel is None
    ring, col = np.divmod(np.arange(g.size), g.n_phi)
    src = ring * g.n_phi + (col - 1) % g.n_phi
    assert _rel(r.tx_kernel, s.tx_kernel[:, src, :]) <= 1e-14
    rng = np.random.default_rng(26)
    for _ in range(20):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p_in, p_out = power_balance(r, a, random_pattern(rng, g))
        assert p_out <= p_in * (1.0 + 1e-9)


def test_rotate_keeps_reciprocity():
    g = make_latlon_grid(8, 16)
    s = random_reciprocal_structure(g, 2, np.random.default_rng(22), FREQ)
    for axis, angle in [([1.0, 2.0, 3.0], 37.0), ([0.0, 1.0, 0.0], 90.0), ([-1.0, 0.3, 0.2], 133.0)]:
        rep = check_reciprocity(rotate_structure(s, rotation_matrix(axis, angle)), 1e-12)
        assert rep.coupling_ok and rep.kernel_ok and rep.scatter_ok, rep


def test_rotate_matches_the_per_direction_loop():
    g = make_latlon_grid(4, 6)
    s = random_reciprocal_structure(g, 2, np.random.default_rng(23), FREQ)
    rot = rotation_matrix([1.0, -2.0, 0.5], 71.0)
    r = rotate_structure(s, rot)
    # one stencil and one 2x2 basis change per grid direction, as resampling is defined
    stencils, a = [], []
    for i in range(g.size):
        d_new = g.direction(i)
        d_old = direction_from_vector(rot.T @ d_new.unit_vector())
        stencils.append(loop_stencil(g, d_old.theta, d_old.phi))
        a.append(_basis(d_new).T @ rot @ _basis(d_old))
    tx = np.empty_like(s.tx_kernel)
    sc = np.empty_like(s.scatter_kernel)
    for i in range(g.size):
        tx[:, i, :] = loop_blend(s.tx_kernel.transpose(1, 0, 2), stencils[i]) @ a[i].T
        for j in range(g.size):
            acc = np.zeros((2, 2), dtype=complex)
            for ii, wi in stencils[i]:
                for jj, wj in stencils[j]:
                    acc += wi * wj * s.scatter_kernel[ii, :, jj, :]
            sc[i, :, j, :] = a[i] @ acc @ a[j].T
    assert _rel(r.tx_kernel, tx) <= 1e-14
    assert _rel(r.scatter_kernel, sc) <= 1e-14


def _basis(d):
    """3x2 matrix [theta_hat, phi_hat] at d."""
    ct, st, cp, sp = math.cos(d.theta), math.sin(d.theta), math.cos(d.phi), math.sin(d.phi)
    return np.array([[ct * cp, -sp], [ct * sp, cp], [-st, 0.0]])


def test_batched_lookups_equal_stacked_single_lookups_bit_for_bit():
    g = make_latlon_grid(8, 16)
    rng = np.random.default_rng(24)
    s = random_reciprocal_structure(g, 3, rng, FREQ)
    dirs = [Direction(0.0, 0.3), Direction(math.pi, 2.0 * math.pi - 1e-9), g.direction(17)]
    angles = zip(rng.uniform(0.0, math.pi, 40), rng.uniform(0.0, 2.0 * math.pi, 40))
    dirs += [Direction(t, p) for t, p in angles]
    for lookup in (s.tx_at, s.rx_at):
        batched = lookup(dirs)
        assert batched.shape == (len(dirs), 2, 3)
        assert batched.tobytes() == np.stack([lookup(d) for d in dirs]).tobytes()
    for d in dirs[:5]:
        ref = loop_blend(s.tx_kernel.transpose(1, 2, 0), loop_stencil(g, d.theta, d.phi))
        assert s.tx_at(d).tobytes() == ref.tobytes()


def test_the_dense_kernel_warning_names_the_frame_that_builds_the_structure():
    grid = make_latlon_grid(2, 2050)  # 4100 directions, above the 64x64 guideline
    n = grid.size
    kernel = np.zeros((1, n, 2), dtype=complex)
    scatter = np.broadcast_to(np.zeros((), dtype=complex), (n, 2, n, 2))  # a zero-stride view: no dense memory
    with pytest.warns(UserWarning, match="exceeds the 64x64 guideline") as record:
        RadiatingStructure(np.zeros((1, 1)), kernel, kernel, scatter, grid, FREQ)
    assert [w.filename for w in record] == [__file__]
