"""Direction algebra, grid quadrature, and pattern arithmetic."""

import math

import numpy as np
import pytest

from remskit import (
    Direction,
    FarFieldPattern,
    ModelError,
    antipodal_mirror,
    apply_transmit,
    hertzian_dipole,
    inner_product,
    intensity,
    make_latlon_grid,
    total_power,
    zero_pattern,
)
from remskit.farfield import FOUR_PI, _pattern_csv, direction_from_vector, spherical_basis

from conftest import (
    FREQ,
    fejer_weights,
    impulse_pattern,
    loop_blend,
    loop_pattern_to_csv,
    loop_stencil,
    random_pattern,
)


# ---------------------------------------------------------------------------
# directions


def test_direction_canonical_fold():
    # the slice-plot convention: (-theta, phi) is the same ray as (theta, phi+pi)
    d = Direction.from_degrees(-30.0, 0.0)
    e = Direction.from_degrees(30.0, 180.0)
    assert d.theta == e.theta and d.phi == e.phi
    np.testing.assert_allclose(d.unit_vector(), e.unit_vector(), atol=1e-15)


def test_direction_validation():
    with pytest.raises(ModelError):
        Direction(-0.1, 0.0)
    with pytest.raises(ModelError):
        Direction(0.5, 7.0)
    with pytest.raises(ModelError):
        Direction.canonical(-3.5, 0.0)  # folds past pi
    # canonical wraps phi into [0, 2pi)
    assert Direction.canonical(0.5, -0.25).phi == pytest.approx(2 * math.pi - 0.25)


def test_unit_vector_spherical():
    d = Direction.from_degrees(60.0, 45.0)
    st, ct = math.sin(d.theta), math.cos(d.theta)
    expect = [st * math.cos(d.phi), st * math.sin(d.phi), ct]
    np.testing.assert_allclose(d.unit_vector(), expect, rtol=1e-15)
    assert np.linalg.norm(d.unit_vector()) == pytest.approx(1.0, abs=1e-15)


def test_direction_from_vector_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.standard_normal(3)
        d = direction_from_vector(v)
        np.testing.assert_allclose(d.unit_vector(), v / np.linalg.norm(v), atol=1e-12)


def test_local_basis_orthonormal_right_handed():
    theta, phi = np.array([0.3, 1.5, math.pi - 0.1]), np.array([0.7, 4.0, 2.0])
    r_hat, theta_hat, phi_hat = spherical_basis(theta, phi)
    for k in range(3):
        th, ph = theta_hat[k], phi_hat[k]
        r = Direction(theta[k], phi[k]).unit_vector()
        np.testing.assert_allclose(r_hat[k], r, atol=1e-15)
        assert np.dot(th, ph) == pytest.approx(0.0, abs=1e-15)
        assert np.dot(th, r) == pytest.approx(0.0, abs=1e-15)
        # r x theta = phi completes the triad
        np.testing.assert_allclose(np.cross(r, th), ph, atol=1e-15)


# ---------------------------------------------------------------------------
# grid


def test_grid_weights_telescope_to_sphere():
    for n_theta, n_phi in [(2, 2), (9, 8), (18, 36), (37, 72)]:
        g = make_latlon_grid(n_theta, n_phi)
        assert g.size == n_theta * n_phi
        assert np.all(g.weights > 0.0)
        # cell integrals telescope: sum is the sphere area with no quadrature error
        assert abs(float(np.sum(g.weights)) - FOUR_PI) <= 1e-12


def test_grid_rejects_bad_shapes():
    with pytest.raises(ModelError):
        make_latlon_grid(1, 8)
    with pytest.raises(ModelError):
        make_latlon_grid(9, 7)  # odd n_phi breaks the antipodal map
    with pytest.raises(ModelError):
        make_latlon_grid(9, 0)


def test_antipode_is_involution_and_geometric():
    g = make_latlon_grid(10, 12)
    assert np.array_equal(g.antipode[g.antipode], np.arange(g.size))
    for idx in range(0, g.size, 7):
        d = g.direction(idx)
        e = g.direction(int(g.antipode[idx]))
        np.testing.assert_allclose(e.unit_vector(), -d.unit_vector(), atol=1e-13)


def test_antipodal_weights_bit_identical():
    # the mirror term divides by weights at antipodal pairs; exact symmetry
    # keeps that operation an involution at machine precision
    for n_theta, n_phi in [(9, 8), (18, 36), (36, 72)]:
        g = make_latlon_grid(n_theta, n_phi)
        assert np.array_equal(g.weights, g.weights[g.antipode])


def test_quadrature_convergence_quadratic():
    # midpoint quadrature of a smooth intensity: error drops ~4x per doubling
    def run(n_theta, n_phi):
        g = make_latlon_grid(n_theta, n_phi)
        vals = np.zeros((g.size, 2), dtype=complex)
        vals[:, 0] = np.cos(g.theta)
        vals[:, 1] = np.sin(g.phi)
        p = FarFieldPattern(g, vals)
        exact = FOUR_PI / 3.0 + 2.0 * math.pi
        return abs(total_power(p) - exact)

    e1, e2 = run(12, 16), run(24, 32)
    assert e2 < e1 / 3.5


@pytest.mark.parametrize("n_theta", [4, 9, 18, 36])
def test_fejer_weights_integrate_a_dipole_to_round_off(n_theta):
    # a Hertzian dipole radiates 1 W at unit drive; its band-limited intensity is integrated
    # exactly by Fejer's rule, where the cell weights are off by 1.5e-2 (4x8) to 1.5e-4 (36x72)
    g = make_latlon_grid(n_theta, 2 * n_theta)
    w = fejer_weights(g)
    assert w.sum() == pytest.approx(FOUR_PI, rel=1e-15)
    for orientation in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.0, 0.8]):
        values = apply_transmit(hertzian_dipole(orientation, [0.0, 0.0, 0.0], g, FREQ), [1.0]).values
        assert abs(np.sum(np.abs(values) ** 2 * w[:, None]) - 1.0) <= 1e-15


def test_interp_stencil_exact_at_samples_and_partition():
    g = make_latlon_grid(8, 10)
    rng = np.random.default_rng(11)
    for idx in rng.integers(0, g.size, 20):
        st_idx, st_w = g.interp_stencil(float(g.theta[idx]), float(g.phi[idx]))
        live = [(int(i), w) for i, w in zip(st_idx, st_w) if w > 1e-12]
        assert live == [(int(idx), pytest.approx(1.0))]
    # off-sample weights still sum to one and wrap in phi
    _, w = g.interp_stencil(0.9, 2.0 * math.pi - 1e-3)
    assert sum(w) == pytest.approx(1.0, abs=1e-12)
    assert all(w >= 0.0)


def test_interp_theta_clamped_at_poles():
    g = make_latlon_grid(6, 8)
    st_idx, st_w = g.interp_stencil(0.0, 0.1)  # above the first ring center
    idxs = {int(i) for i, w in zip(st_idx, st_w) if w > 0}
    assert idxs <= set(range(g.n_phi))  # only ring 0 contributes


def _probe_angles(g, rng):
    """Random angles plus both polar caps, ring centers, and phi just below 2 pi."""
    cap = math.pi / (2 * g.n_theta)
    theta = np.concatenate(
        [
            rng.uniform(0.0, math.pi, 200),
            rng.uniform(0.0, cap, 20),
            rng.uniform(math.pi - cap, math.pi, 20),
            g.theta[:: g.n_phi],
            [0.0, math.pi],
        ]
    )
    phi = rng.uniform(0.0, 2.0 * math.pi, theta.size)
    phi[::7] = 2.0 * math.pi - rng.uniform(0.0, 1e-9, phi[::7].size)
    return theta, phi


def test_interp_stencil_matches_scipy_bilinear_oracle():
    from scipy.interpolate import RegularGridInterpolator

    for n_theta, n_phi in [(2, 4), (5, 6), (6, 8), (7, 12), (18, 36)]:
        g = make_latlon_grid(n_theta, n_phi)
        rng = np.random.default_rng(n_theta)
        vals = rng.standard_normal(g.size)
        rings, cols = g.theta[:: g.n_phi], g.phi[: g.n_phi]
        table = vals.reshape(n_theta, n_phi)
        # ring centers in theta; phi column 0 repeated at 2 pi closes the wrap
        oracle = RegularGridInterpolator(
            (rings, np.append(cols, 2.0 * math.pi)), np.hstack([table, table[:, :1]])
        )
        theta, phi = _probe_angles(g, rng)
        # the grid samples, phi one ulp below 2 pi at both poles, and negative phi (one past a full turn)
        below = math.nextafter(2.0 * math.pi, 0.0)
        theta = np.concatenate([theta, g.theta, [0.0, math.pi, 0.4, math.pi, 2.0]])
        phi = np.concatenate([phi, g.phi, [below, below, -0.3, -1e-300, -7.0]])
        idx, w = g.interp_stencil(theta, phi)
        want = oracle(np.stack([np.clip(theta, rings[0], rings[-1]), np.mod(phi, 2.0 * math.pi)], axis=-1))
        np.testing.assert_allclose(np.sum(w * vals[idx], axis=-1), want, rtol=0, atol=1e-13)
        # one direction's stencil, in scalar arithmetic, has the bits of its stacked row and the loop's
        for k in range(theta.size):
            ref = loop_stencil(g, float(theta[k]), float(phi[k]))
            for one in (g.interp_stencil(float(theta[k]), float(phi[k])), g.interp_stencil(theta[k], phi[k])):
                assert one[0].shape == one[1].shape == (4,) and one[0].dtype == idx.dtype
                assert one[0].tobytes() == idx[k].tobytes() and one[1].tobytes() == w[k].tobytes()
                assert one[0].tolist() == [i for i, _ in ref]
                assert one[1].tobytes() == np.array([x for _, x in ref]).tobytes()


def test_array_stencil_and_point_lookup_match_the_scalar_loop_bit_for_bit():
    for n_theta, n_phi in [(6, 8), (8, 16), (18, 36)]:
        g = make_latlon_grid(n_theta, n_phi)
        rng = np.random.default_rng(n_phi)
        p = random_pattern(rng, g)
        theta, phi = _probe_angles(g, rng)
        idx, w = g.interp_stencil(theta, phi)
        for k in range(theta.size):
            ref = loop_stencil(g, theta[k], phi[k])
            assert [(int(i), float(x)) for i, x in zip(idx[k], w[k])] == list(ref)
            d = Direction(theta[k], phi[k])
            assert p.at(d).tobytes() == loop_blend(p.values, ref).tobytes()


# ---------------------------------------------------------------------------
# patterns


def test_pattern_validation():
    g = make_latlon_grid(4, 6)
    assert FarFieldPattern(g, np.ones((g.size, 2))).values.dtype == complex
    with pytest.raises(ModelError):
        FarFieldPattern(g, np.zeros((3, 2)))


def test_inner_product_sesquilinear():
    g = make_latlon_grid(5, 6)
    rng = np.random.default_rng(1)
    p, q = random_pattern(rng, g), random_pattern(rng, g)
    c = 0.7 - 1.3j
    assert inner_product(FarFieldPattern(g, c * p.values), q) == pytest.approx(c * inner_product(p, q))
    assert inner_product(p, FarFieldPattern(g, c * q.values)) == pytest.approx(
        np.conj(c) * inner_product(p, q)
    )
    assert inner_product(q, p) == pytest.approx(np.conj(inner_product(p, q)))
    assert total_power(p) >= 0.0


def test_constant_pattern_power():
    g = make_latlon_grid(7, 8)
    p = FarFieldPattern(g, np.full((g.size, 2), 0.5 + 0.5j))
    # |values|^2 = 1 per direction, integrated over 4 pi steradians
    assert total_power(p) == pytest.approx(FOUR_PI, rel=1e-12)


def test_impulse_sifting():
    g = make_latlon_grid(9, 8)
    rng = np.random.default_rng(2)
    q = random_pattern(rng, g)
    idx = 31
    d = g.direction(idx)
    coeff = np.array([1.0 + 0.5j, -0.25j])
    imp = impulse_pattern(g, d, coeff)
    # <imp, q> = coeff . conj(q(d)) exactly: the 1/weight encoding cancels
    assert inner_product(imp, q) == pytest.approx(
        complex(np.sum(coeff * np.conj(q.values[idx])))
    )
    with pytest.raises(ModelError):
        impulse_pattern(g, Direction(0.5 * (g.theta[0] + g.theta[g.n_phi]), 0.1), coeff)


def test_intensity_matches_values():
    g = make_latlon_grid(6, 8)
    rng = np.random.default_rng(4)
    p = random_pattern(rng, g)
    idx = 17
    d = g.direction(idx)
    assert intensity(p, d) == pytest.approx(float(np.sum(np.abs(p.values[idx]) ** 2)))


def test_antipodal_mirror_signs_and_involution():
    g = make_latlon_grid(8, 8)
    rng = np.random.default_rng(5)
    p = random_pattern(rng, g)
    m = antipodal_mirror(p)
    ap = g.antipode
    np.testing.assert_array_equal(m.values[:, 0], -p.values[ap, 0])
    np.testing.assert_array_equal(m.values[:, 1], p.values[ap, 1])
    # mirror of mirror restores the pattern (diag(-1,1)^2 = I, antipode^2 = id)
    np.testing.assert_array_equal(antipodal_mirror(m).values, p.values)
    # and it preserves power exactly
    assert total_power(m) == pytest.approx(total_power(p), rel=1e-14)


def test_pattern_csv_layout():
    g = make_latlon_grid(2, 2)
    p = zero_pattern(g)
    p.values[0] = [1.0, 2.0j]
    lines = _pattern_csv(p).strip().split("\n")
    assert lines[0] == "theta_deg,phi_deg,re_a_theta,im_a_theta,re_a_phi,im_a_phi,intensity_W_per_sr"
    assert len(lines) == 1 + g.size
    first = lines[1].split(",")
    assert float(first[2]) == 1.0 and float(first[5]) == 2.0
    assert float(first[6]) == pytest.approx(5.0)


# Scales that stress the text and the intensity column: exact and signed
# zeros, the smallest subnormal, and values whose squares underflow or overflow.
EXTREME_SCALES = (1.0, 0.0, -0.0, 5e-324, 1e-300, 1e-160, 1e160, 1e300)


@pytest.mark.parametrize("seed", range(6))
def test_pattern_csv_matches_per_row_reference(seed):
    rng = np.random.default_rng(seed)
    p = random_pattern(rng, make_latlon_grid(6, 12))
    p.values.real *= rng.choice(EXTREME_SCALES, p.values.shape)
    p.values.imag *= rng.choice(EXTREME_SCALES, p.values.shape)
    p.values[:3] = 0.0
    assert _pattern_csv(p) == loop_pattern_to_csv(p)
