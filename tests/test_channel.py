"""Far-field channel synthesis between separated structures."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import FREQ, singular_loop_pair
from remskit import ModelError, NumericsError
from remskit.channel import (
    FAR_FIELD_GUIDELINE_WAVELENGTHS,
    cascade_unilateral,
    far_channel,
    propagation_matrix,
)
from remskit.farfield import Direction, direction_from_vector, make_latlon_grid
from remskit.network import checked_inv
from remskit.radiating import (
    dipole_array,
    hertzian_dipole,
    random_reciprocal_structure,
    synthetic_coupling,
    wavenumber,
)

LAM = 2.0 * math.pi / wavenumber(FREQ)


def test_propagation_matrix_closed_form():
    d = 7.3
    k = wavenumber(FREQ)
    c = (2.0 * math.pi / (1j * k)) * np.exp(-1j * k * d) / d
    mat = propagation_matrix(d, FREQ)
    assert mat.shape == (2, 2)
    assert mat[0, 1] == 0.0 and mat[1, 0] == 0.0
    assert mat[0, 0] == c
    assert mat[1, 1] == -c
    # magnitude lambda/d on both polarizations
    assert abs(abs(mat[0, 0]) - LAM / d) < 1e-15


def test_propagation_matrix_rejects_nonpositive_distance():
    with pytest.raises(ModelError, match="positive"):
        propagation_matrix(0.0, FREQ)
    with pytest.raises(ModelError, match="positive"):
        propagation_matrix(-2.0, FREQ)


@pytest.mark.parametrize("distance", [math.nan, math.inf])
def test_propagation_matrix_rejects_non_finite_distance(distance):
    with pytest.raises(ModelError, match="must be positive and finite"):
        propagation_matrix(distance, FREQ)


@pytest.mark.parametrize("displacement", [[math.inf, 1.0, 0.0], [0.0, 0.0, -math.inf], [math.nan, 1.0, 0.0]])
def test_far_channel_rejects_a_non_finite_displacement(displacement):
    g = make_latlon_grid(6, 12)
    s = hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], g, FREQ)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match=r"^displacement must be finite$"):
            far_channel(s, s, displacement)


def test_near_field_separation_warns():
    near = 0.9 * FAR_FIELD_GUIDELINE_WAVELENGTHS * LAM
    with pytest.warns(UserWarning, match="wavelength"):
        propagation_matrix(near, FREQ)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        propagation_matrix(1.1 * FAR_FIELD_GUIDELINE_WAVELENGTHS * LAM, FREQ)


def test_dipole_link_matches_friis_closed_form():
    # Two x-oriented dipoles with broadside line of sight along +y. The
    # direction (90, 90) sits on a 19x36 grid sample, so the kernel lookup
    # is exact and the link reduces to (3/8pi) * lambda e^{-jkd} / (jd).
    grid = make_latlon_grid(19, 36)
    d = 5.0
    tx = hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], grid, FREQ)
    rx = hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], grid, FREQ)
    s = far_channel(tx, rx, [0.0, d, 0.0])
    assert s.shape == (1, 1)
    k = wavenumber(FREQ)
    expected = (3.0 / (8.0 * math.pi)) * LAM * np.exp(-1j * k * d) / (1j * d)
    assert abs(s[0, 0] - expected) / abs(expected) < 1e-12
    assert abs(abs(s[0, 0]) - 3.0 * LAM / (8.0 * math.pi * d)) < 1e-15


def test_cross_polarized_link_vanishes():
    # x dipole to y dipole along +z: orthogonal polarizations on the line
    # of sight, so the link survives only at the rounding floor of the
    # pole-clamped basis trig, sixteen orders under the co-polarized value
    grid = make_latlon_grid(19, 36)
    d = 4.0
    tx = hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], grid, FREQ)
    rx = hertzian_dipole([0.0, 1.0, 0.0], [0.0, 0.0, 0.0], grid, FREQ)
    s = far_channel(tx, rx, [0.0, 0.0, d])
    copol = 3.0 * LAM / (8.0 * math.pi * d)
    assert abs(s[0, 0]) < 1e-15 * copol


def test_far_channel_input_validation():
    grid = make_latlon_grid(10, 12)
    s1 = hertzian_dipole([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], grid, FREQ)
    s2 = hertzian_dipole([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], grid, 2.0 * FREQ)
    with pytest.raises(ModelError, match="different frequencies"):
        far_channel(s1, s2, [0.0, 3.0, 0.0])
    with pytest.raises(ModelError, match="co-located"):
        far_channel(s1, s1, [0.0, 0.0, 0.0])


def test_neumann_series_converges_to_direct_solve():
    rng = np.random.default_rng(7)
    grid = make_latlon_grid(8, 10)
    s1 = random_reciprocal_structure(grid, 3, rng, FREQ)
    s2 = random_reciprocal_structure(grid, 2, rng, FREQ)
    disp = [1.0, 2.0, 0.7]
    direct = far_channel(s1, s2, disp)
    # loop gain ~ (kernel * lambda/d)^2 is tiny here, so few terms suffice:
    # r2^T c sum_{k<8} loop^k t1, summed by hand
    d_fwd = direction_from_vector(disp)
    d_bwd = direction_from_vector([-x for x in disp])
    c = propagation_matrix(float(np.linalg.norm(disp)), FREQ)
    loop = s1.scatter_at(d_fwd, d_fwd) @ c @ s2.scatter_at(d_bwd, d_bwd) @ c
    term = s1.tx_at(d_fwd)
    core = term
    for _ in range(7):
        term = loop @ term
        core = core + term
    series = s2.rx_at(d_bwd).T @ c @ core
    assert np.max(np.abs(series - direct)) / np.max(np.abs(direct)) < 1e-12


def test_ill_conditioned_bounce_loop_raises():
    grid = make_latlon_grid(8, 10)
    disp = [0.0, 3.0, 0.0]
    tx, rx = singular_loop_pair(grid, disp)
    d_fwd = direction_from_vector(disp)
    d_bwd = direction_from_vector([-x for x in disp])
    c = propagation_matrix(3.0, FREQ)
    loop = tx.scatter_at(d_fwd, d_fwd) @ c @ rx.scatter_at(d_bwd, d_bwd) @ c
    assert np.linalg.cond(np.eye(2) - loop) > 1e15
    with pytest.raises(NumericsError, match="bounce loop"):
        far_channel(tx, rx, disp)


def test_a_remainder_on_one_side_forms_no_bounce_loop():
    grid = make_latlon_grid(8, 10)
    disp = [0.0, 3.0, 0.0]
    tx, rx = singular_loop_pair(grid, disp)  # each remainder makes the loop singular against the other
    with pytest.raises(NumericsError, match="bounce loop"):
        far_channel(tx, rx, disp)
    bare_tx, bare_rx = replace(tx, scatter_kernel=None), replace(rx, scatter_kernel=None)
    want = far_channel(bare_tx, bare_rx, disp)
    assert far_channel(tx, bare_rx, disp).tobytes() == want.tobytes()
    assert far_channel(bare_tx, rx, disp).tobytes() == want.tobytes()


def test_reciprocal_structures_give_reciprocal_channel():
    rng = np.random.default_rng(21)
    grid = make_latlon_grid(9, 12)
    for _ in range(5):
        s1 = random_reciprocal_structure(grid, 3, rng, FREQ)
        s2 = random_reciprocal_structure(grid, 4, rng, FREQ)
        disp = rng.uniform(-1.0, 1.0, size=3) * 3.0 + np.array([0.0, 4.0, 0.0])
        fwd = far_channel(s1, s2, disp)
        bwd = far_channel(s2, s1, -disp)
        assert fwd.shape == (4, 3) and bwd.shape == (3, 4)
        dev = np.max(np.abs(fwd - bwd.T)) / np.max(np.abs(fwd))
        assert dev < 1e-12


def test_cascade_matches_hand_composition():
    rng = np.random.default_rng(3)
    grid = make_latlon_grid(9, 12)
    tx = random_reciprocal_structure(grid, 2, rng, FREQ)
    mid = random_reciprocal_structure(grid, 1, rng, FREQ)
    rx = random_reciprocal_structure(grid, 3, rng, FREQ)
    d1 = np.array([3.0, 1.0, 0.5])
    d2 = np.array([-1.0, 4.0, 0.2])

    got = cascade_unilateral([tx, mid, rx], [d1, d2])

    c1 = propagation_matrix(float(np.linalg.norm(d1)), FREQ)
    c2 = propagation_matrix(float(np.linalg.norm(d2)), FREQ)
    arrive1 = direction_from_vector(-d1)
    depart2 = direction_from_vector(d2)
    hand = (
        rx.rx_at(direction_from_vector(-d2)).T
        @ c2
        @ mid.scatter_at(depart2, arrive1)
        @ c1
        @ tx.tx_at(direction_from_vector(d1))
    )
    assert got.shape == (3, 2)
    assert np.max(np.abs(got - hand)) < 1e-14 * np.max(np.abs(hand))


def test_two_stage_cascade_is_the_bounce_free_channel():
    rng = np.random.default_rng(11)
    grid = make_latlon_grid(9, 12)
    s1 = random_reciprocal_structure(grid, 2, rng, FREQ)
    s2 = random_reciprocal_structure(grid, 2, rng, FREQ)
    disp = [0.5, 3.0, -1.0]
    got = cascade_unilateral([s1, s2], [disp])
    d_fwd = direction_from_vector(disp)
    d_bwd = direction_from_vector([-x for x in disp])
    c = propagation_matrix(float(np.linalg.norm(disp)), FREQ)
    bare = s2.rx_at(d_bwd).T @ c @ s1.tx_at(d_fwd)
    # same factors, different matmul grouping, so allow rounding
    assert np.max(np.abs(got - bare)) <= 1e-14 * np.max(np.abs(bare))


def test_straight_cascade_through_a_certified_array_does_not_depend_on_the_grid():
    # the certified array scatters only mirror * P, which a unilateral cascade
    # leaves out, so the straight line through it reads no remainder on any grid
    positions = [[0.0, 0.0, 0.0], [0.0, 0.25 * LAM, 0.0]]
    hop = [0.0, 0.0, 3.0]
    channels = []
    for n_theta in (9, 18, 36):
        grid = make_latlon_grid(n_theta, 2 * n_theta)
        mid = dipole_array(
            [([1.0, 0.0, 0.0], p) for p in positions],
            grid,
            FREQ,
            coupling=synthetic_coupling(positions, wavenumber(FREQ), 1.5),
            enforce_passivity=True,
        )
        assert mid.mirror < 1.0
        dipole = hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], grid, FREQ)
        channels.append(cascade_unilateral([dipole, mid, dipole], [hop, hop]))
    assert channels[0].shape == (1, 1)
    assert np.array_equal(channels[0], channels[1]) and np.array_equal(channels[1], channels[2])


def test_cascade_input_validation():
    rng = np.random.default_rng(4)
    grid = make_latlon_grid(8, 10)
    s1 = random_reciprocal_structure(grid, 2, rng, FREQ)
    s2 = random_reciprocal_structure(grid, 2, rng, FREQ)
    off = random_reciprocal_structure(grid, 2, rng, 2.0 * FREQ)
    with pytest.raises(ModelError, match="at least"):
        cascade_unilateral([s1], [])
    with pytest.raises(ModelError, match="displacements"):
        cascade_unilateral([s1, s2], [[0, 3, 0], [0, 3, 0]])
    with pytest.raises(ModelError, match="co-located"):
        cascade_unilateral([s1, s2], [[0.0, 0.0, 0.0]])
    with pytest.raises(ModelError, match="different frequencies"):
        cascade_unilateral([s1, off], [[0.0, 3.0, 0.0]])


# far_channel and cascade_unilateral as they read each displacement by hand
# before every caller's vector went through _textio.real_vector: the
# references the routed forms are held to bit for bit.


def _loop_direction(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    theta = math.acos(max(-1.0, min(1.0, v[2] / n)))
    return Direction.canonical(theta, math.atan2(v[1], v[0]))


def _loop_propagation(distance, frequency):
    k = 2.0 * math.pi * frequency / 299792458.0
    c = (2.0 * math.pi / (1j * k)) * np.exp(-1j * k * distance) / distance
    return np.diag([c, -c])


def _loop_far_channel(tx, rx, displacement):
    disp = np.asarray(displacement, dtype=float)
    c = _loop_propagation(float(np.linalg.norm(disp)), tx.frequency)
    d_fwd, d_bwd = _loop_direction(disp), _loop_direction(-disp)
    t1 = tx.tx_at(d_fwd)
    r2 = rx.rx_at(d_bwd)
    loop = tx.scatter_at(d_fwd, d_fwd) @ c @ rx.scatter_at(d_bwd, d_bwd) @ c
    core = checked_inv(np.eye(2) - loop, "far-field bounce loop") @ t1
    return r2.T @ c @ core


def _loop_cascade(stages, displacements):
    hops = []
    for disp in displacements:
        disp = np.asarray(disp, dtype=float)
        hops.append((_loop_direction(disp), _loop_direction(-disp), float(np.linalg.norm(disp))))
    freq = stages[0].frequency
    d_out, _, d0 = hops[0]
    acc = _loop_propagation(d0, freq) @ stages[0].tx_at(d_out)
    for j in range(1, len(stages) - 1):
        _, arrive, _ = hops[j - 1]
        depart, _, dj = hops[j]
        acc = stages[j].scatter_at(depart, arrive) @ acc
        acc = _loop_propagation(dj, freq) @ acc
    _, arrive_last, _ = hops[-1]
    return stages[-1].rx_at(arrive_last).T @ acc


def _random_displacement(rng):
    """A finite displacement 1 m to 1 km long; one in four lies on a coordinate axis (a pole or a seam)."""
    v = rng.standard_normal(3)
    if rng.random() < 0.25:
        v = np.eye(3)[rng.integers(3)] * rng.choice([-1.0, 1.0])
    return (v / np.linalg.norm(v) * 10.0 ** rng.uniform(0.0, 3.0)).tolist()


def test_far_channel_and_cascade_equal_the_hand_read_forms_bit_for_bit():
    rng = np.random.default_rng(31)
    grid = make_latlon_grid(6, 8)
    pool = [random_reciprocal_structure(grid, m, rng, FREQ) for m in (1, 2, 3, 2)]
    pool.append(hertzian_dipole([0.0, 0.6, 0.8], [0.0, 0.0, 0.0], grid, FREQ))
    for _ in range(200):
        tx, rx = (pool[i] for i in rng.integers(len(pool), size=2))
        disp = _random_displacement(rng)
        assert np.array_equal(far_channel(tx, rx, disp), _loop_far_channel(tx, rx, disp))
        stages = [pool[i] for i in rng.integers(len(pool), size=rng.integers(2, 5))]
        hops = [_random_displacement(rng) for _ in stages[1:]]
        assert np.array_equal(cascade_unilateral(stages, hops), _loop_cascade(stages, hops))
