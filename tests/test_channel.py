"""Far-field channel synthesis between separated structures."""

import math
import warnings

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
from remskit.farfield import direction_from_vector, make_latlon_grid
from remskit.radiating import (
    hertzian_dipole,
    random_reciprocal_structure,
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
