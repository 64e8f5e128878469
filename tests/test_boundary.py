"""Every input a caller hands the library is read by _textio: arrays through
complex_array or real_array, geometric vectors through real_vector, scalars
through number, all but number converting through as_array.

A non-numeric, absent, non-finite or mis-shaped array or scalar ends as a
ModelError that names the field, never as a raw NumPy or Python exception;
so does a vector whose length overflows the float range, with no
RuntimeWarning on the way (pyproject.toml makes one an error), anything but
one Direction handed to a single-direction reader, and anything but a list
of Directions where directions are read. number is held here to its overflow
rules. The package's own results are only converted (apply_transmit,
FarFieldPattern), so an overflow in them stays a NumericsError. Every port
count and grid array is read from the array that carries it: no constructor
restates one, and a malformed carrier is a ModelError that names it.
"""

import math
import re

import numpy as np
import pytest

from remskit import (
    BeamformProblem,
    Direction,
    DirectionGrid,
    FarFieldPattern,
    ModelError,
    PlaneWaveResponseSet,
    RadiatingStructure,
    ReconfigurableBuilder,
    RFFrontend,
    Scene,
    TouchstoneData,
    TuningNetwork,
    apply_transmit,
    cascade_unilateral,
    check_reciprocity,
    dipole_array,
    direction_from_vector,
    directivity,
    far_channel,
    feedthrough_reflector_fixed,
    gain_operators,
    geometric_schedule,
    h_co,
    hertzian_dipole,
    inline_tuning,
    intensity,
    isotropic_radiator,
    make_latlon_grid,
    parse_touchstone,
    propagation_matrix,
    quasi_powers,
    reduce_terminated_ports,
    reflection_coefficient,
    rems_gain,
    rotate_structure,
    solve_direct,
    synthetic_coupling,
    wavenumber,
)
from remskit._textio import complex_array, number, real_vector
from remskit.scene import rotation_matrix

from conftest import FREQ, random_model

GRID = make_latlon_grid(3, 4)
MODEL = random_model(np.random.default_rng(7), GRID, n_tx=2, n_rx=1, m=2)
DIRS = (Direction(1.0, 0.0),)
X_AXIS = (1.0, 0.0, 0.0)
PROBLEM = BeamformProblem(r=0, z_set=(50.0,), primary_dirs=DIRS)
COLUMNS = np.zeros((1, 1, 2))  # the raw pairs of one 1-port Touchstone record
PATTERN = apply_transmit(hertzian_dipole(X_AXIS, (0.0, 0.0, 0.0), GRID, FREQ), [1.0])


def _structure(**field):
    n = GRID.size
    kernel = np.ones((1, n, 2), dtype=complex)
    fields = {"coupling": np.zeros((1, 1)), "tx_kernel": kernel, "rx_kernel": kernel, "scatter_kernel": None, **field}
    return RadiatingStructure(grid=GRID, frequency=FREQ, **fields)


def _responses(**field):
    n = GRID.size
    fields = {"port_waves": np.ones((n, 2, 1)), "scattered": None, **field}
    return PlaneWaveResponseSet(FREQ, GRID, **fields)


# (field named in the error, builder taking the value, a valid value, whether None means a default)
ENTRY_POINTS = {
    "frontend z_tx": ("z_tx", lambda v: RFFrontend(z_tx=v, z_rx=[50.0]), [50.0, 75.0], False),
    "frontend z_rx": ("z_rx", lambda v: RFFrontend(z_tx=[50.0], z_rx=v), [50.0], False),
    "tuning matrix": ("tuning matrix", lambda v: TuningNetwork(1, v), np.eye(2)[::-1], False),
    "inline gains": ("tuning gains", inline_tuning, [1.0, 0.5j], False),
    "coupling": ("coupling", lambda v: _structure(coupling=v), np.zeros((1, 1)), False),
    "tx_kernel": ("tx_kernel", lambda v: _structure(tx_kernel=v), np.ones((1, GRID.size, 2)), False),
    "rx_kernel": ("rx_kernel", lambda v: _structure(rx_kernel=v), np.ones((1, GRID.size, 2)), False),
    "scatter_kernel": (
        "scatter_kernel",
        lambda v: _structure(scatter_kernel=v),
        np.zeros((GRID.size, 2, GRID.size, 2)),
        True,
    ),
    "dipole coupling": (
        "coupling",
        lambda v: dipole_array([(X_AXIS, (0.0, 0.0, 0.0))], GRID, FREQ, coupling=v),
        [[0.1]],
        True,
    ),
    "port_waves": ("port_waves", lambda v: _responses(port_waves=v), np.ones((GRID.size, 2, 1)), False),
    "scattered": ("scattered", lambda v: _responses(scattered=v), np.zeros((GRID.size, 2, GRID.size, 2)), True),
    "solve v_tx": ("v_tx", lambda v: solve_direct(MODEL, v_tx=v), [1.0, 0.0], True),
    "solve v_gamma": ("v_gamma", lambda v: solve_direct(MODEL, v_gamma=v), [1.0], True),
    "solve i_gamma": ("i_gamma", lambda v: solve_direct(MODEL, i_gamma=v), [1.0], True),
    "solve v_upsilon": ("v_upsilon", lambda v: solve_direct(MODEL, v_upsilon=v), [1.0, 0.0], True),
    "gain v_tx": ("v_tx", lambda v: rems_gain(MODEL, v, DIRS[0]), [1.0, 0.0], True),
    "z_set": ("load impedances", lambda v: BeamformProblem(r=1, z_set=v, primary_dirs=DIRS), (50.0, 10j), False),
    "z_init": (
        "z_init",
        lambda v: BeamformProblem(r=1, z_set=(50.0,), primary_dirs=DIRS, z_init=v),
        50.0,
        True,
    ),
    "available_power v_tx": ("v_tx", RFFrontend([50.0], []).available_power, [1.0], False),
    "reflection impedances": ("impedances", lambda v: reflection_coefficient(v, 50.0), [50.0, 10j], False),
    "reduction s": ("scattering matrix", lambda v: reduce_terminated_ports(v, 1, [0.5]), np.eye(2) / 2, False),
    "reduction gamma": ("reflections", lambda v: reduce_terminated_ports(np.eye(2) / 2, 1, v), [0.5], False),
    "reduction n_keep": ("kept port count", lambda v: reduce_terminated_ports(np.eye(2) / 2, v, [0.5]), 1, False),
    "quasi_powers t": ("precoder t", lambda v: quasi_powers(MODEL, v, PROBLEM), [[1.0], [0.0]], False),
    "grid weights": ("grid weights", lambda v: DirectionGrid(3, 4, v), GRID.weights, False),
    "touchstone frequencies": (
        "frequencies",
        lambda v: TouchstoneData("ghz", "ri", 50.0, v, COLUMNS),
        [1.0],
        False,
    ),
    "touchstone n_ports": ("n_ports", lambda v: parse_touchstone("1.0 0.5 0.0\n", n_ports=v), 1, True),
    "touchstone reference": (
        "reference resistance",
        lambda v: TouchstoneData("ghz", "ri", v, [1.0], COLUMNS),
        50.0,
        False,
    ),
    "frontend r0": ("reference resistance", lambda v: RFFrontend([50.0], [], v), 50.0, False),
    "fixed network": (
        "fixed network",
        lambda v: ReconfigurableBuilder(MODEL.structure, MODEL.frontend, v),
        np.zeros((5, 5)),
        False,
    ),
    # scalar fields, read through number
    "wavenumber frequency": ("frequency", wavenumber, FREQ, False),
    "isotropic frequency": ("frequency", lambda v: isotropic_radiator(GRID, v), FREQ, False),
    "direction theta": ("direction theta", lambda v: Direction(v, 0.0), 1.0, False),
    "direction phi": ("direction phi", lambda v: Direction(1.0, v), 0.0, False),
    "canonical phi": ("direction phi", lambda v: Direction.canonical(0.5, v), 7.0, False),
    "from_degrees theta": ("direction theta_deg", lambda v: Direction.from_degrees(v, 0.0), 30.0, False),
    "tuning n_frontend": ("tuning network n_frontend", lambda v: TuningNetwork(v, np.eye(2)), 1, False),
    "feedthrough n": ("feedthrough-reflector n", lambda v: feedthrough_reflector_fixed(v, 3), 1, False),
    "mirror": ("mirror", lambda v: _structure(mirror=v), 0.5, False),
    "coupling k": ("coupling wavenumber k", lambda v: synthetic_coupling([ORIGIN, FAR], v, 1.0), 1.0, False),
    "coupling gamma": ("coupling gamma", lambda v: synthetic_coupling([ORIGIN, FAR], 1.0, v), 1.0, False),
    "reciprocity tol": ("reciprocity tol", lambda v: check_reciprocity(DIPOLE, v), 1e-12, False),
    "propagation distance": ("propagation distance", lambda v: propagation_matrix(v, FREQ), 30.0, False),
    "schedule initial": ("schedule initial", geometric_schedule, 20.0, False),
    "schedule ratio": ("schedule ratio", lambda v: geometric_schedule(20.0, v), 0.5, False),
    "schedule count": ("schedule count", lambda v: geometric_schedule(20.0, 0.5, v), 10, False),
    # directions, read as a list of Directions
    "h_co dirs": ("h_co dirs", lambda v: h_co(MODEL, v), DIRS, False),
    "tx_at directions": ("directions", lambda v: MODEL.structure.tx_at(v), DIRS, False),
    "rx_at directions": ("directions", lambda v: MODEL.structure.rx_at(v), DIRS, False),
    "gain matrix directions": ("directions", lambda v: gain_operators(MODEL).vtx_gain_matrix(v), DIRS, False),
    # the single-direction readers: a sequence of directions is refused like any other non-Direction
    "gain direction": ("direction", lambda v: rems_gain(MODEL, [1.0, 0.0], v), DIRS[0], False),
    "pattern at": ("direction", PATTERN.at, DIRS[0], False),
    "intensity direction": ("direction", lambda v: intensity(PATTERN, v), DIRS[0], False),
    "directivity direction": ("direction", lambda v: directivity(PATTERN, v), DIRS[0], False),
}


def _with_first_entry(valid, entry):
    """The valid value with its first entry replaced by entry, as nested lists (or a scalar)."""
    x = np.array(valid, dtype=object)
    x.flat[0] = entry
    return x.tolist()


BAD_VALUES = {
    "a word": lambda valid: "x",
    "a word entry": lambda valid: _with_first_entry(valid, "x"),
    "None": lambda valid: None,
    "an object": lambda valid: object(),
    "a NaN entry": lambda valid: _with_first_entry(valid, math.nan),
    "an inf entry": lambda valid: _with_first_entry(valid, complex(0.0, math.inf)),
}


# None is a malformed value only where it does not select a default
@pytest.mark.parametrize(
    "entry, bad",
    [(e, b) for e in ENTRY_POINTS for b in BAD_VALUES if not (b == "None" and ENTRY_POINTS[e][3])],
)
def test_malformed_array_is_a_model_error_naming_the_field(entry, bad):
    field, build, valid, _ = ENTRY_POINTS[entry]
    build(valid)  # the valid value passes
    with pytest.raises(ModelError) as err:
        build(BAD_VALUES[bad](valid))
    assert str(err.value).startswith(f"{field} ")


@pytest.mark.parametrize("entry", ["gain direction", "pattern at", "intensity direction", "directivity direction"])
def test_single_direction_readers_refuse_a_sequence_of_directions(entry):
    read, d = ENTRY_POINTS[entry][1], Direction(0.3, 0.2)
    read(d)
    with pytest.raises(ModelError, match=r"^direction must be one Direction, got \[Direction\("):
        read([d, d])  # rems_gain summed the two directions' intensities


@pytest.mark.parametrize("entry", ["tx_at directions", "rx_at directions", "gain matrix directions"])
@pytest.mark.parametrize("angles", [[1.0], (0.1, 0.2), []])
def test_the_port_readers_refuse_angles_and_an_empty_list(entry, angles):
    with pytest.raises(ModelError) as err:
        ENTRY_POINTS[entry][1](angles)
    assert str(err.value) == f"directions must be a non-empty list of Directions, got {angles!r}"


def _problem_scene(n_elements):
    return Scene.from_dict({
        "frequency_hz": FREQ,
        "grid": {"n_theta": 3, "n_phi": 4},
        "structures": [{"name": "arr", "kind": "dipole_array",
                        "elements": [{"orientation": list(X_AXIS), "position_m": [0.03 * i, 0.0, 0.0]}
                                     for i in range(n_elements)]}],
        "frontends": [{"name": "fe", "z_tx_ohms": [50.0, 50.0]}],
        "problem": {"structure": "arr", "frontend": "fe", "z_set": {"values": [50.0]},
                    "primary_deg": [[30.0, 0.0], [60.0, 0.0]]},
    })


# each value read from the array that carries it, and the message its malformed carrier gives
MALFORMED_CARRIERS = {
    "1-D coupling": (lambda: _structure(coupling=np.zeros(1)), "coupling shape (1,) is not square"),
    "non-square coupling": (lambda: _structure(coupling=np.zeros((1, 2))), "coupling shape (1, 2) is not square"),
    "tx_kernel port count": (
        lambda: _structure(tx_kernel=np.ones((2, GRID.size, 2))),
        f"tx_kernel shape (2, {GRID.size}, 2) != (1, {GRID.size}, 2)",
    ),
    "rx_kernel port count": (
        lambda: _structure(coupling=np.zeros((2, 2)), tx_kernel=np.ones((2, GRID.size, 2))),
        f"rx_kernel shape (1, {GRID.size}, 2) != (2, {GRID.size}, 2)",
    ),
    "non-square tuning s": (lambda: TuningNetwork(1, np.zeros((2, 3))), "tuning matrix shape (2, 3) is not square"),
    "1-D tuning s": (lambda: TuningNetwork(0, np.zeros(4)), "tuning matrix shape (4,) is not square"),
    "n_frontend below 0": (lambda: TuningNetwork(-1, np.eye(2)), "tuning network n_frontend -1 outside [0, 2]"),
    "n_frontend above dim": (lambda: TuningNetwork(3, np.eye(2)), "tuning network n_frontend 3 outside [0, 2]"),
    "touchstone non-square count": (
        lambda: TouchstoneData("ghz", "ri", 50.0, [1.0], np.zeros((1, 3, 2))),
        "columns shape (1, 3, 2) != (1, n*n, 2) for a port count n >= 1",
    ),
    "touchstone no entries": (
        lambda: TouchstoneData("ghz", "ri", 50.0, [1.0], np.zeros((1, 0, 2))),
        "columns shape (1, 0, 2) != (1, n*n, 2) for a port count n >= 1",
    ),
    "touchstone scalar frequency": (
        lambda: TouchstoneData("ghz", "ri", 50.0, 1.0, np.zeros((1, 1, 2))),
        "frequencies shape () is not 1-D",
    ),
    "grid non-integral n_theta": (lambda: DirectionGrid(3.5, 4, np.ones(14)), "grid n_theta must be an integer, got 3.5"),
    "grid word n_phi": (lambda: DirectionGrid(3, "x", np.ones(12)), "grid n_phi must be a number, got 'x'"),
    "latlon grid non-integral n_theta": (lambda: make_latlon_grid(4.5, 8), "grid n_theta must be an integer, got 4.5"),
    "latlon grid boolean n_phi": (lambda: make_latlon_grid(4, True), "grid n_phi must be a number, got True"),
    "grid odd n_phi": (
        lambda: DirectionGrid(3, 5, np.ones(15)),
        "n_phi = 5 is odd; antipodal closure requires even n_phi",
    ),
    "grid n_theta below 2": (lambda: DirectionGrid(1, 4, np.ones(4)), "grid resolution (1, 4) below minimum (2, 2)"),
    "grid weights shape": (lambda: DirectionGrid(3, 4, np.ones(7)), "grid weights shape (7,) != (12,)"),
    "grid weights words": (lambda: DirectionGrid(3, 4, ["x"] * 12), "grid weights must be real numbers, got ['x'"),
    "grid negative weights": (lambda: DirectionGrid(3, 4, -GRID.weights), "grid weights must be positive"),
    "touchstone word columns": (
        lambda: TouchstoneData("ghz", "ri", 50.0, [1.0], [[["x", 0.0]]]),
        "columns must be real numbers, got [[['x', 0.0]]]",
    ),
    "touchstone unit not a string": (
        lambda: TouchstoneData(5, "ri", 50.0, [1.0], COLUMNS),
        "unknown frequency unit 5",
    ),
    "touchstone format not a string": (
        lambda: TouchstoneData("ghz", None, 50.0, [1.0], COLUMNS),
        "unknown format None",
    ),
    # the package's own results are converted only, so that an overflow in them stays a NumericsError
    "pattern values words": (lambda: FarFieldPattern(GRID, "x"), "pattern values must be complex numbers, got 'x'"),
    "pattern values shape": (
        lambda: FarFieldPattern(GRID, np.zeros((3, 2))),
        f"pattern values shape (3, 2) != ({GRID.size}, 2)",
    ),
    "port vector words": (lambda: apply_transmit(DIPOLE, ["x"]), "port vector must be complex numbers, got ['x']"),
    "port vector shape": (lambda: apply_transmit(DIPOLE, [1.0, 0.0]), "port vector shape (2,) != (1,)"),
    "scalar scattering matrix": (
        lambda: reduce_terminated_ports(0.5, 0, []),
        "scattering matrix must be square, got ()",
    ),
    "fixed network not square": (
        lambda: ReconfigurableBuilder(MODEL.structure, MODEL.frontend, np.zeros((5, 6))),
        "fixed network shape (5, 6) is not square",
    ),
    "fixed network too few ports": (
        lambda: ReconfigurableBuilder(MODEL.structure, MODEL.frontend, np.eye(4)),
        "fixed network has 4 ports, fewer than the N + M = 5 of frontend and structure",
    ),
    "canonical infinite phi": (lambda: Direction.canonical(0.0, math.inf), "direction phi must be finite, got inf"),
    "non-integral n_frontend": (
        lambda: TuningNetwork(1.5, np.eye(2)),
        "tuning network n_frontend must be an integer, got 1.5",
    ),
    "boolean n_frontend": (
        lambda: TuningNetwork(True, np.eye(2)),
        "tuning network n_frontend must be a number, got True",
    ),
    "feedthrough non-integral n": (
        lambda: feedthrough_reflector_fixed(1.5, 3),
        "feedthrough-reflector n must be an integer, got 1.5",
    ),
    "coupling zero k": (
        lambda: synthetic_coupling([ORIGIN, FAR], 0.0, 1.0),
        "coupling wavenumber k must be positive, got 0.0",
    ),
    "isotropic pol list": (lambda: isotropic_radiator(GRID, FREQ, pol=[1]), "unknown polarization [1]"),
    "h_co no dirs": (lambda: h_co(MODEL, []), "h_co dirs must be a non-empty list of Directions, got []"),
    "feedthrough m < n": (
        lambda: feedthrough_reflector_fixed(2, 1),
        "feedthrough-reflector layout needs m >= n, got m = 1 < n = 2",
    ),
    "scene problem ports": (
        lambda: _problem_scene(1).beamform_problem(),
        "problem: structure 'arr' has 1 ports, fewer than the 2 of frontend 'fe'",
    ),
}


@pytest.mark.parametrize("carrier", MALFORMED_CARRIERS)
def test_a_malformed_carrier_is_a_model_error_naming_it(carrier):
    build, message = MALFORMED_CARRIERS[carrier]
    with pytest.raises(ModelError) as err:
        build()
    assert str(err.value).startswith(message)


def test_the_carriers_give_their_counts():
    kernel = np.ones((2, GRID.size, 2))
    assert _structure(coupling=np.zeros((2, 2)), tx_kernel=kernel, rx_kernel=kernel).m_ports == 2
    assert TouchstoneData("ghz", "ri", 50.0, [1.0, 2.0], np.zeros((2, 9, 2))).n_ports == 3
    for grid in (DirectionGrid(3, 4, GRID.weights), DirectionGrid(3.0, 4.0, GRID.weights), make_latlon_grid(3.0, 4)):
        assert (grid.n_theta, grid.n_phi) == (3, 4) and type(grid.size) is int  # integral counts read as ints
        for name in ("theta", "phi", "weights", "antipode"):
            assert getattr(grid, name).tobytes() == getattr(GRID, name).tobytes()
    problem, _ = _problem_scene(5).beamform_problem()
    assert problem.r == 3  # the structure's ports beyond the frontend's


# none of the restated counts and grid arrays can be passed any more
RESTATED = {
    "RadiatingStructure m_ports": lambda: _structure(m_ports=1),
    "TuningNetwork m_radiating": lambda: TuningNetwork(1, 1, np.eye(2)),
    "TouchstoneData n_ports": lambda: TouchstoneData(1, "ghz", "ri", 50.0, [1.0], np.zeros((1, 1, 2))),
    "DirectionGrid theta": lambda: DirectionGrid(3, 4, GRID.weights, theta=GRID.theta),
    "DirectionGrid phi": lambda: DirectionGrid(3, 4, GRID.weights, phi=GRID.phi),
    "DirectionGrid antipode": lambda: DirectionGrid(3, 4, GRID.weights, antipode=GRID.antipode),
    "DirectionGrid positional": lambda: DirectionGrid(3, 4, GRID.theta, GRID.phi, GRID.weights, GRID.antipode),
    "feedthrough r": lambda: feedthrough_reflector_fixed(1, 2, 1),
}


@pytest.mark.parametrize("call", RESTATED)
def test_a_restated_count_is_a_type_error(call):
    with pytest.raises(TypeError):
        RESTATED[call]()


ORIGIN = (0.0, 0.0, 0.0)
DIPOLE = hertzian_dipole(X_AXIS, ORIGIN, GRID, FREQ)
FAR = (0.0, 30.0, 0.0)  # beyond ten wavelengths, so no near-field warning


def _channel_scene(rx_position, tx_position=(0.0, 0.0, 0.0)):
    return Scene.from_dict({
        "frequency_hz": FREQ,
        "grid": {"n_theta": 3, "n_phi": 4},
        "structures": [
            {"name": "tx", "kind": "dipole", "orientation": list(X_AXIS), "position_m": list(tx_position)},
            {"name": "rx", "kind": "dipole", "orientation": list(X_AXIS), "position_m": rx_position},
        ],
        "channel": {"pair": ["tx", "rx"]},
    })


# the eight sites that read a caller's 3-vector, each reached through its public caller:
# (field named in the error, builder taking the vector, a valid vector)
GEOMETRY = {
    "direction_from_vector": ("direction vector", direction_from_vector, X_AXIS),
    "far_channel": ("displacement", lambda v: far_channel(DIPOLE, DIPOLE, v), FAR),
    "cascade_unilateral": ("displacements[1]", lambda v: cascade_unilateral([DIPOLE] * 3, [FAR, v]), FAR),
    "rotation_matrix": ("rotation axis", lambda v: rotation_matrix(v, 30.0), X_AXIS),
    # the scene reads each position through real_vector, so the pair's displacement never overflows
    "channel_task": ("structure 'rx' position_m", lambda v: _channel_scene(v).channel_task(), FAR),
    "synthetic_coupling": ("element positions", lambda v: synthetic_coupling([ORIGIN, v], 1.0, 1.0), FAR),
    "dipole orientation": ("dipole orientation", lambda v: dipole_array([(v, ORIGIN)], GRID, FREQ), X_AXIS),
    "dipole position": ("dipole position", lambda v: dipole_array([(X_AXIS, v)], GRID, FREQ), FAR),
}

BAD_VECTORS = {
    **BAD_VALUES,
    "a wrong length": lambda valid: list(valid[:2]),
    "an overflowing length": lambda valid: [1e308, 1e308, 0.0],
}


@pytest.mark.parametrize("bad", BAD_VECTORS)
@pytest.mark.parametrize("site", GEOMETRY)
def test_malformed_vector_is_a_model_error_naming_the_field(site, bad):
    field, build, valid = GEOMETRY[site]
    build(valid)  # the valid vector passes
    with pytest.raises(ModelError) as err:
        build(BAD_VECTORS[bad](valid))
    assert str(err.value).startswith(f"{field} ")


def test_a_pair_displacement_that_overflows_is_refused():
    scene = _channel_scene([1e154, 0.0, 0.0], (-1e154, 0.0, 0.0))  # each length is within the float range
    with pytest.raises(ModelError, match="^channel pair displacement length overflows the float range$"):
        scene.channel_task()


def test_the_sites_keep_their_own_zero_vector_messages():
    for build, message in (
        (direction_from_vector, "zero vector has no direction"),
        (lambda v: far_channel(DIPOLE, DIPOLE, v), "structures are co-located: displacement is zero"),
        (lambda v: cascade_unilateral([DIPOLE] * 2, [v]), "structures are co-located: displacements[0] is zero"),
        (lambda v: rotation_matrix(v, 30.0), "rotation axis must be nonzero"),
        (lambda v: dipole_array([(v, ORIGIN)], GRID, FREQ), "dipole orientation must be a unit vector"),
    ):
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            build([0.0, 0.0, 0.0])


def test_a_rotation_is_read_as_finite_real_rows():
    for rot, message in (
        ("x", "rotation must be real numbers, got 'x'"),
        (np.full((3, 3), math.nan), "rotation must be finite"),
        (np.eye(2), "rotation shape (2, 2) != (m, 3)"),
        (np.eye(3)[:2], "rotation must be a 3x3 orthogonal matrix"),
    ):
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            rotate_structure(DIPOLE, rot)


@pytest.mark.parametrize("frequency", [0.0, -5.4e9, math.nan, math.inf, 1e308, "x"])
def test_a_structure_frequency_must_be_positive_and_finite(frequency):
    # 1e308 Hz is finite, but its wavenumber overflows
    message = re.escape(f"frequency must be positive and finite, got {frequency!r}")
    kernel = np.ones((1, GRID.size, 2))
    with pytest.raises(ModelError, match=message):
        RadiatingStructure(np.zeros((1, 1)), kernel, kernel, None, GRID, frequency)
    with pytest.raises(ModelError, match=message):
        dipole_array([(X_AXIS, ORIGIN)], GRID, frequency, [[0.1]], enforce_passivity=True)
    with pytest.raises(ModelError, match=message):
        PlaneWaveResponseSet(frequency, GRID, np.ones((GRID.size, 2, 1)))


def test_a_nan_position_is_refused_before_the_passivity_certificate():
    with pytest.raises(ModelError, match="^dipole position must be finite$"):
        dipole_array([(X_AXIS, (math.nan, 0.0, 0.0))], GRID, FREQ, [[0.1]], enforce_passivity=True)


@pytest.mark.parametrize("distance", [1e308, 1e307])
def test_a_distance_whose_phase_overflows_is_refused(distance):
    message = f"propagation distance must be positive and finite, got {distance!r}, k*d inf"
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        propagation_matrix(distance, FREQ)


def test_real_vector_messages():
    x = np.array([3.0, 4.0, 12.0])
    v, length = real_vector(x, "v")
    assert v is x and length == 13.0 and type(length) is float  # a float array is taken as it is
    stack, lengths = real_vector([[3, 4, 0], [0, 0, 2]], "v", stacked=True)
    assert stack.shape == (2, 3) and lengths.tolist() == [5.0, 2.0]
    assert real_vector([], "v", stacked=True)[0].shape == (0, 3)
    # numeric text and booleans are read as NumPy reads them
    assert real_vector(["1.5", True, 2**60 + 1], "v")[0].tolist() == [1.5, 1.0, float(2**60 + 1)]
    for value, stacked, message in (
        ("x", False, "v must be real numbers, got 'x'"),
        ([1, 2j, 3], False, "v must be real numbers, got [1, 2j, 3]"),
        (np.array([1, 2j, 3]), False, "v must be real numbers, got array([1.+0.j, 0.+2.j, 3.+0.j])"),
        ([10**400, 2, 3], False, f"v must be real numbers, got [{10**400}, 2, 3]"),
        ([[1, 2, 3], [4]], True, "v must be real numbers, got [[1, 2, 3], [4]]"),
        ([1, 2], False, "v shape (2,) != (3,)"),
        ([1, 2, 3], True, "v shape (3,) != (m, 3)"),
        ([[1, 2, 3]], False, "v shape (1, 3) != (3,)"),
        ([1, math.nan, 3], False, "v must be finite"),
        ([None, 2, 3], False, "v must be finite"),  # NumPy reads None as NaN
        (np.array([[1, 2, 3], [-math.inf, 0, 0]]), True, "v must be finite"),
        ([[1, 2, 3], [1e200, 0, 0]], True, "v length overflows the float range"),
    ):
        with pytest.raises(ModelError) as err:
            real_vector(value, "v", stacked)
        assert str(err.value) == message


def test_real_vector_length_has_the_bits_of_np_linalg_norm():
    rng = np.random.default_rng(31)
    vectors = rng.standard_normal((2000, 3)) * 10.0 ** rng.uniform(-150, 150, (2000, 1))
    lengths = real_vector(vectors, "v", stacked=True)[1]
    assert [real_vector(v, "v")[1] for v in vectors] == lengths.tolist()
    assert lengths.tolist() == [float(np.linalg.norm(v)) for v in vectors]


@pytest.mark.parametrize("position, frequency", [((math.nan, 0.0, 0.0), FREQ), ((0.0, 0.0, 0.0), math.nan)])
def test_dipole_with_a_nan_position_or_frequency_is_refused(position, frequency):
    message = "frequency must be positive and finite, got nan" if math.isnan(frequency) else "dipole position must be finite"
    with pytest.raises(ModelError, match=f"^{message}$"):
        hertzian_dipole(X_AXIS, position, GRID, frequency)


def test_complex_array_messages():
    x = np.ones(2, dtype=complex)
    assert complex_array(x, "v") is x  # a complex array is taken as it is
    assert complex_array([1, "2+1j"], "v", (2,)).tolist() == [1, 2 + 1j]
    for value, message in (
        ("x", "v must be complex numbers, got 'x'"),
        ([[1, 2], [3]], "v must be complex numbers, got [[1, 2], [3]]"),
        ([10**400], "v must be complex numbers, got [" + str(10**400) + "]"),
        ([1, 2, 3], "v shape (3,) != (2,)"),
        ([1, math.inf], "v must be finite"),
    ):
        with pytest.raises(ModelError) as err:
            complex_array(value, "v", (2,))
        assert str(err.value) == message


def test_number_reads_a_huge_integer_exactly_and_refuses_it_as_a_float():
    huge = 10**400
    assert number(huge, "seed", int, 0) == huge
    assert number(np.int64(7), "seed", int) == 7
    with pytest.raises(ModelError) as err:
        number(huge, "frequency")
    assert str(err.value) == f"frequency must be finite, got {huge!r}"
    with pytest.raises(ModelError, match="^seed must be at most 5, got"):
        number(huge, "seed", int, 0, 5)
