"""Every array a caller hands the library goes through _textio.complex_array.

A non-numeric, absent, non-finite or mis-shaped array ends as a ModelError
that names the field, never as a raw NumPy or Python exception. Scalar fields
go through _textio.number, which is held here to its overflow rules.
"""

import math

import numpy as np
import pytest

from remskit import (
    BeamformProblem,
    Direction,
    ModelError,
    PlaneWaveResponseSet,
    RadiatingStructure,
    RFFrontend,
    TuningNetwork,
    dipole_array,
    hertzian_dipole,
    inline_tuning,
    make_latlon_grid,
    rems_gain,
    solve_direct,
)
from remskit._textio import complex_array, number

from conftest import FREQ, random_model

GRID = make_latlon_grid(3, 4)
MODEL = random_model(np.random.default_rng(7), GRID, n_tx=2, n_rx=1, m=2)
DIRS = (Direction(1.0, 0.0),)
X_AXIS = (1.0, 0.0, 0.0)


def _structure(**field):
    n = GRID.size
    kernel = np.ones((1, n, 2), dtype=complex)
    fields = {"coupling": np.zeros((1, 1)), "tx_kernel": kernel, "rx_kernel": kernel, "scatter_kernel": None, **field}
    return RadiatingStructure(m_ports=1, grid=GRID, frequency=FREQ, **fields)


def _responses(**field):
    n = GRID.size
    fields = {"port_waves": np.ones((n, 2, 1)), "scattered": None, **field}
    return PlaneWaveResponseSet(FREQ, GRID, **fields)


# (field named in the error, builder taking the value, a valid value, whether None means a default)
ENTRY_POINTS = {
    "frontend z_tx": ("z_tx", lambda v: RFFrontend(z_tx=v, z_rx=[50.0]), [50.0, 75.0], False),
    "frontend z_rx": ("z_rx", lambda v: RFFrontend(z_tx=[50.0], z_rx=v), [50.0], False),
    "tuning matrix": ("tuning matrix", lambda v: TuningNetwork(1, 1, v), np.eye(2)[::-1], False),
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


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_malformed_array_is_a_model_error_naming_the_field(entry, bad):
    field, build, valid, none_is_default = ENTRY_POINTS[entry]
    build(valid)  # the valid value passes
    if bad == "None" and none_is_default:
        pytest.skip(f"None selects the default {field}")
    with pytest.raises(ModelError) as err:
        build(BAD_VALUES[bad](valid))
    assert str(err.value).startswith(f"{field} ")


@pytest.mark.parametrize("position, frequency", [((math.nan, 0.0, 0.0), FREQ), ((0.0, 0.0, 0.0), math.nan)])
def test_dipole_with_a_nan_position_or_frequency_is_refused(position, frequency):
    with pytest.raises(ModelError, match="^tx_kernel must be finite$"):
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
