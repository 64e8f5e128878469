"""Scene-file parsing and model assembly."""

import math
import os
import re
import tracemalloc

import numpy as np
import pytest
import yaml
from scipy.spatial.transform import Rotation

from conftest import FREQ, port_wave_responses
import remskit.scene as scene_mod
from remskit import ModelError
from remskit.farfield import make_latlon_grid
from remskit.network import TouchstoneData, through_tuning, write_touchstone
from remskit.radiating import (
    dipole_array,
    hertzian_dipole,
    synthetic_coupling,
    wavenumber,
    write_response_file,
)
from remskit.scene import (
    _C_LOADER_MAX_OPENERS,
    Scene,
    _yaml_loader,
    parse_complex,
    parse_complex_list,
    parse_direction,
    rotation_matrix,
)


def test_parse_complex_accepts_numbers_and_strings():
    assert parse_complex(3) == 3 + 0j
    assert parse_complex(-2.5) == -2.5 + 0j
    assert parse_complex("1.2-14j") == 1.2 - 14j
    assert parse_complex("1.2 - 14j") == 1.2 - 14j  # spaces stripped
    assert parse_complex("2j") == 2j
    with pytest.raises(ModelError, match="cannot parse"):
        parse_complex("watts")
    with pytest.raises(ModelError, match="cannot parse"):
        parse_complex(None)
    with pytest.raises(ModelError, match="cannot parse"):
        parse_complex({"re": 1.0})
    for bad in (math.inf, math.nan, "nan", "1+infj"):
        with pytest.raises(ModelError, match="not finite"):
            parse_complex(bad)


def test_parse_complex_list():
    got = parse_complex_list(["1+2j", 3, "4j"], "gains")
    assert np.array_equal(got, np.array([1 + 2j, 3 + 0j, 4j]))
    with pytest.raises(ModelError, match="gains: expected a list of complex values"):
        parse_complex_list("1+2j", "gains")
    with pytest.raises(ModelError, match="gains: cannot parse complex value 'watts'"):
        parse_complex_list([1, "watts"], "gains")


def test_parse_direction_degrees():
    d = parse_direction([30.0, 45.0])
    assert d.theta == pytest.approx(math.radians(30.0))
    assert d.phi == pytest.approx(math.radians(45.0))
    with pytest.raises(ModelError, match="theta_deg"):
        parse_direction(30.0)
    with pytest.raises(ModelError, match="theta_deg"):
        parse_direction([1.0, 2.0, 3.0])


def test_rotation_matrix_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(10):
        axis = rng.standard_normal(3)
        angle = float(rng.uniform(-180.0, 180.0))
        ref = Rotation.from_rotvec(
            math.radians(angle) * axis / np.linalg.norm(axis)
        ).as_matrix()
        got = rotation_matrix(axis, angle)
        assert np.max(np.abs(got - ref)) < 1e-14
    with pytest.raises(ModelError, match="nonzero"):
        rotation_matrix([0.0, 0.0, 0.0], 10.0)


def _base_dict(**extra):
    d = {
        "frequency_hz": FREQ,
        "grid": {"n_theta": 8, "n_phi": 10},
    }
    d.update(extra)
    return d


def test_scene_requires_frequency_and_grid():
    with pytest.raises(ModelError, match="frequency_hz"):
        Scene.from_dict({"grid": {"n_theta": 8, "n_phi": 10}})
    with pytest.raises(ModelError, match="positive"):
        Scene.from_dict({"frequency_hz": 0.0, "grid": {"n_theta": 8, "n_phi": 10}})
    with pytest.raises(ModelError, match="grid"):
        Scene.from_dict({"frequency_hz": FREQ})


def test_scene_grid_needs_both_sizes():
    for grid in ({"n_theta": 8}, {"n_phi": 10}):
        with pytest.raises(ModelError, match="n_phi" if "n_theta" in grid else "n_theta"):
            Scene.from_dict({"frequency_hz": FREQ, "grid": grid})


def test_scene_rejects_non_finite_frequency():
    for bad in (math.nan, math.inf):
        with pytest.raises(ModelError, match="finite"):
            Scene.from_dict({"frequency_hz": bad, "grid": {"n_theta": 8, "n_phi": 10}})


@pytest.mark.parametrize(
    "extra, build, message",
    [
        ({"frequency_hz": True}, lambda s: s, "frequency_hz must be a number, got True"),  # raised at load
        ({"gain_pattern": {"model": "m", "v_tx": ["1"], "count": True}}, lambda s: s.gain_pattern_task(),
         "gain_pattern count must be a number, got True"),
        ({"structures": [{"name": "a", "kind": "isotropic", "position_m": [0.0, False, 0.0]}]},
         lambda s: s.structure("a"), "structure 'a' position_m must be a number, got False"),
        ({"frontends": [{"name": "fe", "z_tx_ohms": [True]}]}, lambda s: s.frontend("fe"),
         "frontend 'fe' z_tx_ohms: cannot parse complex value True"),
        ({"tunings": [{"name": "t", "kind": "matrix", "s": [["0", "1"], ["1", False]]}]},
         lambda s: s.tuning("t", 1), "tuning 't' s: cannot parse complex value False"),
    ],
    ids=["scalar", "count", "position_entry", "complex_list", "matrix_entry"],
)
def test_scene_rejects_a_yaml_boolean_where_a_number_is_expected(extra, build, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        build(Scene.from_dict(_base_dict(**extra)))


@pytest.mark.parametrize(
    "entry, message",
    [
        ("tx", "structures must be a mapping, got 'tx'"),
        ({"kind": "isotropic"}, "structures: missing required field 'name'"),
        ({"name": 5, "kind": "isotropic"}, "structures name must be a string, got 5"),
    ],
    ids=["not_a_mapping", "no_name", "non_string_name"],
)
def test_named_list_entry_is_checked_at_load(entry, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        Scene.from_dict(_base_dict(structures=[entry]))


def test_scene_defaults_and_duplicates():
    scene = Scene.from_dict(_base_dict())
    assert scene.r0 == 50.0
    assert scene.grid.n_theta == 8 and scene.grid.n_phi == 10
    with pytest.raises(ModelError, match="duplicate name"):
        Scene.from_dict(
            _base_dict(
                structures=[
                    {"name": "a", "kind": "isotropic"},
                    {"name": "a", "kind": "isotropic"},
                ]
            )
        )


def test_scene_load_rejects_non_mapping(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ModelError, match="mapping"):
        Scene.load(str(p))
    p2 = tmp_path / "worse.yaml"
    p2.write_text("a: [unclosed\n")
    with pytest.raises(ModelError, match="parse error"):
        Scene.load(str(p2))


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
@pytest.mark.parametrize("name", ["friis.yaml", "rra_case_study.yaml"])
def test_scene_load_parses_shipped_scenes_with_libyaml(monkeypatch, name):
    loaders = []
    load = yaml.load

    def spy(stream, Loader):
        loaders.append(Loader)
        return load(stream, Loader)

    monkeypatch.setattr(yaml, "load", spy)
    Scene.load(os.path.join(os.path.dirname(__file__), os.pardir, "scenes", name))
    assert loaders == [yaml.CSafeLoader]


def test_yaml_loader_takes_libyaml_only_where_both_loaders_accept_the_depth():
    n = _C_LOADER_MAX_OPENERS
    at_limit = "x: " + "[" * (n - 1) + "]" * (n - 1)  # n openers with the ':'
    loader = _yaml_loader(at_limit)
    assert loader is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert yaml.load(at_limit, Loader=loader) == yaml.load(at_limit, Loader=yaml.SafeLoader)
    assert _yaml_loader("x: " + "[" * n + "]" * n) is yaml.SafeLoader


def test_dipole_structure_with_rotation():
    scene = Scene.from_dict(
        _base_dict(
            structures=[
                {"name": "plain", "kind": "dipole", "orientation": [0.0, 0.0, 1.0]},
                {
                    "name": "tilted",
                    "kind": "dipole",
                    "orientation": [0.0, 0.0, 1.0],
                    "rotation": {"axis": [0.0, 1.0, 0.0], "angle_deg": 90.0},
                },
            ]
        )
    )
    plain = scene.structure("plain")
    ref = hertzian_dipole([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], scene.grid, FREQ)
    assert np.array_equal(plain.tx_kernel, ref.tx_kernel)
    # rotating z onto x rebuilds from the rotated orientation, so the only
    # deviation is the rounding inside the rotation matrix itself
    tilted = scene.structure("tilted")
    ref_x = hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], scene.grid, FREQ)
    assert np.max(np.abs(tilted.tx_kernel - ref_x.tx_kernel)) < 1e-15


def test_dipole_array_structure_matches_direct_build():
    elements = [
        ([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
        ([0.0, 0.0, 1.0], [0.03, 0.0, 0.0]),
    ]
    scene = Scene.from_dict(
        _base_dict(
            structures=[
                {
                    "name": "pair",
                    "kind": "dipole_array",
                    "coupling": {"gamma": 1.5},
                    "enforce_passivity": True,
                    "elements": [
                        {"orientation": [1.0, 0.0, 0.0]},
                        {"orientation": [0.0, 0.0, 1.0], "position_m": [0.03, 0.0, 0.0]},
                    ],
                }
            ]
        )
    )
    got = scene.structure("pair")
    coupling = synthetic_coupling([p for _, p in elements], wavenumber(FREQ), 1.5)
    ref = dipole_array(elements, scene.grid, FREQ, coupling=coupling, enforce_passivity=True)
    assert np.array_equal(got.tx_kernel, ref.tx_kernel)
    assert np.array_equal(got.coupling, ref.coupling)
    assert np.array_equal(got.scatter_kernel, ref.scatter_kernel)
    assert got.mirror == ref.mirror < 1.0


def test_isotropic_structure_and_rotation_rejection():
    scene = Scene.from_dict(
        _base_dict(
            structures=[
                {"name": "iso", "kind": "isotropic", "pol": "phi"},
                {
                    "name": "spun",
                    "kind": "isotropic",
                    "rotation": {"axis": [0, 0, 1], "angle_deg": 10.0},
                },
                {"name": "odd", "kind": "warp-core"},
            ]
        )
    )
    iso = scene.structure("iso")
    assert np.all(iso.tx_kernel[0, :, 0] == 0.0)
    with pytest.raises(ModelError, match="cannot be rotated"):
        scene.structure("spun")
    with pytest.raises(ModelError, match="unknown kind"):
        scene.structure("odd")
    with pytest.raises(ModelError, match="unknown structure"):
        scene.structure("ghost")


def test_from_files_structure_round_trip(tmp_path):
    grid = make_latlon_grid(8, 10)
    src = hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], grid, FREQ)
    resp = port_wave_responses(src)
    write_response_file(resp, str(tmp_path / "dip.rsp"))

    scene = Scene.from_dict(
        _base_dict(
            structures=[{"name": "disk", "kind": "from_files", "response_file": "dip.rsp"}]
        ),
        base_dir=str(tmp_path),
    )
    got = scene.structure("disk")
    assert np.max(np.abs(got.rx_kernel - src.rx_kernel)) < 1e-12
    assert got.scatter_kernel is None

    off_grid = Scene.from_dict(
        _base_dict(
            grid={"n_theta": 9, "n_phi": 12},
            structures=[{"name": "disk", "kind": "from_files", "response_file": "dip.rsp"}],
        ),
        base_dir=str(tmp_path),
    )
    with pytest.raises(ModelError, match="does not match the scene grid"):
        off_grid.structure("disk")

    off_freq = Scene.from_dict(
        _base_dict(
            frequency_hz=2.0 * FREQ,
            structures=[{"name": "disk", "kind": "from_files", "response_file": "dip.rsp"}],
        ),
        base_dir=str(tmp_path),
    )
    with pytest.raises(ModelError, match="frequency differs"):
        off_freq.structure("disk")


def test_frontend_parses_impedance_strings():
    scene = Scene.from_dict(
        _base_dict(
            r0_ohms=75.0,
            frontends=[{"name": "fe", "z_tx_ohms": ["30+40j", 50], "z_rx_ohms": ["20-5j"]}],
        )
    )
    fe = scene.frontend("fe")
    assert np.array_equal(fe.z_tx, np.array([30 + 40j, 50 + 0j]))
    assert np.array_equal(fe.z_rx, np.array([20 - 5j]))
    assert fe.r0 == 75.0
    with pytest.raises(ModelError, match="unknown frontend"):
        scene.frontend("nope")


def test_tuning_kinds(tmp_path):
    s_mat = [["0", "1"], ["1", "0"]]
    ts = TouchstoneData.from_matrices(
        frequencies_hz=np.array([FREQ / 2.0, FREQ]),
        matrices=np.array([np.zeros((2, 2)), np.array([[0.1j, 0.2], [0.2, 0.0]])]),
        format="ri",
        frequency_unit="hz",
    )
    write_touchstone(ts, str(tmp_path / "net.s2p"))

    scene = Scene.from_dict(
        _base_dict(
            tunings=[
                {"name": "thru", "kind": "through"},
                {"name": "pad", "kind": "inline", "gains": ["0.5", "0.25j"]},
                {"name": "mat", "kind": "matrix", "s": s_mat},
                {"name": "disk", "kind": "touchstone", "file": "net.s2p"},
                {"name": "odd", "kind": "mystery"},
            ]
        ),
        base_dir=str(tmp_path),
    )
    assert np.array_equal(scene.tuning("thru", 2).s, through_tuning(2).s)
    pad = scene.tuning("pad", 2)
    assert pad.n_frontend == 2 and pad.s_tr[1, 1] == 0.25j
    mat = scene.tuning("mat", 1)
    assert mat.n_frontend == 1 and mat.m_radiating == 1
    assert mat.s[0, 1] == 1.0 + 0.0j
    disk = scene.tuning("disk", 1)
    assert disk.n_frontend == 1 and disk.m_radiating == 1
    assert np.array_equal(disk.s, np.array([[0.1j, 0.2], [0.2, 0.0]]))
    with pytest.raises(ModelError, match="unknown kind"):
        scene.tuning("odd", 1)
    with pytest.raises(ModelError, match="unknown tuning"):
        scene.tuning("nope", 1)


def test_matrix_tuning_rows_must_form_a_square():
    for rows in ([["0", "1"], ["1"]], [["0", "1"]], "0 1", [["0", "1"], "01"]):
        scene = Scene.from_dict(
            _base_dict(tunings=[{"name": "rag", "kind": "matrix", "s": rows}])
        )
        with pytest.raises(ModelError, match="tuning 'rag' s must be a square list of rows"):
            scene.tuning("rag", 1)


@pytest.mark.parametrize(
    "word, message",
    [("zz", "cannot parse complex value 'zz'"), ("nan", "complex value 'nan' is not finite")],
    ids=["word", "nan"],
)
def test_matrix_tuning_entry_error_names_the_field(word, message):
    scene = Scene.from_dict(
        _base_dict(tunings=[{"name": "t", "kind": "matrix", "s": [["0", "1"], ["1", word]]}])
    )
    with pytest.raises(ModelError, match=re.escape(f"tuning 't' s: {message}")):
        scene.tuning("t", 1)


def test_tuning_with_more_frontend_ports_than_ports_is_rejected(tmp_path):
    ts = TouchstoneData.from_matrices(
        frequencies_hz=np.array([FREQ]), matrices=np.zeros((1, 2, 2)), format="ri", frequency_unit="hz"
    )
    write_touchstone(ts, str(tmp_path / "net.s2p"))
    scene = Scene.from_dict(
        _base_dict(
            tunings=[
                {"name": "mat", "kind": "matrix", "s": [["0", "1"], ["1", "0"]]},
                {"name": "disk", "kind": "touchstone", "file": "net.s2p"},
            ]
        ),
        base_dir=str(tmp_path),
    )
    for name in ("mat", "disk"):
        message = f"tuning {name!r}: 2 ports, fewer than the 3 frontend ports"
        with pytest.raises(ModelError, match=re.escape(message)):
            scene.tuning(name, 3)


def test_touchstone_tuning_needs_matching_frequency(tmp_path):
    ts = TouchstoneData.from_matrices(
        frequencies_hz=np.array([1.0e9]),
        matrices=np.array([[[0.5 + 0j]]]),
        format="ri",
        frequency_unit="hz",
    )
    write_touchstone(ts, str(tmp_path / "off.s1p"))
    scene = Scene.from_dict(
        _base_dict(tunings=[{"name": "t", "kind": "touchstone", "file": "off.s1p"}]),
        base_dir=str(tmp_path),
    )
    with pytest.raises(ModelError, match="no entry at"):
        scene.tuning("t", 0)


def test_model_assembly():
    scene = Scene.from_dict(
        _base_dict(
            structures=[{"name": "ant", "kind": "dipole", "orientation": [1.0, 0.0, 0.0]}],
            frontends=[{"name": "fe", "z_tx_ohms": [50.0]}],
            tunings=[{"name": "thru", "kind": "through"}],
            models=[
                {"name": "link", "structure": "ant", "tuning": "thru", "frontend": "fe"}
            ],
        )
    )
    model = scene.model("link")
    assert model.frontend.n == 1
    assert model.structure.m_ports == 1
    with pytest.raises(ModelError, match="unknown model"):
        scene.model("nope")


def test_one_through_block_serves_frontends_of_one_and_two_chains():
    # the block states no port count: each model's frontend gives its chains
    pair = [{"orientation": [1.0, 0.0, 0.0]}, {"orientation": [0.0, 1.0, 0.0], "position_m": [0.03, 0.0, 0.0]}]
    scene = Scene.from_dict(
        _base_dict(
            structures=[
                {"name": "one", "kind": "dipole", "orientation": [1.0, 0.0, 0.0]},
                {"name": "two", "kind": "dipole_array", "elements": pair},
            ],
            frontends=[{"name": "fe1", "z_tx_ohms": [50.0]}, {"name": "fe2", "z_tx_ohms": [50.0, 75.0]}],
            tunings=[{"name": "thru", "kind": "through"}],
            models=[
                {"name": "single", "structure": "one", "tuning": "thru", "frontend": "fe1"},
                {"name": "double", "structure": "two", "tuning": "thru", "frontend": "fe2"},
                {"name": "short", "structure": "one", "tuning": "thru", "frontend": "fe2"},
            ],
        )
    )
    for name, n in (("single", 1), ("double", 2)):
        model = scene.model(name)
        assert model.tuning.n_frontend == model.tuning.m_radiating == model.structure.m_ports == n
        assert np.array_equal(model.tuning.s, through_tuning(n).s)
    with pytest.raises(ModelError, match="tuning network drives 2 radiating ports, structure has 1"):
        scene.model("short")


def test_through_block_wider_than_its_structure_is_refused_before_it_is_built():
    # a through block's (2N)^2 matrix would take 64 MB for N = 1000: the port counts are compared first
    scene = Scene.from_dict(
        _base_dict(
            structures=[{"name": "ant", "kind": "dipole", "orientation": [1.0, 0.0, 0.0]}],
            frontends=[{"name": "wide", "z_tx_ohms": [50.0] * 1000}],
            tunings=[{"name": "thru", "kind": "through"}],
            models=[{"name": "link", "structure": "ant", "tuning": "thru", "frontend": "wide"}],
        )
    )
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match=r"^tuning network drives 1000 radiating ports, structure has 1$"):
            scene.model("link")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def _problem_dict(**extra):
    spec = {
        "structure": "pair",
        "frontend": "fe",
        "z_set": {"values": ["1+5j", "1-5j"]},
        "primary_deg": [[60.0, 0.0]],
        "secondary_deg": [[120.0, 180.0]],
        "i_max": 2,
        "sigma": {"initial": 4.0, "ratio": 0.5},
        "seed": 7,
    }
    spec.update(extra)
    return _base_dict(
        structures=[
            {
                "name": "pair",
                "kind": "dipole_array",
                "elements": [
                    {"orientation": [1.0, 0.0, 0.0]},
                    {"orientation": [1.0, 0.0, 0.0], "position_m": [0.03, 0.0, 0.0]},
                ],
            }
        ],
        frontends=[{"name": "fe", "z_tx_ohms": [50.0]}],
        problem=spec,
    )


def test_beamform_problem_from_scene():
    scene = Scene.from_dict(_problem_dict())
    problem, builder = scene.beamform_problem()
    assert problem.r == 1
    assert problem.z_set == (1 + 5j, 1 - 5j)
    assert problem.z_init == 1 + 5j
    assert problem.rng_seed == 7
    assert problem.i_max == 2
    assert problem.sigma_schedule == (2.0, 1.0)
    assert problem.primary_dirs[0].theta == pytest.approx(math.radians(60.0))
    assert problem.secondary_dirs[0].phi == pytest.approx(math.pi)

    model = builder((1 + 5j,))
    assert model.tuning.n_frontend == 1 and model.tuning.m_radiating == 2
    assert model.frontend.n == 1
    # the builder exposes the parts every configuration shares
    assert model.structure is builder.structure and model.frontend is builder.frontend
    assert builder.fixed_s.shape == (4, 4) and builder.r0 == 50.0

    problem2, _ = scene.beamform_problem(seed_override=99)
    assert problem2.rng_seed == 99


def test_beamform_problem_reactance_sweep_and_errors():
    scene = Scene.from_dict(
        _problem_dict(
            z_set={"resistance": 1.2, "reactance": {"start": -10.0, "stop": 10.0, "count": 5}}
        )
    )
    problem, _ = scene.beamform_problem()
    assert problem.z_set == tuple(complex(1.2, x) for x in np.linspace(-10.0, 10.0, 5))

    bad = Scene.from_dict(_problem_dict(fixed="magic"))
    with pytest.raises(ModelError, match="unknown fixed network"):
        bad.beamform_problem()

    # the loads are the structure's ports beyond the frontend's: a problem does not state r
    with pytest.raises(ModelError, match="^problem: unknown field 'r'$"):
        Scene.from_dict(_problem_dict(r=1)).beamform_problem()

    empty = Scene.from_dict(_base_dict())
    with pytest.raises(ModelError, match="no problem block"):
        empty.beamform_problem()


@pytest.mark.parametrize(
    "extra, match",
    [
        ({"z_set": 5}, "problem z_set must be a mapping, got 5"),
        ({"z_set": {"values": 5}}, "expected a list of complex values, got 5"),
        ({"z_set": {"values": "50"}}, "expected a list of complex values, got '50'"),
        ({"primary_deg": 30}, "problem primary_deg must be a list"),
        ({"secondary_deg": 30}, "problem secondary_deg must be a list"),
    ],
    ids=["z_set_number", "values_number", "values_string", "primary_number", "secondary_number"],
)
def test_beamform_problem_rejects_non_list_fields(extra, match):
    with pytest.raises(ModelError, match=match):
        Scene.from_dict(_problem_dict(**extra)).beamform_problem()


def _table_keys(table: dict) -> set:
    """Every key of a field table and of the tables nested in it; in a table
    of kinds, the keys are the kinds."""
    keys = set(table)
    for spec in table.values():
        for sub in [spec] if isinstance(spec, dict) else spec[2:]:
            if isinstance(sub, dict):
                keys |= _table_keys(sub)
    return keys


def test_readme_scene_format_lists_every_table_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        section = fh.read().split("\n## Scene format\n", 1)[1].split("\n## ", 1)[0]
    tables = [scene_mod._SCENE]
    tables += [table for table, *_ in scene_mod._NAMED.values()]
    tables += [table for _, table, *_ in scene_mod._TASKS.values()]
    keys = set().union(*map(_table_keys, tables))
    assert {"enforce_passivity", "spacing", "response_file", "reactance", "phi_deg"} <= keys
    quoted = re.findall(r"`([^`]*)`", section)
    missing = [k for k in sorted(keys) if not any(re.search(rf"\b{k}\b", q) for q in quoted)]
    assert missing == []
