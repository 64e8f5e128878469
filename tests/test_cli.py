"""Command-line surface: exit codes, output files, scene plumbing."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from conftest import FREQ, singular_loop_pair
from remskit.cli import main
from remskit.farfield import FOUR_PI, make_latlon_grid
from remskit.radiating import (
    hertzian_dipole,
    random_reciprocal_structure,
    synthesize_plane_wave_responses,
    wavenumber,
    write_response_file,
)

SCENES = os.path.join(os.path.dirname(__file__), os.pardir, "scenes")
FRIIS = os.path.join(SCENES, "friis.yaml")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
LAM = 2.0 * math.pi / wavenumber(FREQ)


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    return header, [r.split(",") for r in rows]


def test_grid_command_writes_weighted_directions(tmp_path, capsys):
    assert main(["grid", "--n-theta", "4", "--n-phi", "6", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "grid.csv")
    assert header == "index,theta_deg,phi_deg,weight_sr"
    assert len(rows) == 24
    assert sum(float(r[3]) for r in rows) == pytest.approx(FOUR_PI, rel=1e-12)
    assert "grid.csv" in capsys.readouterr().out


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_missing_scene_file_is_a_user_error(capsys):
    assert main(["solve", "--scene", "nowhere/missing.yaml"]) == 1
    assert "error:" in capsys.readouterr().err


def test_scene_without_requested_block_is_a_user_error(tmp_path, capsys):
    p = tmp_path / "bare.yaml"
    p.write_text(yaml.safe_dump({"frequency_hz": FREQ, "grid": {"n_theta": 4, "n_phi": 6}}))
    assert main(["solve", "--scene", str(p)]) == 1
    assert "solve block" in capsys.readouterr().err


def test_solve_command_on_matched_dipole(tmp_path):
    assert main(["solve", "--scene", FRIIS, "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "powers.csv")
    assert header == "name,value"
    powers = {name: float(val) for name, val in rows}
    # 1 V behind 50 ohm: available power 1/(4*50), matched straight through
    assert powers["p_available_w"] == pytest.approx(1.0 / 200.0, rel=1e-12)
    assert powers["p_transmit_w"] == pytest.approx(1.0 / 200.0, rel=1e-12)
    assert powers["eta_matching"] == pytest.approx(1.0, rel=1e-12)
    assert powers["eta_tuning"] == pytest.approx(1.0, rel=1e-12)
    # midpoint quadrature of the dipole pattern overshoots by ~6e-4 relative
    assert powers["p_farfield_w"] == pytest.approx(1.0 / 200.0, rel=2e-3)
    assert (tmp_path / "waves.csv").exists()
    header, rows = _read_csv(tmp_path / "farfield.csv")
    assert len(rows) == 19 * 36


def test_channel_distance_sweep_follows_inverse_distance(tmp_path):
    assert main(["channel", "--scene", FRIIS, "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "channel.csv")
    assert header == "d_m,re_s,im_s"
    assert len(rows) == 25
    d = np.array([float(r[0]) for r in rows])
    s = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    assert d[0] == 1.0 and d[-1] == 100.0
    expect = 3.0 * LAM / (8.0 * math.pi * d)
    assert np.max(np.abs(np.abs(s) - expect) / expect) < 1e-12


def test_channel_rotation_sweep_projects_cosine(tmp_path):
    scene = {
        "frequency_hz": FREQ,
        "grid": {"n_theta": 19, "n_phi": 36},
        "structures": [
            {"name": "tx", "kind": "dipole", "orientation": [1.0, 0.0, 0.0]},
            {
                "name": "rx",
                "kind": "dipole",
                "orientation": [1.0, 0.0, 0.0],
                "position_m": [0.0, 3.0, 0.0],
            },
        ],
        "channel": {
            "pair": ["tx", "rx"],
            "ports": [0, 0],
            "sweep": {"kind": "rotation", "start_deg": 0.0, "stop_deg": 90.0, "count": 7},
        },
    }
    p = tmp_path / "twist.yaml"
    p.write_text(yaml.safe_dump(scene))
    assert main(["channel", "--scene", str(p), "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "channel.csv")
    assert len(rows) == 7
    alphas = np.array([float(r[0]) for r in rows])
    mags = np.array([abs(complex(float(r[1]), float(r[2]))) for r in rows])
    # co-polarized at 0, crossed at 90: rotating the receiver about the
    # line of sight scales the link by the polarization projection
    assert np.allclose(mags, mags[0] * np.cos(np.radians(alphas)), atol=mags[0] * 1e-12)


def test_gain_pattern_slice(tmp_path):
    assert main(["gain-pattern", "--scene", FRIIS, "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "gain_pattern.csv")
    assert header == "theta_deg,gain_db"
    assert len(rows) == 181
    gains = {float(t): float(g) for t, g in rows}
    # broadside sample clamps to the first ring of the 19x36 grid, which
    # shaves the ideal dipole peak; the stored value is the grid's answer
    assert gains[0.0] == pytest.approx(1.7311950946581467, abs=1e-9)
    assert gains[-37.0] == pytest.approx(gains[37.0], abs=1e-9)
    assert gains[90.0] < gains[0.0] - 10.0  # axial null direction


def test_extract_command_round_trips_kernels(tmp_path):
    grid = make_latlon_grid(6, 8)
    dip = hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], grid, FREQ)
    resp = synthesize_plane_wave_responses(dip, include_scatter=False)
    rsp = tmp_path / "dip.rsp"
    write_response_file(resp, str(rsp))
    assert main(["extract", "--response", str(rsp), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "kernels.txt").read_text().splitlines()
    assert text[0] == "remskit-kernels v1"
    assert f"grid {grid.n_theta} {grid.n_phi}" in text
    assert "ports 1" in text
    assert sum(1 for line in text if line.startswith("rx ")) == grid.size
    assert not any(line.startswith("scatter ") for line in text)


def test_extract_reports_kernel_asymmetry(tmp_path, capsys):
    rng = np.random.default_rng(6)
    grid = make_latlon_grid(4, 6)
    s = random_reciprocal_structure(grid, 1, rng, FREQ)
    s.scatter_kernel[0, 0, 1, 0] += 0.1  # break the transpose symmetry
    resp = synthesize_plane_wave_responses(s)
    rsp = tmp_path / "s.rsp"
    write_response_file(resp, str(rsp))
    assert main(["extract", "--response", str(rsp), "--out", str(tmp_path), "--tol", "1e-3"]) == 0
    assert "asymmetry" in capsys.readouterr().err
    text = (tmp_path / "kernels.txt").read_text().splitlines()
    assert sum(1 for line in text if line.startswith("scatter ")) == (2 * grid.size) ** 2
    # a non-finite or negative tolerance is refused before the file is read
    for tol in ("nan", "inf", "-1e-3"):
        out = tmp_path / f"tol{tol}"
        argv = ["extract", "--response", str(rsp), "--out", str(out), f"--tol={tol}"]
        assert main(argv) == 1
        assert "--tol must be" in capsys.readouterr().err
        assert not out.exists()


def test_out_dir_environment_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("REMSKIT_OUT_DIR", str(tmp_path / "env"))
    assert main(["grid", "--n-theta", "4", "--n-phi", "6"]) == 0
    assert (tmp_path / "env" / "grid.csv").exists()
    # an explicit --out wins over the environment
    assert main(["grid", "--n-theta", "4", "--n-phi", "6", "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "grid.csv").exists()


def test_ill_conditioned_solve_exits_two(tmp_path, capsys):
    # chain 1 sees a near-open source behind a fully reflective tuning row,
    # which drives the interconnection system's condition number past the
    # limit; the second healthy chain keeps the loop matrix above 1x1
    scene = {
        "frequency_hz": FREQ,
        "grid": {"n_theta": 4, "n_phi": 6},
        "structures": [
            {
                "name": "pair",
                "kind": "dipole_array",
                "elements": [
                    {"orientation": [1.0, 0.0, 0.0]},
                    {"orientation": [1.0, 0.0, 0.0], "position_m": [0.03, 0.0, 0.0]},
                ],
            }
        ],
        "frontends": [{"name": "fe", "z_tx_ohms": [1.0e15, 50.0]}],
        "tunings": [
            {
                "name": "stuck",
                "kind": "matrix",
                "n": 2,
                "s": [
                    ["1", "0", "0", "0"],
                    ["0", "0", "0", "0"],
                    ["0", "0", "0", "0"],
                    ["0", "0", "0", "0"],
                ],
            }
        ],
        "models": [{"name": "bad", "structure": "pair", "tuning": "stuck", "frontend": "fe"}],
        "solve": {"model": "bad", "v_tx": ["1", "1"]},
    }
    p = tmp_path / "stuck.yaml"
    p.write_text(yaml.safe_dump(scene))
    assert main(["solve", "--scene", str(p), "--out", str(tmp_path)]) == 2
    assert "numeric failure:" in capsys.readouterr().err


def _optimize_scene():
    return {
        "frequency_hz": FREQ,
        "grid": {"n_theta": 8, "n_phi": 10},
        "structures": [
            {
                "name": "trio",
                "kind": "dipole_array",
                "coupling": {"gamma": 1.0},
                "elements": [
                    {"orientation": [1.0, 0.0, 0.0], "position_m": [0.0, 0.0, 0.03]},
                    {"orientation": [1.0, 0.0, 0.0], "position_m": [-0.02, 0.0, 0.0]},
                    {"orientation": [1.0, 0.0, 0.0], "position_m": [0.02, 0.0, 0.0]},
                ],
            }
        ],
        "frontends": [{"name": "feed", "z_tx_ohms": [50.0]}],
        "problem": {
            "structure": "trio",
            "frontend": "feed",
            "r": 2,
            "z_set": {"values": ["1+20j", "1-20j", "1+80j", "1-80j"]},
            "primary_deg": [[45.0, 0.0]],
            "i_max": 2,
            "sigma": {"initial": 2.0, "ratio": 0.5, "count": 2},
            "seed": 0,
            "pattern": {"count": 21},
        },
    }


def test_optimize_command_writes_result_and_repeats(tmp_path):
    p = tmp_path / "opt.yaml"
    p.write_text(yaml.safe_dump(_optimize_scene()))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["optimize", "--scene", str(p), "--out", str(out1)]) == 0
    text = (out1 / "result.txt").read_text().splitlines()
    assert text[0] == "remskit-beamform-result v1"
    assert text[1].startswith("f_best ")
    assert float(text[1].split()[1]) > 0.0
    evals = int(next(l.split()[1] for l in text if l.startswith("evaluations")))
    assert evals == 2 * 2 * 4  # sweeps x loads x alphabet
    assert sum(1 for l in text if l.startswith("load ")) == 2
    assert sum(1 for l in text if l.startswith("t ")) == 1
    assert sum(1 for l in text if l.startswith("trace ")) >= 1
    header, rows = _read_csv(out1 / "optimized_gain_stream0.csv")
    assert header == "theta_deg,gain_db"
    assert len(rows) == 21

    assert main(["optimize", "--scene", str(p), "--out", str(out2)]) == 0
    assert (out1 / "result.txt").read_bytes() == (out2 / "result.txt").read_bytes()


def _optimize_case_study(out, threads: int) -> subprocess.Popen:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    scene = os.path.join(SCENES, "rra_case_study.yaml")
    argv = [sys.executable, "-m", "remskit.cli", "optimize", "--scene", scene, "--out", str(out)]
    return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)


def test_optimize_determinism_contract(tmp_path):
    """Same BLAS thread count: same bytes. Other thread count: same loads, f_best to 1e-12."""
    runs = {}
    for batch in (("1a", "2a"), ("1b",)):  # two at a time keeps memory small
        procs = {name: _optimize_case_study(tmp_path / name, int(name[0])) for name in batch}
        for name, proc in procs.items():
            assert proc.wait(timeout=600) == 0
            runs[name] = (tmp_path / name / "result.txt").read_text()
    assert runs["1a"] == runs["1b"]

    def fields(text):
        lines = text.splitlines()
        f_best = float(next(l.split()[1] for l in lines if l.startswith("f_best ")))
        fixed = [l for l in lines if l.startswith(("load ", "evaluations "))]
        return f_best, fixed

    f1, fixed1 = fields(runs["1a"])
    f2, fixed2 = fields(runs["2a"])
    assert fixed1 == fixed2 and len(fixed1) == 17
    assert f2 == pytest.approx(f1, rel=1e-12, abs=0.0)


def _friis_scene():
    with open(FRIIS, "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def _run_scene(tmp_path, command, scene, capsys):
    p = tmp_path / "scene.yaml"
    p.write_text(yaml.safe_dump(scene))
    out = tmp_path / "out"
    code = main([command, "--scene", str(p), "--out", str(out)])
    return code, capsys.readouterr().err, out


def test_non_finite_solve_drive_exits_one_and_writes_nothing(tmp_path, capsys):
    scene = _friis_scene()
    scene["solve"]["v_tx"] = [math.inf]
    code, err, out = _run_scene(tmp_path, "solve", scene, capsys)
    assert code == 1
    assert "not finite" in err
    assert not out.exists() or os.listdir(out) == []


def test_non_finite_gain_pattern_drive_exits_one(tmp_path, capsys):
    scene = _friis_scene()
    scene["gain_pattern"]["v_tx"] = [math.nan]
    code, err, out = _run_scene(tmp_path, "gain-pattern", scene, capsys)
    assert code == 1
    assert "not finite" in err
    assert not out.exists() or os.listdir(out) == []


def _set(scene, path, value):
    node = scene
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize(
    "command, path, field",
    [
        ("solve", ("frequency_hz",), "frequency_hz"),
        ("solve", ("grid", "n_theta"), "grid n_theta"),
        ("solve", ("r0_ohms",), "r0_ohms"),
        ("optimize", ("problem", "r"), "problem r"),
        ("optimize", ("problem", "z_set", "reactance", "count"), "problem z_set reactance count"),
        ("channel", ("channel", "sweep", "count"), "channel sweep count"),
    ],
)
def test_non_numeric_scene_scalar_is_a_user_error(tmp_path, capsys, command, path, field):
    scene = _friis_scene() if command != "optimize" else _optimize_scene()
    if command == "optimize":
        scene["problem"]["z_set"] = {
            "resistance": 1.0,
            "reactance": {"start": -80.0, "stop": 80.0, "count": 4},
        }
    _set(scene, path, "5.4 GHz")
    code, err, out = _run_scene(tmp_path, command, scene, capsys)
    assert code == 1
    assert f"{field} must be a number, got '5.4 GHz'" in err
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize(
    "command, path, field",
    [
        ("channel", ("channel", "sweep"), "channel sweep"),
        ("optimize", ("problem", "pattern"), "problem pattern"),
    ],
)
def test_non_mapping_scene_block_is_a_user_error(tmp_path, capsys, command, path, field):
    scene = _friis_scene() if command == "channel" else _optimize_scene()
    _set(scene, path, "distance")
    code, err, out = _run_scene(tmp_path, command, scene, capsys)
    assert code == 1
    assert f"{field} must be a mapping, got 'distance'" in err
    assert not out.exists() or os.listdir(out) == []


def test_channel_port_outside_the_channel_matrix_is_a_user_error(tmp_path, capsys):
    scene = _friis_scene()
    scene["channel"]["ports"] = [0, 1]
    code, err, _ = _run_scene(tmp_path, "channel", scene, capsys)
    assert code == 1
    assert "outside the 1x1 channel matrix" in err


def test_ill_conditioned_bounce_loop_channel_exits_two(tmp_path, capsys):
    # the two file-backed structures bounce a wave between them with loop
    # gain 1 to rounding, so I - loop is singular
    grid = make_latlon_grid(8, 10)
    tx, rx = singular_loop_pair(grid, [0.0, 3.0, 0.0])
    for name, s in (("tx", tx), ("rx", rx)):
        write_response_file(synthesize_plane_wave_responses(s), str(tmp_path / f"{name}.rsp"))
    scene = {
        "frequency_hz": FREQ,
        "grid": {"n_theta": 8, "n_phi": 10},
        "structures": [
            {"name": "tx", "kind": "from_files", "response_file": "tx.rsp"},
            {
                "name": "rx",
                "kind": "from_files",
                "response_file": "rx.rsp",
                "position_m": [0.0, 3.0, 0.0],
            },
        ],
        "channel": {"pair": ["tx", "rx"]},
    }
    code, err, out = _run_scene(tmp_path, "channel", scene, capsys)
    assert code == 2
    assert "numeric failure: far-field bounce loop" in err
    assert not (out / "channel.csv").exists()
