"""Command-line surface: exit codes, output files, scene plumbing."""

import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import yaml

import remskit.cli as cli_mod
import remskit.farfield as farfield_mod
import remskit.scene as scene_mod
from conftest import (
    FREQ,
    loop_gain_rows,
    loop_pattern_to_csv,
    port_wave_responses,
    response_text,
    singular_loop_pair,
)
from remskit._textio import fmt
from remskit.channel import far_channel
from remskit.cli import _gain_rows, main
from remskit.farfield import FOUR_PI, make_latlon_grid
from remskit.network import TouchstoneData, touchstone_to_text
from remskit.radiating import (
    hertzian_dipole,
    random_reciprocal_structure,
    synthesize_plane_wave_responses,
    wavenumber,
    write_response_file,
)
from remskit.scene import Scene, rotation_matrix

SCENES = os.path.join(os.path.dirname(__file__), os.pardir, "scenes")
FRIIS = os.path.join(SCENES, "friis.yaml")
CASE_STUDY = os.path.join(SCENES, "rra_case_study.yaml")
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


def test_one_parser_serves_every_call_without_carrying_state(tmp_path, capsys, monkeypatch):
    parser = cli_mod.build_parser()
    assert cli_mod.build_parser() is parser
    grid = ["grid", "--n-theta", "4", "--n-phi", "6", "--out"]
    assert main([*grid, str(tmp_path / "first")]) == 0
    # a command replaced at its module binding after the parser exists is the one main calls
    calls = []
    monkeypatch.setattr(cli_mod, "cmd_grid", lambda args: calls.append((args.n_theta, args.n_phi)) or 0)
    assert main(["grid", "--n-theta", "3", "--n-phi", "8"]) == 0
    assert calls == [(3, 8)]
    tols = []
    monkeypatch.setattr(cli_mod, "cmd_extract", lambda args: tols.append(args.tol) or 0)
    assert main(["extract", "--response", "r.rsp", "--tol", "1e-3"]) == 0
    assert main(["extract", "--response", "r.rsp"]) == 0
    assert tols == [1e-3, None]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--bogus"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: remskit grid") and "remskit grid: error: " in err
    monkeypatch.undo()
    assert main([*grid, str(tmp_path / "third")]) == 0
    assert (tmp_path / "third" / "grid.csv").read_bytes() == (tmp_path / "first" / "grid.csv").read_bytes()
    assert cli_mod.build_parser() is parser


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


class _StackOps:
    """Gain operators reduced to a fixed (k, 2, n_tx) vtx_gain_matrix stack."""

    def __init__(self, mats):
        self.mats = mats

    def vtx_gain_matrix(self, dirs):
        assert len(dirs) == len(self.mats)
        return self.mats


@pytest.mark.parametrize("seed", range(4))
def test_gain_rows_match_per_row_reference(seed):
    rng = np.random.default_rng(seed)
    k, n_tx = 37, 3
    mats = rng.standard_normal((k, 2, n_tx)) + 1j * rng.standard_normal((k, 2, n_tx))
    # zero rows give zero gain (-inf dB); the others under- and overflow the square
    mats *= rng.choice((1.0, 0.0, -0.0, 1e-300, 1e-160, 1e160, 1e300), (k, 1, 1))
    mats[:2] = 0.0
    v = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
    thetas = np.linspace(-90.0, 90.0, k)
    ops = _StackOps(mats)
    assert _gain_rows(ops, 0.37, v, thetas, 12.5) == list(loop_gain_rows(ops, 0.37, v, thetas, 12.5))


@pytest.mark.parametrize(
    "argv",
    [["solve", "--scene", FRIIS], ["gain-pattern", "--scene", FRIIS], ["optimize", "--scene", CASE_STUDY]],
    ids=["solve", "gain-pattern", "optimize"],
)
def test_shipped_outputs_match_per_row_formatting(tmp_path, monkeypatch, argv):
    assert main(argv + ["--out", str(tmp_path / "bulk")]) == 0
    monkeypatch.setattr(farfield_mod, "_pattern_csv", loop_pattern_to_csv)
    monkeypatch.setattr(cli_mod, "_gain_rows", loop_gain_rows)
    assert main(argv + ["--out", str(tmp_path / "loop")]) == 0
    names = sorted(os.listdir(tmp_path / "bulk"))
    assert names == sorted(os.listdir(tmp_path / "loop"))
    for name in names:
        assert (tmp_path / "bulk" / name).read_bytes() == (tmp_path / "loop" / name).read_bytes()


def test_deeply_nested_scene_is_a_user_error(tmp_path, capsys):
    p = tmp_path / "deep.yaml"
    p.write_text("x: " + "[" * 3000 + "]" * 3000 + "\n")
    assert main(["solve", "--scene", str(p), "--out", str(tmp_path / "out")]) == 1
    assert "error: scene parse error" in capsys.readouterr().err


def test_nesting_beyond_the_c_stack_is_a_user_error(tmp_path):
    # libyaml's composer recurses on the C stack: at this depth it ends the
    # process with SIGSEGV, so the run is a child process
    p = tmp_path / "deep.yaml"
    p.write_text("x: " + "[" * 30000 + "]" * 30000 + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(q for q in (SRC, env.get("PYTHONPATH")) if q)
    argv = [sys.executable, "-m", "remskit.cli", "solve", "--scene", str(p), "--out", str(tmp_path)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "error: scene parse error" in proc.stderr
    assert "Traceback" not in proc.stderr


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
    resp = port_wave_responses(dip)
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


def test_extract_computes_the_asymmetry_only_for_tol(tmp_path, capsys, monkeypatch):
    s = random_reciprocal_structure(make_latlon_grid(2, 4), 1, np.random.default_rng(7), FREQ)
    rsp = tmp_path / "s.rsp"
    write_response_file(synthesize_plane_wave_responses(s), str(rsp))
    calls = []
    real = cli_mod._scatter_asymmetry
    monkeypatch.setattr(cli_mod, "_scatter_asymmetry", lambda kernel: calls.append(1) or real(kernel))
    assert main(["extract", "--response", str(rsp), "--out", str(tmp_path / "plain")]) == 0
    assert calls == []
    assert main(["extract", "--response", str(rsp), "--out", str(tmp_path / "tol"), "--tol", "1e-3"]) == 0
    assert calls == [1]
    assert "asymmetry" not in capsys.readouterr().err
    assert (tmp_path / "plain" / "kernels.txt").read_text() == (tmp_path / "tol" / "kernels.txt").read_text()


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


def test_optimize_with_every_candidate_skipped_exits_two_and_writes_nothing(tmp_path, capsys):
    # two streams toward one direction: every zero-forcing Gram matrix is singular
    scene = _case_study_scene()
    scene["grid"] = {"n_theta": 8, "n_phi": 16}
    scene["problem"]["primary_deg"] = [[30.0, 0.0], [30.0, 0.0]]
    scene["problem"]["z_set"]["reactance"]["count"] = 4
    scene["problem"]["i_max"] = 1
    out = tmp_path / "out"
    out.mkdir()
    (out / "result.txt").write_text("an earlier result\n")
    code, err, _ = _run_scene(tmp_path, "optimize", scene, capsys)
    assert code == 2
    assert "numeric failure: all 64 candidates were skipped: no load configuration was scored" in err
    assert os.listdir(out) == ["result.txt"]
    assert (out / "result.txt").read_text() == "an earlier result\n"


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
            "z_set": {"values": ["1+20j", "1-20j", "1+80j", "1-80j"]},
            "primary_deg": [[45.0, 0.0]],
            "i_max": 2,
            "sigma": {"initial": 2.0, "ratio": 0.5},
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


def test_optimize_reads_a_seed_beyond_the_float_range_exactly(tmp_path, capsys):
    p = tmp_path / "opt.yaml"
    p.write_text(yaml.safe_dump(_optimize_scene()))
    out = tmp_path / "out"
    assert main(["optimize", "--scene", str(p), "--out", str(out), "--seed", "1" + "0" * 400]) == 0
    assert (out / "result.txt").exists()
    assert "Traceback" not in capsys.readouterr().err


def test_scene_float_beyond_the_float_range_is_a_user_error(tmp_path, capsys):
    scene = _friis_scene()
    scene["frequency_hz"] = 10**400
    code, err, out = _run_scene(tmp_path, "solve", scene, capsys)
    assert code == 1
    assert f"frequency_hz must be finite, got {10**400}" in err
    assert not out.exists() or os.listdir(out) == []


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


def test_overflowing_receive_drive_exits_two_and_writes_nothing(tmp_path, capsys):
    # a finite v_gamma whose waves square past the float range: the solve's power ledger refuses it
    scene = _friis_scene()
    scene["frontends"][0] = {"name": "matched", "z_tx_ohms": [], "z_rx_ohms": [50.0]}
    scene["solve"] = {"model": "tx_model", "v_gamma": ["1e200"]}
    code, err, out = _run_scene(tmp_path, "solve", scene, capsys)
    assert code == 2
    assert "p_transmit is not finite" in err
    assert not out.exists() or os.listdir(out) == []


def test_non_finite_gain_pattern_drive_exits_one(tmp_path, capsys):
    scene = _friis_scene()
    scene["gain_pattern"]["v_tx"] = [math.nan]
    code, err, out = _run_scene(tmp_path, "gain-pattern", scene, capsys)
    assert code == 1
    assert "not finite" in err
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("r", [0, 1])
def test_more_streams_than_transmit_chains_is_a_user_error(tmp_path, capsys, r):
    scene = _optimize_scene()
    scene["structures"][0]["elements"] = scene["structures"][0]["elements"][: 1 + r]  # r loads
    scene["problem"]["primary_deg"] = [[45.0, 0.0], [100.0, 0.0]]
    code, err, out = _run_scene(tmp_path, "optimize", scene, capsys)
    assert code == 1
    assert "2 streams need at least 2 transmit chains, got 1" in err
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
        ("optimize", ("problem", "z_init_index"), "problem z_init_index"),
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
        ("gain-pattern", ("gain_pattern", "count"), "gain_pattern count"),
        ("channel", ("channel", "sweep", "count"), "channel sweep count"),
        ("rotation", ("channel", "sweep", "count"), "channel sweep count"),
        ("optimize", ("problem", "pattern", "count"), "problem pattern count"),
        ("optimize", ("problem", "z_set", "reactance", "count"), "problem z_set reactance count"),
        ("solve", ("grid", "n_phi"), "grid n_theta*n_phi"),
        ("optimize", ("problem", "i_max"), "problem i_max"),
    ],
)
def test_scene_count_above_the_limit_is_a_user_error(tmp_path, capsys, command, path, field):
    scene = _friis_scene() if command != "optimize" else _optimize_scene()
    if path[0] == "grid":  # 1 x (MAX_COUNT + 1) directions: the count is checked first
        scene["grid"]["n_theta"] = 1
    if command == "rotation":
        command = "channel"
        scene["channel"]["sweep"] = {"kind": "rotation", "count": 7}
    if command == "optimize":
        scene["problem"]["z_set"] = {
            "resistance": 1.0,
            "reactance": {"start": -80.0, "stop": 80.0, "count": 4},
        }
    _set(scene, path, scene_mod.MAX_COUNT + 1)
    tracemalloc.start()
    try:
        code, err, out = _run_scene(tmp_path, command, scene, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert f"{field} must be at most {scene_mod.MAX_COUNT}, got {scene_mod.MAX_COUNT + 1}" in err
    assert not out.exists() or os.listdir(out) == []
    assert peak < 8 * scene_mod.MAX_COUNT  # less than one float per sample


@pytest.mark.parametrize("count", [1, 3])
def test_sigma_count_other_than_i_max_is_a_user_error(tmp_path, capsys, count):
    # the schedule's length is i_max: a stated count may only restate it
    scene = _optimize_scene()
    scene["problem"]["sigma"]["count"] = count
    code, err, out = _run_scene(tmp_path, "optimize", scene, capsys)
    assert code == 1
    assert f"error: problem sigma count must equal i_max 2, got {count}" in err
    assert not out.exists() or os.listdir(out) == []


def test_sigma_count_restating_i_max_moves_no_result_byte(tmp_path, capsys):
    results = []
    for count in (None, 2):
        scene = _optimize_scene()
        if count is not None:
            scene["problem"]["sigma"]["count"] = count
        code, _, out = _run_scene(tmp_path, "optimize", scene, capsys)
        assert code == 0
        results.append((out / "result.txt").read_bytes())
    assert results[0] == results[1]


def test_grid_command_above_the_direction_limit_is_a_user_error(tmp_path, capsys):
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["grid", "--n-theta", "18", "--n-phi", "1000000000000", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert f"grid n_theta*n_phi must be at most {scene_mod.MAX_COUNT}, got 18000000000000" in err
    assert not out.exists()
    assert peak < 8 * scene_mod.MAX_COUNT


def test_touchstone_number_with_a_misplaced_exponent_is_a_user_error(tmp_path, capsys):
    (tmp_path / "thru.s2p").write_text("# GHz S RI R 50\n5.4 0.0 0.0 1.0 0.0 1.0 infe5 0.0 0.0\n")
    scene = _friis_scene()
    scene["tunings"] = [{"name": "thru", "kind": "touchstone", "file": "thru.s2p"}]
    code, err, out = _run_scene(tmp_path, "solve", scene, capsys)
    assert code == 1
    assert "line 2: non-numeric token 'infe5' in data" in err
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


@pytest.mark.parametrize(
    "command, path, value, message",
    [
        ("optimize", ("problem", "structure"), [], "structure name must be a string, got []"),
        ("optimize", ("problem", "frontend"), {}, "frontend name must be a string, got {}"),
        ("channel", ("channel", "pair"), [["tx"], "rx"], "structure name must be a string, got ['tx']"),
    ],
)
def test_non_string_block_name_is_a_user_error(tmp_path, capsys, command, path, value, message):
    scene = _friis_scene() if command == "channel" else _optimize_scene()
    _set(scene, path, value)
    code, err, out = _run_scene(tmp_path, command, scene, capsys)
    assert code == 1
    assert message in err
    assert not out.exists() or os.listdir(out) == []


def test_rotation_sweep_reads_its_response_file_once(tmp_path, monkeypatch):
    grid = make_latlon_grid(8, 10)
    panel = random_reciprocal_structure(grid, 2, np.random.default_rng(4), FREQ)
    write_response_file(synthesize_plane_wave_responses(panel), str(tmp_path / "panel.rsp"))
    scene = {
        "frequency_hz": FREQ,
        "grid": {"n_theta": 8, "n_phi": 10},
        "structures": [
            {"name": "tx", "kind": "dipole", "orientation": [1.0, 0.0, 0.0]},
            {
                "name": "panel",
                "kind": "from_files",
                "response_file": "panel.rsp",
                "position_m": [0.0, 3.0, 0.0],
                "rotation": {"axis": [0.0, 0.0, 1.0], "angle_deg": 20.0},
            },
        ],
        "channel": {
            "pair": ["tx", "panel"],
            "ports": [1, 0],
            "sweep": {"kind": "rotation", "start_deg": 0.0, "stop_deg": 75.0, "count": 4},
        },
    }
    p = tmp_path / "sweep.yaml"
    p.write_text(yaml.safe_dump(scene))
    reads = []
    read = scene_mod.read_response_file
    monkeypatch.setattr(scene_mod, "read_response_file", lambda path: reads.append(path) or read(path))
    assert main(["channel", "--scene", str(p), "--out", str(tmp_path)]) == 0
    assert len(reads) == 1
    _, rows = _read_csv(tmp_path / "channel.csv")
    assert [float(r[0]) for r in rows] == [0.0, 25.0, 50.0, 75.0]

    # every point equals a scene that reads and extracts the file afresh
    for alpha, re_s, im_s in rows:
        fresh = Scene.load(str(p))
        rot = rotation_matrix([0.0, 1.0, 0.0], float(alpha))
        s = far_channel(
            fresh.structure("tx"), fresh.structure("panel", extra_rotation=rot), [0.0, 3.0, 0.0]
        )[1, 0]
        assert (re_s, im_s) == (fmt(s.real), fmt(s.imag))
    assert len(reads) == 1 + len(rows)


@pytest.mark.parametrize(
    "command, path, value, message",
    [
        ("channel", ("channel", "pair"), 5, "channel pair must be a list of 2 entries, got 5"),
        ("channel", ("channel", "ports"), 5, "channel ports must be a list of 2 entries, got 5"),
        ("solve", ("structures",), 5, "structures must be a list, got 5"),
        ("solve", ("models",), 5, "models must be a list, got 5"),
        ("optimize", ("structures", 0, "elements"), 5, "structure 'trio' elements must be a list"),
        (
            "channel",
            ("structures", 1),
            {"name": "rx", "kind": "from_files", "response_file": 5, "position_m": [0, 5, 0]},
            "structure 'rx' response_file must be a string, got 5",
        ),
        (
            "solve",
            ("tunings", 0),
            {"name": "thru", "kind": "touchstone", "file": 5},
            "tuning 'thru' file must be a string, got 5",
        ),
        (
            "solve",
            ("structures", 0),
            {"name": "tx", "kind": "isotropic", "pol": ["theta"]},
            "structure 'tx' pol must be a string, got ['theta']",
        ),
        ("solve", ("solve", "v_tx"), 5, "solve block v_tx must be a list, got 5"),
        (
            "optimize",
            ("structures", 0, "enforce_passivity"),
            "false",
            "structure 'trio' enforce_passivity must be true or false, got 'false'",
        ),
        (
            "channel",
            ("channel", "sweep", "spacing"),
            5,
            "channel sweep spacing must be log or linear, got 5",
        ),
        (
            "solve",
            ("frontends", 0, "z_tx_ohms"),
            5,
            "frontend 'matched' z_tx_ohms: expected a list of complex values, got 5",
        ),
        (
            "solve",
            ("frontends", 0, "z_rx_ohms"),
            ["watts"],
            "frontend 'matched' z_rx_ohms: cannot parse complex value 'watts'",
        ),
        (
            "solve",
            ("tunings", 0),
            {"name": "thru", "kind": "inline", "gains": 5},
            "tuning 'thru' gains: expected a list of complex values, got 5",
        ),
        (
            "optimize",
            ("problem", "z_set", "values"),
            "50",
            "problem z_set values: expected a list of complex values, got '50'",
        ),
    ],
)
def test_wrong_type_scene_field_is_a_user_error(tmp_path, capsys, command, path, value, message):
    scene = _optimize_scene() if command == "optimize" else _friis_scene()
    _set(scene, path, value)
    code, err, out = _run_scene(tmp_path, command, scene, capsys)
    assert code == 1
    assert message in err
    assert not out.exists() or os.listdir(out) == []


def _undecodable(text: str) -> bytes:
    """text with one 0xff byte, which is not UTF-8, in a comment line."""
    return text.encode("utf-8") + b"# \xff\n"


@pytest.mark.parametrize("reader", ["scene", "response", "touchstone"])
def test_undecodable_file_is_a_user_error(tmp_path, capsys, reader):
    out = tmp_path / "out"
    if reader == "scene":
        bad = tmp_path / "bad.yaml"
        with open(FRIIS, "r", encoding="utf-8") as fh:
            bad.write_bytes(_undecodable(fh.read()))
        argv = ["solve", "--scene", str(bad)]
    elif reader == "response":
        bad = tmp_path / "bad.rsp"
        grid = make_latlon_grid(4, 4)
        s = random_reciprocal_structure(grid, 1, np.random.default_rng(3), FREQ)
        bad.write_bytes(_undecodable(response_text(synthesize_plane_wave_responses(s))))
        argv = ["extract", "--response", str(bad)]
    else:
        bad = tmp_path / "bad.s2p"
        data = TouchstoneData.from_matrices([FREQ], np.array([[[0.0, 1.0], [1.0, 0.0]]]), "ri")
        bad.write_bytes(_undecodable(touchstone_to_text(data)))
        scene = _friis_scene()
        scene["tunings"] = [{"name": "thru", "kind": "touchstone", "file": "bad.s2p"}]
        (tmp_path / "scene.yaml").write_text(yaml.safe_dump(scene))
        argv = ["solve", "--scene", str(tmp_path / "scene.yaml")]
    assert main(argv + ["--out", str(out)]) == 1
    assert f"{bad}: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


_DROP = object()


def _linear_sweep(start_m, stop_m):
    return {"kind": "distance", "spacing": "linear", "start_m": start_m, "stop_m": stop_m, "count": 3}


@pytest.mark.parametrize(
    "command, path, value, message",
    [
        ("channel", ("channel",), _DROP, "scene has no channel block"),
        ("gain-pattern", ("gain_pattern",), _DROP, "scene has no gain_pattern block"),
        ("channel", ("structures", 1, "position_m"), [0, 0, 0], "pair structures are co-located"),
        ("channel", ("channel", "ports"), [0], "channel ports must be a list of 2 entries"),
        ("channel", ("channel", "sweep", "start_m"), 0, "log-spaced channel sweep start_m must be positive"),
        ("channel", ("channel", "sweep", "kind"), "spiral", "unknown sweep kind 'spiral'"),
        ("solve", ("solve", "v_tx"), ["1", "1"], "solve block v_tx needs 1 entries, got 2"),
        (
            "gain-pattern",
            ("gain_pattern", "v_tx"),
            ["1", "1"],
            "gain_pattern block v_tx needs 1 entries, got 2",
        ),
        ("gain-pattern", ("gain_pattern", "v_tx"), ["0"], "drive has zero available power"),
        ("optimize", ("problem", "pattern"), {"count": "x"}, "pattern count must be a number"),
        ("channel", ("channel", "sweep", "stop_m"), 0, "channel sweep stop_m"),
        ("channel", ("channel", "sweep", "stop_m"), -5, "channel sweep stop_m"),
        ("channel", ("channel", "sweep"), _linear_sweep(-2, -1), "linear channel sweep start_m must be"),
        ("channel", ("channel", "sweep"), _linear_sweep(0, 5), "linear channel sweep start_m must be"),
        ("channel", ("channel", "sweep"), _linear_sweep(5, -1), "linear channel sweep stop_m must be"),
        # a drive whose powers overflow; pyproject.toml makes any RuntimeWarning on the way an error
        ("solve", ("solve", "v_tx"), ["1e200"], "solve drive overflows the power ledger: p_available_w is inf"),
        ("gain-pattern", ("gain_pattern", "v_tx"), ["1e200"], "gain_pattern drive has infinite available power"),
        # a finite vector whose length overflows; the scene reads it through real_vector, with no warning
        (
            "channel",
            ("structures", 1, "position_m"),
            [1e308, 1e308, 0],
            "structure 'rx' position_m length overflows the float range",
        ),
        (
            "channel",
            ("structures", 1, "rotation"),
            {"axis": [1e308, 1e308, 0], "angle_deg": 30},
            "structure 'rx' rotation axis length overflows the float range",
        ),
    ],
)
def test_malformed_task_block_is_a_user_error(tmp_path, capsys, command, path, value, message):
    scene = _optimize_scene() if command == "optimize" else _friis_scene()
    if value is _DROP:
        del scene[path[0]]
    else:
        _set(scene, path, value)
    code, err, out = _run_scene(tmp_path, command, scene, capsys)
    assert code == 1
    assert message in err
    # the optimize pattern is read before the ascent, so no result.txt is left behind
    assert not out.exists() or os.listdir(out) == []


def test_a_case_study_element_whose_length_overflows_is_a_user_error(tmp_path, capsys):
    with open(CASE_STUDY, "r", encoding="utf-8") as fh:
        scene = yaml.safe_load(fh)
    scene["structures"][0]["elements"][3]["position_m"] = [1e308, 0, 0]
    code, err, out = _run_scene(tmp_path, "optimize", scene, capsys)
    assert code == 1
    assert "error: structure 'array' elements[3] position_m length overflows the float range" in err
    assert not out.exists()


def test_linear_distance_sweep_is_evenly_spaced(tmp_path, capsys):
    scene = _friis_scene()
    scene["channel"]["sweep"]["spacing"] = "linear"
    code, _, out = _run_scene(tmp_path, "channel", scene, capsys)
    assert code == 0
    header, rows = _read_csv(out / "channel.csv")
    assert header == "d_m,re_s,im_s"
    assert [r[0] for r in rows] == [fmt(d) for d in np.linspace(1.0, 100.0, 25)]


def test_channel_without_sweep_writes_one_row_at_alpha_zero(tmp_path, capsys):
    scene = _friis_scene()
    del scene["channel"]["sweep"]
    code, _, out = _run_scene(tmp_path, "channel", scene, capsys)
    assert code == 0
    header, rows = _read_csv(out / "channel.csv")
    assert header == "alpha_deg,re_s,im_s"
    assert len(rows) == 1 and rows[0][0] == "0.0"
    s = far_channel(
        hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], make_latlon_grid(19, 36), FREQ),
        hertzian_dipole([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], make_latlon_grid(19, 36), FREQ),
        [0.0, 5.0, 0.0],
    )[0, 0]
    assert rows[0][1:] == [fmt(s.real), fmt(s.imag)]


def test_rotation_sweep_keeps_one_rotated_structure_alive(tmp_path, monkeypatch):
    scene = {
        "frequency_hz": FREQ,
        "grid": {"n_theta": 6, "n_phi": 8},
        "structures": [
            {"name": "tx", "kind": "dipole", "orientation": [1.0, 0.0, 0.0]},
            {"name": "rx", "kind": "dipole", "orientation": [1.0, 0.0, 0.0], "position_m": [0, 3, 0]},
        ],
        "channel": {"pair": ["tx", "rx"], "sweep": {"kind": "rotation", "count": 4}},
    }
    p = tmp_path / "twist.yaml"
    p.write_text(yaml.safe_dump(scene))
    built, alive = [], []  # weak references to the rotated structures; live ones per build
    structure = Scene.structure

    def tracked(self, name, extra_rotation=None):
        if extra_rotation is not None:
            alive.append(sum(ref() is not None for ref in built))
        s = structure(self, name, extra_rotation)
        if extra_rotation is not None:
            built.append(weakref.ref(s))
        return s

    monkeypatch.setattr(Scene, "structure", tracked)
    assert main(["channel", "--scene", str(p), "--out", str(tmp_path)]) == 0
    # each rotated structure is released before the next one is built
    assert alive == [0, 0, 0, 0]


def _case_study_scene():
    with open(CASE_STUDY, "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


_BASES = {"friis": _friis_scene, "optimize": _optimize_scene, "case_study": _case_study_scene}
_S = [["0", "1"], ["1", "0"]]
_ROTATION = {"axis": [0, 0, 1], "angle_deg": 5, "angle": 5}
_REACT = {"start": -80.0, "stop": 80.0, "count": 4, "step": 1.0}


def _tuning(**fields):
    return {"name": "thru", **fields}


# (command, base scene, path, value, block, key): the value set at the path
# holds one key, `key`, that the block `block` does not accept
@pytest.mark.parametrize(
    "command, base, path, value, block, key",
    [
        pytest.param("solve", "friis", ("frequency",), 5.4e9, "scene", "frequency", id="top"),
        pytest.param("solve", "friis", ("grid", "n_thetas"), 8, "grid", "n_thetas", id="grid"),
        pytest.param(
            "solve", "friis", ("structures", 0, "rotation_deg"), 10.0,
            "structure 'tx'", "rotation_deg", id="dipole",
        ),
        pytest.param(
            "optimize", "case_study", ("structures", 0, "enforce_pasivity"), True,
            "structure 'array'", "enforce_pasivity", id="dipole_array",
        ),
        pytest.param(
            "solve", "friis", ("structures", 0), {"name": "tx", "kind": "isotropic", "polar": 1},
            "structure 'tx'", "polar", id="isotropic",
        ),
        pytest.param(
            "channel", "friis", ("structures", 1),
            {"name": "rx", "kind": "from_files", "response_file": "rx.rsp", "orientation": []},
            "structure 'rx'", "orientation", id="from_files",
        ),
        pytest.param(
            "optimize", "optimize", ("structures", 0, "elements", 1, "position"), [0, 0, 0],
            "structure 'trio' elements[1]", "position", id="element",
        ),
        pytest.param(
            "optimize", "optimize", ("structures", 0, "coupling", "gama"), 1.0,
            "structure 'trio' coupling", "gama", id="coupling",
        ),
        pytest.param(
            "solve", "friis", ("structures", 0, "rotation"), _ROTATION,
            "structure 'tx' rotation", "angle", id="rotation",
        ),
        pytest.param(
            "solve", "friis", ("frontends", 0, "z_tx"), [50.0], "frontend 'matched'", "z_tx",
            id="frontend",
        ),
        pytest.param(
            "solve", "friis", ("tunings", 0, "ports"), 1, "tuning 'thru'", "ports", id="through",
        ),
        pytest.param(
            "solve", "friis", ("tunings", 0), _tuning(kind="inline", gains=["1"], n=1),
            "tuning 'thru'", "n", id="inline",
        ),
        pytest.param(
            "solve", "friis", ("tunings", 0), _tuning(kind="matrix", s=_S, gains=["1"]),
            "tuning 'thru'", "gains", id="matrix",
        ),
        pytest.param(
            "solve", "friis", ("tunings", 0), _tuning(kind="touchstone", file="t", fmt="ri"),
            "tuning 'thru'", "fmt", id="touchstone",
        ),
        # a tuning takes its frontend port count from its model's frontend
        pytest.param("solve", "friis", ("tunings", 0, "n"), 1, "tuning 'thru'", "n", id="through_n"),
        pytest.param(
            "solve", "friis", ("tunings", 0), _tuning(kind="matrix", s=_S, n=1), "tuning 'thru'", "n",
            id="matrix_n",
        ),
        pytest.param(
            "solve", "friis", ("tunings", 0), _tuning(kind="touchstone", file="t", n=1), "tuning 'thru'", "n",
            id="touchstone_n",
        ),
        pytest.param(
            "solve", "friis", ("models", 0, "frontends"), "matched",
            "model 'tx_model'", "frontends", id="model",
        ),
        pytest.param("solve", "friis", ("solve", "vtx"), ["1"], "solve block", "vtx", id="solve"),
        pytest.param(
            "gain-pattern", "friis", ("gain_pattern", "theta_step_deg"), 1.0,
            "gain_pattern", "theta_step_deg", id="gain_pattern",
        ),
        pytest.param("channel", "friis", ("channel", "port"), 0, "channel", "port", id="channel"),
        pytest.param(
            "channel", "friis", ("channel", "sweep", "stop"), 50.0, "channel sweep", "stop",
            id="distance_sweep",
        ),
        pytest.param(
            "channel", "friis", ("channel", "sweep"), {"kind": "rotation", "spacing": "log"},
            "channel sweep", "spacing", id="rotation_sweep",
        ),
        pytest.param(
            "optimize", "case_study", ("problem", "i_maxx"), 3, "problem", "i_maxx", id="problem",
        ),
        pytest.param(
            "optimize", "optimize", ("problem", "z_set", "resistnce"), 1.0,
            "problem z_set", "resistnce", id="z_set",
        ),
        pytest.param(
            "optimize", "optimize", ("problem", "z_set"), {"resistance": 1, "reactance": _REACT},
            "problem z_set reactance", "step", id="reactance",
        ),
        pytest.param(
            "optimize", "optimize", ("problem", "sigma", "ratios"), 0.5, "problem sigma", "ratios",
            id="sigma",
        ),
        pytest.param(
            "optimize", "optimize", ("problem", "pattern", "phi"), 0.0, "problem pattern", "phi",
            id="pattern",
        ),
    ],
)
def test_misspelled_scene_key_is_a_user_error(tmp_path, capsys, command, base, path, value, block,
                                              key):
    scene = _BASES[base]()
    _set(scene, path, value)
    code, err, out = _run_scene(tmp_path, command, scene, capsys)
    assert code == 1
    assert f"error: {block}: unknown field {key!r}" in err
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize(
    "command, path, field",
    [
        ("solve", ("frequency_hz",), "frequency_hz"),
        ("optimize", ("problem", "z_init_index"), "problem z_init_index"),
        ("channel", ("channel", "sweep", "count"), "channel sweep count"),
    ],
)
def test_null_scene_field_is_read_not_defaulted(tmp_path, capsys, command, path, field):
    scene = _optimize_scene() if command == "optimize" else _friis_scene()
    _set(scene, path, None)
    code, err, out = _run_scene(tmp_path, command, scene, capsys)
    assert code == 1
    assert f"{field} must be a number, got None" in err
    assert not out.exists() or os.listdir(out) == []
