"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402
from remskit import beamform, cli, solver  # noqa: E402
from remskit.scene import Scene  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture(scope="module")
def tiny_options(tmp_path_factory):
    """Constructor options that shrink each workload to well under a second."""
    with open(os.path.join(ROOT, "scenes", "rra_case_study.yaml"), encoding="utf-8") as fh:
        spec = yaml.safe_load(fh)
    spec["grid"] = {"n_theta": 8, "n_phi": 16}
    spec["problem"]["z_set"]["reactance"]["count"] = 8
    spec["problem"]["i_max"] = 2
    spec["problem"]["sigma"] = {"initial": 0.1, "ratio": 0.5, "count": 2}
    path = tmp_path_factory.mktemp("tiny") / "rra_tiny.yaml"
    path.write_text(yaml.safe_dump(spec, sort_keys=False), encoding="utf-8")
    return {
        "rra_optimize": {"scene_path": str(path)},
        "friis_link": {},
        "measured_kernels": {"grid": (4, 8), "points": 2},
    }


def bench(capsys, options, workload, seed=1, trace=0):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv, workload_options=options[workload]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["rra_optimize", "friis_link", "measured_kernels"])
def test_smoke_run_emits_every_metric_with_its_unit(capsys, tiny_options, workload, trace):
    lines, result = bench(capsys, tiny_options, workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
        assert f"metric {m['name']} {got['value']!r} {m['unit']}" in lines
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["rra_optimize", "measured_kernels"])
def test_second_seed_passes_its_checks(capsys, tiny_options, workload):
    _, result = bench(capsys, tiny_options, workload, seed=2)
    assert result["correct"] is True and result["failed"] == 0


def test_smoke_run_prints_the_unscaled_times(capsys, tiny_options):
    lines, result = bench(capsys, tiny_options, "friis_link")
    unscaled = {line.split()[1]: float(line.split()[2]) for line in lines if line.startswith("unscaled ")}
    assert set(unscaled) == {"wall_s", "setup_s", "calibration_loop_ms"}
    assert all(v > 0 for v in unscaled.values())


def test_calibration_scales_by_the_median_loop_time(monkeypatch):
    loops = iter([0.02, 0.04, 0.03, 0.05, 0.01])
    monkeypatch.setattr(hostspeed, "BLOCK", 1)
    monkeypatch.setattr(hostspeed, "loop", lambda: next(loops))
    calibration = hostspeed.Calibration()
    for _ in range(5):
        calibration.sample()
    assert calibration.loop_s() == 0.03
    assert calibration.scale(6.0) == pytest.approx(6.0 * hostspeed.REFERENCE_S / 0.03)


def test_perturbed_precoder_counts_as_failed(capsys, tiny_options, monkeypatch):
    exact = beamform.zf_precoder
    monkeypatch.setattr(beamform, "zf_precoder", lambda h: exact(h) * (1.0 + 1e-6))
    _, result = bench(capsys, tiny_options, "rra_optimize")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_wrong_channel_counts_as_failed(capsys, tiny_options, monkeypatch):
    exact = cli.far_channel
    monkeypatch.setattr(cli, "far_channel", lambda *a, **k: exact(*a, **k) * 1.001)
    _, result = bench(capsys, tiny_options, "friis_link")
    assert result["correct"] is False
    # only the channel command is wrong: one failed op out of three per pass
    assert 3 * result["failed"] == result["attempted"]


def test_unreconciled_trace_counts_as_failed(capsys, tiny_options, monkeypatch):
    honest = workloads.FriisLink.expected_counts

    def off_by_one(self):
        counts = honest(self)
        counts["channel.far_channel"] += 1
        return counts

    monkeypatch.setattr(workloads.FriisLink, "expected_counts", off_by_one)
    _, result = bench(capsys, tiny_options, "friis_link", trace=1)
    assert result["correct"] is False and result["failed"] > 0


def test_tracer_counts_calls_through_every_binding():
    model = Scene.load(os.path.join(ROOT, "scenes", "friis.yaml")).model("tx_model")
    original = solver.gain_operators
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        assert cli.gain_operators is not original
        for site in (solver, beamform, cli):
            site.gain_operators(model)
        solver.rems_gain(model, [1.0], beamform.Direction(0.1, 0.2))
    elapsed = time.perf_counter() - t0
    assert cli.gain_operators is original and beamform.gain_operators is original
    stats = tracer.stats
    assert stats["solver.gain_operators"].calls == 4
    assert stats["solver.rems_gain"].calls == 1
    # self times partition the traced time: no span is counted twice
    assert all(st.self_s >= 0.0 for st in stats.values())
    assert sum(st.self_s for st in stats.values()) <= elapsed


def test_tracer_records_bytes_of_written_files(tmp_path):
    tracer = Tracer()
    with tracer:
        cli.atomic_write_text(str(tmp_path / "a.txt"), "x" * 10)
        cli.atomic_write_text(str(tmp_path / "b.txt"), "y" * 5)
    st = tracer.stats["cli.atomic_write_text"]
    assert (st.calls, st.bytes, st.errors) == (2, 15, 0)


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(BENCH, "layer_map.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    mapped = [name for layer in layers for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    names = {w["name"] for w in SPEC["workloads"]}
    gated = {m["name"] for m in SPEC["end_to_end"]}
    for layer in layers:
        assert set(layer["exercised_by"]) | set(layer["bypassed_by"]) <= names
        assert set(layer["gated"]) <= gated


def test_runs_fail_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "friis_link", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
