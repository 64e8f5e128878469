"""The three benchmark workloads and their output checks.

Each workload is a sequence of named operations, one pass at a time: CLI
commands through ``remskit.cli.main`` and, for ``measured_kernels``, one
public library call. A pass returns the seconds spent in each operation;
``check_pass`` then reads the files the pass wrote and tests them against
invariants with fixed tolerances (never against stored bytes or quoted
numbers). Input generation and checks are never timed.

- ``rra_optimize``: ``optimize`` on the shipped reflector case study, the
  joint load-tuning / zero-forcing hot path (beamform, port reduction, gain
  operators, passivity SVD). The seed is the optimizer's rng seed.
- ``friis_link``: ``solve``, ``channel`` (25-point distance sweep) and
  ``gain-pattern`` on the shipped free-space scene, whose sweep range the
  seed draws. Scene parsing, the direct solve, point interpolation and CSV
  writing; no beamform, no passivity step.
- ``measured_kernels``: write a seeded random reciprocal structure as a
  plane-wave response file, ``extract`` its kernels, then a two-point
  rotation sweep over a scene that reads the file back. The only file-read
  and whole-kernel resampling path.
"""

from __future__ import annotations

import io
import logging
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np
import yaml

from remskit import beamform, channel, cli, farfield, radiating, solver
from remskit.scene import Scene


class OpFailed(Exception):
    """An operation exited nonzero or raised; ``op`` names it."""

    def __init__(self, op: str, message: str):
        super().__init__(f"{op}: {message}")
        self.op = op


def run_cli(op: str, argv: list) -> tuple[float, str]:
    """Time one ``remskit.cli.main`` call; returns (seconds, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        seconds = perf_counter() - t0
    if code != 0:
        raise OpFailed(op, f"exit code {code}: {err.getvalue().strip()}")
    return seconds, err.getvalue()


def read_csv_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def rel_err(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    """One workload: ``ops`` in pass order, set-up, pass, checks, counts."""

    name = ""
    ops: tuple = ()
    warmup_passes = 0  # untimed passes before the first measured one

    def __init__(self, root: str, work: str, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.out = os.path.join(work, "out")
        os.makedirs(self.out, exist_ok=True)

    def setup_once(self) -> float:
        """Seconds for Scene.load plus the first structure/model build."""
        raise NotImplementedError

    def run_pass(self) -> dict:
        """Run every op once; returns {op: seconds}. Raises OpFailed."""
        raise NotImplementedError

    def check_pass(self) -> list:
        """(op, message) for every failed output check of the last pass."""
        raise NotImplementedError

    def expected_counts(self) -> dict:
        """Traced layer call counts the last pass must show, from its outputs."""
        return {
            "beamform.evaluate_candidate": 0,
            "radiating.rotate_structure": 0,
            "channel.far_channel": 0,
        }

    def pass_metrics(self) -> dict:
        """Workload-specific numbers of the last pass, {name: (value, unit)}."""
        return {}

    def close(self) -> None:
        """Undo what the constructor hooked into remskit."""


# ---------------------------------------------------------------------------


class _SkipCounter(logging.Handler):
    """Counts the candidates coordinate_ascent logs as skipped."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class RraOptimize(Workload):
    name = "rra_optimize"
    ops = ("optimize",)

    def __init__(self, root, work, seed, scene_path=None):
        super().__init__(root, work, seed)
        self.scene_path = scene_path or os.path.join(root, "scenes", "rra_case_study.yaml")
        self.skips = _SkipCounter()
        logging.getLogger("remskit.beamform").addHandler(self.skips)
        # time coordinate_ascent where the CLI binds it
        self.ascent_s = 0.0
        inner = cli.coordinate_ascent

        def timed_ascent(*args, **kwargs):
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.ascent_s += perf_counter() - t0

        timed_ascent.__module__ = inner.__module__
        cli.coordinate_ascent = timed_ascent
        self._restore = inner
        self._problem = None
        self._base = None
        self._last = {}

    def close(self):
        cli.coordinate_ascent = self._restore
        logging.getLogger("remskit.beamform").removeHandler(self.skips)

    def setup_once(self):
        t0 = perf_counter()
        problem = Scene.load(self.scene_path).beamform_problem(seed_override=self.seed)
        seconds = perf_counter() - t0
        self._problem = problem
        return seconds

    def run_pass(self):
        self.skips.count = 0
        self.ascent_s = 0.0
        argv = ["optimize", "--scene", self.scene_path, "--seed", str(self.seed), "--out", self.out]
        seconds, _ = run_cli("optimize", argv)
        return {"optimize": seconds}

    def _reference(self):
        if self._problem is None:
            self.setup_once()
        if self._base is None:
            problem, builder = self._problem
            z0 = (problem.z_init,) * problem.r
            base = beamform.evaluate_candidate(problem, builder, z0, problem.sigma_schedule[0])
            model_0 = builder(z0)
            self._base = (
                solver.rems_gain(model_0, base.t[:, 0], problem.primary_dirs[0]),
                solver.rems_gain(model_0, base.t[:, 0], problem.secondary_dirs[0]),
            )
        return self._problem, self._base

    def check_pass(self):
        (problem, builder), (g0_pri, g0_sec) = self._reference()
        fails = []
        res = _parse_beamform_result(os.path.join(self.out, "result.txt"))
        trace = res["trace"]
        if not trace or any(b <= a for a, b in zip(trace, trace[1:])):
            fails.append(("optimize", "objective trace is not strictly increasing"))
        elif res["f_best"] != trace[-1]:
            fails.append(("optimize", "f_best is not the last trace value"))
        budget = problem.i_max * problem.r * len(problem.z_set)
        if res["evaluations"] + self.skips.count != budget:
            fails.append(
                ("optimize", f"{res['evaluations']} evaluations + {self.skips.count} skipped != {budget}")
            )
        z_r = tuple(problem.z_set[i] for i in res["z_indices"])
        if len(z_r) != problem.r or any(z != problem.z_set[i] for z, i in zip(res["z_r"], res["z_indices"])):
            fails.append(("optimize", "load lines disagree with the impedance set"))
            return fails
        model_f = builder(z_r)
        t = res["t"]
        h = beamform.h_co(model_f, problem.primary_dirs, problem.q_co)
        ht_dev = float(np.max(np.abs(h @ t - np.eye(len(problem.primary_dirs)))))
        if not ht_dev <= 1e-10:
            fails.append(("optimize", f"|HT - I| = {ht_dev:.3e} > 1e-10"))
        pri, sec = problem.primary_dirs[0], problem.secondary_dirs[0]
        gf_pri = solver.rems_gain(model_f, t[:, 0], pri)
        gf_sec = solver.rems_gain(model_f, t[:, 0], sec)
        drop_db = 10.0 * math.log10(g0_sec / gf_sec)
        delta_pri_db = 10.0 * math.log10(gf_pri / g0_pri)
        if not drop_db >= 10.0:
            fails.append(("optimize", f"protected direction drops {drop_db:.3f} dB < 10 dB"))
        if not delta_pri_db >= -3.0:
            fails.append(("optimize", f"primary direction changes {delta_pri_db:.3f} dB < -3 dB"))
        # the exported slice must read the same gain toward the user
        rows = read_csv_rows(os.path.join(self.out, "optimized_gain_stream0.csv"))
        theta_pri = round(math.degrees(pri.theta), 9)
        at_pri = [float(g) for th, g in rows if round(float(th), 9) == theta_pri]
        if len(at_pri) != 1 or not abs(at_pri[0] - 10.0 * math.log10(gf_pri)) <= 1e-9:
            fails.append(("optimize", "gain-pattern slice disagrees with rems_gain toward the user"))
        self._last = {
            "f_best": (res["f_best"], "objective"),
            "rejection_db": (drop_db, "dB"),
            "primary_change_db": (delta_pri_db, "dB"),
            "evals_per_s": (res["evaluations"] / self.ascent_s, "1/s"),
            "evaluations": (res["evaluations"], "count"),
            "skipped": (self.skips.count, "count"),
            "accepted": (len(trace), "count"),
        }
        return fails

    def expected_counts(self):
        counts = super().expected_counts()
        counts["beamform.evaluate_candidate"] = self._last["evaluations"][0] + self._last["skipped"][0]
        return counts

    def pass_metrics(self):
        return dict(self._last)


def _parse_beamform_result(path: str) -> dict:
    res = {"trace": [], "z_indices": [], "z_r": [], "t": {}}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "remskit-beamform-result v1":
        raise ValueError(f"{path}: bad header")
    for line in lines[1:]:
        tok = line.split()
        if tok[0] == "f_best":
            res["f_best"] = float(tok[1])
        elif tok[0] == "evaluations":
            res["evaluations"] = int(tok[1])
        elif tok[0] == "load":
            res["z_indices"].append(int(tok[2]))
            res["z_r"].append(complex(float(tok[3]), float(tok[4])))
        elif tok[0] == "t":
            res["t"][int(tok[1]), int(tok[2])] = complex(float(tok[3]), float(tok[4]))
        elif tok[0] == "trace":
            res["trace"].append(float(tok[2]))
    shape = tuple(max(k[i] for k in res["t"]) + 1 for i in (0, 1))
    t = np.zeros(shape, dtype=complex)
    for k, v in res["t"].items():
        t[k] = v
    res["t"] = t
    return res


# ---------------------------------------------------------------------------


class FriisLink(Workload):
    name = "friis_link"
    ops = ("solve", "channel", "gain_pattern")
    warmup_passes = 1

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        with open(os.path.join(root, "scenes", "friis.yaml"), encoding="utf-8") as fh:
            spec = yaml.safe_load(fh)
        rng = np.random.default_rng(seed)
        sweep = spec["channel"]["sweep"]
        sweep["start_m"] = float(rng.uniform(1.0, 2.0))
        sweep["stop_m"] = float(rng.uniform(50.0, 100.0))
        self.scene_path = os.path.join(work, "friis.yaml")
        with open(self.scene_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(spec, fh, sort_keys=False)
        self.spec = spec
        self.wavelength = radiating.C_LIGHT / float(spec["frequency_hz"])
        self._rows = 0
        self._last = {}

    def setup_once(self):
        t0 = perf_counter()
        Scene.load(self.scene_path).model(self.spec["solve"]["model"])
        return perf_counter() - t0

    def run_pass(self):
        common = ["--scene", self.scene_path, "--out", self.out]
        times = {
            "solve": run_cli("solve", ["solve", *common])[0],
            "channel": run_cli("channel", ["channel", *common])[0],
            "gain_pattern": run_cli("gain_pattern", ["gain-pattern", *common])[0],
        }
        self._last = {f"{op}_ms": (1e3 * s, "ms") for op, s in times.items()}
        return times

    def check_pass(self):
        fails = []
        rows = read_csv_rows(os.path.join(self.out, "channel.csv"))
        self._rows = len(rows)
        if len(rows) != int(self.spec["channel"]["sweep"]["count"]):
            fails.append(("channel", f"{len(rows)} sweep rows"))
        for d, re_s, im_s in rows:
            d = float(d)
            friis = 3.0 * self.wavelength / (8.0 * math.pi * d)
            if not rel_err(abs(complex(float(re_s), float(im_s))), friis) <= 1e-6:
                fails.append(("channel", f"|S({d:.4g} m)| is off the Friis value"))
                break
        powers = dict(read_csv_rows(os.path.join(self.out, "powers.csv")))
        p_a, p_t = float(powers["p_available_w"]), float(powers["p_transmit_w"])
        if not rel_err(p_t, p_a) <= 1e-12:
            fails.append(("solve", f"p_transmit {p_t!r} != available power {p_a!r}"))
        gains = {round(float(th), 9): float(g) for th, g in read_csv_rows(os.path.join(self.out, "gain_pattern.csv"))}
        if len(gains) != int(self.spec["gain_pattern"]["count"]) or not abs(gains.get(0.0, math.nan) - 1.76) <= 0.05:
            fails.append(("gain_pattern", "broadside gain is not 1.76 dB"))
        return fails

    def expected_counts(self):
        counts = super().expected_counts()
        counts["channel.far_channel"] = self._rows
        return counts

    def pass_metrics(self):
        return dict(self._last)


# ---------------------------------------------------------------------------


class MeasuredKernels(Workload):
    name = "measured_kernels"
    ops = ("response_write", "extract", "channel")
    frequency = 5.4e9

    # Two sweep points keep a pass near 2-3 s, so a 30 s run holds about ten
    # of them; with four (5-6 s passes) the run medians spread by up to the
    # gate's bound on a shared two-core machine.
    def __init__(self, root, work, seed, grid=(8, 16), points=2):
        super().__init__(root, work, seed)
        rng = np.random.default_rng(seed)
        g = farfield.make_latlon_grid(*grid)
        self.truth = radiating.random_reciprocal_structure(g, 2, rng, self.frequency)
        self.responses = radiating.synthesize_plane_wave_responses(self.truth)
        self.response_path = os.path.join(work, "panel_responses.txt")
        radiating.write_response_file(self.responses, self.response_path)
        self.port = int(rng.integers(0, 2))
        self.distance = float(rng.uniform(3.0, 6.0))
        self.points = points
        spec = {
            "frequency_hz": self.frequency,
            "grid": {"n_theta": grid[0], "n_phi": grid[1]},
            "structures": [
                {"name": "tx", "kind": "dipole", "orientation": [1.0, 0.0, 0.0]},
                {
                    "name": "panel",
                    "kind": "from_files",
                    "response_file": os.path.basename(self.response_path),
                    "position_m": [0.0, self.distance, 0.0],
                },
            ],
            "channel": {
                "pair": ["tx", "panel"],
                "ports": [self.port, 0],
                "sweep": {
                    "kind": "rotation",
                    "start_deg": 0.0,
                    "stop_deg": float(rng.uniform(60.0, 120.0)),
                    "count": points,
                },
            },
        }
        self.scene_path = os.path.join(work, "panel.yaml")
        with open(self.scene_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(spec, fh, sort_keys=False)
        self._s0 = None
        self._last = {}

    def setup_once(self):
        t0 = perf_counter()
        Scene.load(self.scene_path).structure("panel")
        return perf_counter() - t0

    def run_pass(self):
        t0 = perf_counter()
        try:
            radiating.write_response_file(self.responses, self.response_path)
        except OSError as exc:
            raise OpFailed("response_write", str(exc)) from exc
        write_s = perf_counter() - t0
        extract_s, err = run_cli(
            "extract", ["extract", "--response", self.response_path, "--out", self.out, "--tol", "1e-12"]
        )
        self._extract_stderr = err
        channel_s, _ = run_cli("channel", ["channel", "--scene", self.scene_path, "--out", self.out])
        self._last = {
            "response_write_s": (write_s, "s"),
            "extract_s": (extract_s, "s"),
            "rotation_point_s": (channel_s / self.points, "s"),
        }
        return {"response_write": write_s, "extract": extract_s, "channel": channel_s}

    def _unrotated_s(self) -> complex:
        if self._s0 is None:
            scene = Scene.load(self.scene_path)
            s1, s2 = scene.structure("tx"), scene.structure("panel")
            disp = scene.position("panel") - scene.position("tx")
            self._s0 = complex(channel.far_channel(s1, s2, disp)[self.port, 0])
        return self._s0

    def check_pass(self):
        fails = []
        if "asymmetry" in self._extract_stderr:
            fails.append(("extract", "extract reported kernel asymmetry"))
        rx, scatter = _parse_kernels(os.path.join(self.out, "kernels.txt"), self.truth)
        for what, got, want in (
            ("receive", rx, self.truth.rx_kernel),
            ("scattering", scatter, self.truth.scatter_kernel),
        ):
            dev = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
            if not dev <= 1e-10:
                fails.append(("extract", f"{what} kernel deviates by {dev:.3e} > 1e-10"))
        rows = read_csv_rows(os.path.join(self.out, "channel.csv"))
        self._rows = len(rows)
        if len(rows) != self.points:
            fails.append(("channel", f"{len(rows)} sweep rows, expected {self.points}"))
        elif float(rows[0][0]) != 0.0 or not rel_err(
            complex(float(rows[0][1]), float(rows[0][2])), self._unrotated_s()
        ) <= 1e-12:
            fails.append(("channel", "alpha = 0 point differs from the unrotated far channel"))
        return fails

    def expected_counts(self):
        counts = super().expected_counts()
        counts["radiating.rotate_structure"] = self.points
        counts["channel.far_channel"] = self._rows
        return counts

    def pass_metrics(self):
        return dict(self._last)


def _parse_kernels(path: str, truth) -> tuple[np.ndarray, np.ndarray]:
    """Receive and scattering kernels from an ``extract`` kernels.txt."""
    grid = truth.grid
    n = grid.size
    rx = np.full((truth.m_ports, n, 2), np.nan, dtype=complex)
    scatter = np.full((n, 2, n, 2), np.nan, dtype=complex)
    lookup = {
        (round(math.degrees(grid.theta[i]), 6), round(math.degrees(grid.phi[i]), 6)): i
        for i in range(n)
    }
    pol = {"theta": 0, "phi": 1}
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "remskit-kernels v1":
            raise ValueError(f"{path}: bad header")
        for line in fh:
            tok = line.split()
            if tok[0] == "rx":
                i = lookup[round(float(tok[2]), 6), round(float(tok[3]), 6)]
                rx[int(tok[1]), i] = (
                    complex(float(tok[4]), float(tok[5])),
                    complex(float(tok[6]), float(tok[7])),
                )
            elif tok[0] == "scatter":
                i = lookup[round(float(tok[1]), 6), round(float(tok[2]), 6)]
                j = lookup[round(float(tok[4]), 6), round(float(tok[5]), 6)]
                scatter[i, pol[tok[3]], j, pol[tok[6]]] = complex(float(tok[7]), float(tok[8]))
    return rx, scatter


WORKLOADS = {w.name: w for w in (RraOptimize, FriisLink, MeasuredKernels)}
