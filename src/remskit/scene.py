"""Scene files: declarative YAML descriptions of structures, frontends,
tuning networks, models, and tasks (solve, channel sweep, gain pattern,
beamform problem).

Angles are degrees and impedances are ohms at this boundary. Complex values
are written as strings ("1.2-14j") or bare reals. File references are
resolved relative to the scene file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from .beamform import BeamformProblem, x_copol
from .errors import ModelError
from .farfield import Direction, DirectionGrid, make_latlon_grid
from .network import (
    RFFrontend,
    TuningNetwork,
    feedthrough_reflector_fixed,
    inline_tuning,
    read_touchstone,
    through_tuning,
)
from .radiating import (
    RadiatingStructure,
    dipole_array,
    hertzian_dipole,
    isotropic_radiator,
    read_response_file,
    rotate_structure,
    structure_from_responses,
    synthetic_coupling,
    wavenumber,
)
from .solver import ReconfigurableBuilder, ReMSModel


def parse_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError:
            raise ModelError(f"cannot parse complex value {value!r}") from None
    raise ModelError(f"cannot parse complex value {value!r}")


def parse_complex_list(values) -> np.ndarray:
    return np.array([parse_complex(v) for v in values], dtype=complex)


def parse_direction(pair) -> Direction:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ModelError(f"direction must be [theta_deg, phi_deg], got {pair!r}")
    return Direction.from_degrees(float(pair[0]), float(pair[1]))


def rotation_matrix(axis, angle_deg: float) -> np.ndarray:
    """Rodrigues rotation about `axis` by angle_deg."""
    u = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(u)
    if norm == 0.0:
        raise ModelError("rotation axis must be nonzero")
    u = u / norm
    a = math.radians(angle_deg)
    ux = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return math.cos(a) * np.eye(3) + math.sin(a) * ux + (1 - math.cos(a)) * np.outer(u, u)


def _require(mapping, key, where):
    if key not in mapping:
        raise ModelError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _named_list(entries, where) -> dict:
    out = {}
    for entry in entries or []:
        name = _require(entry, "name", where)
        if name in out:
            raise ModelError(f"{where}: duplicate name {name!r}")
        out[name] = entry
    return out


@dataclass
class Scene:
    frequency: float
    r0: float
    grid: DirectionGrid
    base_dir: str
    structures: dict = field(repr=False)
    frontends: dict = field(repr=False)
    tunings: dict = field(repr=False)
    models: dict = field(repr=False)
    channel_spec: dict | None = None
    solve_spec: dict | None = None
    gain_pattern_spec: dict | None = None
    problem_spec: dict | None = None

    # ------------------------------------------------------------------ io

    @classmethod
    def load(cls, path: str) -> "Scene":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = yaml.safe_load(fh)
        except yaml.YAMLError as err:
            raise ModelError(f"scene parse error: {err}") from None
        if not isinstance(raw, dict):
            raise ModelError("scene file must contain a mapping")
        return cls.from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))

    @classmethod
    def from_dict(cls, raw: dict, base_dir: str = ".") -> "Scene":
        frequency = float(_require(raw, "frequency_hz", "scene"))
        if not (math.isfinite(frequency) and frequency > 0.0):
            raise ModelError("frequency_hz must be positive and finite")
        r0 = float(raw.get("r0_ohms", 50.0))
        grid_spec = _require(raw, "grid", "scene")
        grid = make_latlon_grid(
            int(_require(grid_spec, "n_theta", "scene grid")),
            int(_require(grid_spec, "n_phi", "scene grid")),
        )
        return cls(
            frequency=frequency,
            r0=r0,
            grid=grid,
            base_dir=base_dir,
            structures=_named_list(raw.get("structures"), "structures"),
            frontends=_named_list(raw.get("frontends"), "frontends"),
            tunings=_named_list(raw.get("tunings"), "tunings"),
            models=_named_list(raw.get("models"), "models"),
            channel_spec=raw.get("channel"),
            solve_spec=raw.get("solve"),
            gain_pattern_spec=raw.get("gain_pattern"),
            problem_spec=raw.get("problem"),
        )

    def resolve_path(self, p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(self.base_dir, p)

    # ------------------------------------------------------------ builders

    def structure_spec(self, name: str) -> dict:
        if name not in self.structures:
            raise ModelError(f"unknown structure {name!r}")
        return self.structures[name]

    def position(self, name: str) -> np.ndarray:
        spec = self.structure_spec(name)
        return np.asarray(spec.get("position_m", [0.0, 0.0, 0.0]), dtype=float)

    def structure(self, name: str, extra_rotation: np.ndarray | None = None) -> RadiatingStructure:
        """Build a structure; extra_rotation is applied about its own position.

        Analytic kinds rebuild from rotated geometry (exact); file-backed
        kinds fall back to kernel resampling.
        """
        spec = self.structure_spec(name)
        kind = _require(spec, "kind", f"structure {name!r}")
        rot = None
        if "rotation" in spec:
            rot = rotation_matrix(
                _require(spec["rotation"], "axis", f"structure {name!r} rotation"),
                float(_require(spec["rotation"], "angle_deg", f"structure {name!r} rotation")),
            )
        if extra_rotation is not None:
            rot = extra_rotation @ rot if rot is not None else extra_rotation

        def rotated(vec):
            v = np.asarray(vec, dtype=float)
            return rot @ v if rot is not None else v

        if kind == "dipole":
            orientation = rotated(_require(spec, "orientation", f"structure {name!r}"))
            return hertzian_dipole(orientation, [0.0, 0.0, 0.0], self.grid, self.frequency)
        if kind == "dipole_array":
            elements = []
            for el in _require(spec, "elements", f"structure {name!r}"):
                orientation = rotated(_require(el, "orientation", f"structure {name!r} element"))
                position = rotated(el.get("position_m", [0.0, 0.0, 0.0]))
                elements.append((orientation, position))
            coupling = None
            if "coupling" in spec:
                gamma = float(_require(spec["coupling"], "gamma", f"structure {name!r} coupling"))
                coupling = synthetic_coupling(
                    [p for _, p in elements], wavenumber(self.frequency), gamma
                )
            return dipole_array(
                elements,
                self.grid,
                self.frequency,
                coupling=coupling,
                enforce_passivity=bool(spec.get("enforce_passivity", False)),
            )
        if kind == "isotropic":
            if rot is not None:
                raise ModelError(f"structure {name!r}: isotropic patterns cannot be rotated")
            return isotropic_radiator(self.grid, self.frequency, pol=spec.get("pol", "theta"))
        if kind == "from_files":
            resp = read_response_file(
                self.resolve_path(_require(spec, "response_file", f"structure {name!r}"))
            )
            if not resp.grid.compatible(self.grid):
                raise ModelError(
                    f"structure {name!r}: response grid ({resp.grid.n_theta}, "
                    f"{resp.grid.n_phi}) does not match the scene grid"
                )
            if resp.frequency != self.frequency:
                raise ModelError(f"structure {name!r}: response frequency differs from scene")
            built = structure_from_responses(resp)
            return rotate_structure(built, rot) if rot is not None else built
        raise ModelError(f"structure {name!r}: unknown kind {kind!r}")

    def frontend(self, name: str) -> RFFrontend:
        if name not in self.frontends:
            raise ModelError(f"unknown frontend {name!r}")
        spec = self.frontends[name]
        return RFFrontend(
            z_tx=parse_complex_list(spec.get("z_tx_ohms", [])),
            z_rx=parse_complex_list(spec.get("z_rx_ohms", [])),
            r0=self.r0,
        )

    def tuning(self, name: str) -> TuningNetwork:
        if name not in self.tunings:
            raise ModelError(f"unknown tuning {name!r}")
        spec = self.tunings[name]
        kind = _require(spec, "kind", f"tuning {name!r}")
        if kind == "through":
            return through_tuning(int(_require(spec, "n", f"tuning {name!r}")))
        if kind == "inline":
            return inline_tuning(parse_complex_list(_require(spec, "gains", f"tuning {name!r}")))
        if kind == "matrix":
            rows = _require(spec, "s", f"tuning {name!r}")
            s = np.array([[parse_complex(v) for v in row] for row in rows])
            return TuningNetwork(int(_require(spec, "n", f"tuning {name!r}")), s.shape[0] - int(spec["n"]), s)
        if kind == "touchstone":
            data = read_touchstone(self.resolve_path(_require(spec, "file", f"tuning {name!r}")))
            freqs = data.frequencies_hz
            match = np.nonzero(np.isclose(freqs, self.frequency, rtol=1e-6, atol=0.0))[0]
            if match.size == 0:
                raise ModelError(
                    f"tuning {name!r}: no entry at {self.frequency} Hz in the file"
                )
            n = int(_require(spec, "n", f"tuning {name!r}"))
            s = data.matrices[int(match[0])]
            return TuningNetwork(n, s.shape[0] - n, s)
        raise ModelError(f"tuning {name!r}: unknown kind {kind!r}")

    def model(self, name: str) -> ReMSModel:
        if name not in self.models:
            raise ModelError(f"unknown model {name!r}")
        spec = self.models[name]
        return ReMSModel(
            structure=self.structure(_require(spec, "structure", f"model {name!r}")),
            tuning=self.tuning(_require(spec, "tuning", f"model {name!r}")),
            frontend=self.frontend(_require(spec, "frontend", f"model {name!r}")),
        )

    # ------------------------------------------------------------- problem

    def beamform_problem(self, seed_override: int | None = None):
        """(BeamformProblem, ReconfigurableBuilder) from the scene's problem block."""
        if self.problem_spec is None:
            raise ModelError("scene has no problem block")
        spec = self.problem_spec
        structure = self.structure(_require(spec, "structure", "problem"))
        frontend = self.frontend(_require(spec, "frontend", "problem"))
        n, m = frontend.n, structure.m_ports

        z_spec = _require(spec, "z_set", "problem")
        if "values" in z_spec:
            z_set = tuple(parse_complex(v) for v in z_spec["values"])
        else:
            resistance = float(_require(z_spec, "resistance", "problem z_set"))
            react = _require(z_spec, "reactance", "problem z_set")
            xs = np.linspace(
                float(react["start"]), float(react["stop"]), int(react["count"])
            )
            z_set = tuple(complex(resistance, x) for x in xs)

        r = int(_require(spec, "r", "problem"))
        fixed_kind = spec.get("fixed", "feedthrough_reflector")
        if fixed_kind != "feedthrough_reflector":
            raise ModelError(f"problem: unknown fixed network kind {fixed_kind!r}")
        model_builder = ReconfigurableBuilder(
            structure, frontend, feedthrough_reflector_fixed(n, m, r)
        )

        sigma_spec = spec.get("sigma", {})
        from .beamform import geometric_schedule

        schedule = geometric_schedule(
            initial=float(sigma_spec.get("initial", 20.0)),
            ratio=float(sigma_spec.get("ratio", 0.5)),
            count=int(sigma_spec.get("count", spec.get("i_max", 10))),
        )
        seed = int(spec.get("seed", 0)) if seed_override is None else int(seed_override)

        problem = BeamformProblem(
            r=r,
            z_set=z_set,
            primary_dirs=tuple(parse_direction(p) for p in _require(spec, "primary_deg", "problem")),
            secondary_dirs=tuple(parse_direction(p) for p in spec.get("secondary_deg", [])),
            q_co=x_copol,
            z_init=z_set[int(spec.get("z_init_index", 0))],
            i_max=int(spec.get("i_max", 10)),
            sigma_schedule=schedule,
            rng_seed=seed,
        )
        return problem, model_builder
