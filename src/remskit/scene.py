"""Scene files: declarative YAML descriptions of structures, frontends,
tuning networks, models, and tasks (solve, channel sweep, gain pattern,
beamform problem).

Angles are degrees and impedances are ohms at this boundary. Complex values
are written as strings ("1.2-14j") or bare reals. File references are
resolved relative to the scene file.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from .beamform import BeamformProblem, geometric_schedule, x_copol
from ._textio import number
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


def _vector3(value, where: str) -> np.ndarray:
    """The 3-vector field `where`, each entry through number()."""
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ModelError(f"{where} must be a list of 3 numbers, got {value!r}")
    return np.array([number(x, where) for x in value])


def parse_complex(value) -> complex:
    try:
        z = complex(value.replace(" ", "") if isinstance(value, str) else value)
    except (TypeError, ValueError):
        raise ModelError(f"cannot parse complex value {value!r}") from None
    if not cmath.isfinite(z):
        raise ModelError(f"complex value {value!r} is not finite")
    return z


def parse_complex_list(values) -> np.ndarray:
    if not isinstance(values, (list, tuple)):
        raise ModelError(f"expected a list of complex values, got {values!r}")
    return np.array([parse_complex(v) for v in values], dtype=complex)


def parse_direction(pair) -> Direction:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ModelError(f"direction must be [theta_deg, phi_deg], got {pair!r}")
    return Direction.from_degrees(
        number(pair[0], "direction theta_deg"), number(pair[1], "direction phi_deg")
    )


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


def _mapping(value, where):
    if not isinstance(value, dict):
        raise ModelError(f"{where} must be a mapping, got {value!r}")
    return value


def _require(mapping, key, where):
    if key not in _mapping(mapping, where):
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
        frequency = number(_require(raw, "frequency_hz", "scene"), "frequency_hz")
        if frequency <= 0.0:
            raise ModelError("frequency_hz must be positive and finite")
        r0 = number(raw.get("r0_ohms", 50.0), "r0_ohms")
        grid_spec = _require(raw, "grid", "scene")
        grid = make_latlon_grid(
            number(_require(grid_spec, "n_theta", "scene grid"), "grid n_theta", int),
            number(_require(grid_spec, "n_phi", "scene grid"), "grid n_phi", int),
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
        position = spec.get("position_m", [0.0, 0.0, 0.0])
        return _vector3(position, f"structure {name!r} position_m")

    def structure(self, name: str, extra_rotation: np.ndarray | None = None) -> RadiatingStructure:
        """Build a structure; extra_rotation is applied about its own position.

        Analytic kinds rebuild from rotated geometry (exact); file-backed
        kinds fall back to kernel resampling.
        """
        spec = self.structure_spec(name)
        kind = _require(spec, "kind", f"structure {name!r}")
        rot = None
        if "rotation" in spec:
            where = f"structure {name!r} rotation"
            rot = rotation_matrix(
                _vector3(_require(spec["rotation"], "axis", where), f"{where} axis"),
                number(_require(spec["rotation"], "angle_deg", where), f"{where} angle_deg"),
            )
        if extra_rotation is not None:
            rot = extra_rotation @ rot if rot is not None else extra_rotation

        def rotated(vec, field):
            v = _vector3(vec, f"structure {name!r} {field}")
            return rot @ v if rot is not None else v

        if kind == "dipole":
            orientation = rotated(_require(spec, "orientation", f"structure {name!r}"), "orientation")
            return hertzian_dipole(orientation, [0.0, 0.0, 0.0], self.grid, self.frequency)
        if kind == "dipole_array":
            elements = []
            for el in _require(spec, "elements", f"structure {name!r}"):
                orientation = rotated(
                    _require(el, "orientation", f"structure {name!r} element"), "element orientation"
                )
                position = rotated(el.get("position_m", [0.0, 0.0, 0.0]), "element position_m")
                elements.append((orientation, position))
            coupling = None
            if "coupling" in spec:
                gamma = number(
                    _require(spec["coupling"], "gamma", f"structure {name!r} coupling"),
                    f"structure {name!r} coupling gamma",
                )
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

        def ports():
            return number(_require(spec, "n", f"tuning {name!r}"), f"tuning {name!r} n", int, 0)

        if kind == "through":
            return through_tuning(ports())
        if kind == "inline":
            return inline_tuning(parse_complex_list(_require(spec, "gains", f"tuning {name!r}")))
        if kind == "matrix":
            rows = _require(spec, "s", f"tuning {name!r}")
            if not isinstance(rows, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) and len(row) == len(rows) for row in rows
            ):
                raise ModelError(f"tuning {name!r} s must be a square list of rows, got {rows!r}")
            s = np.array([[parse_complex(v) for v in row] for row in rows])
            n = ports()
            return TuningNetwork(n, s.shape[0] - n, s)
        if kind == "touchstone":
            data = read_touchstone(self.resolve_path(_require(spec, "file", f"tuning {name!r}")))
            freqs = data.frequencies_hz
            match = np.nonzero(np.isclose(freqs, self.frequency, rtol=1e-6, atol=0.0))[0]
            if match.size == 0:
                raise ModelError(
                    f"tuning {name!r}: no entry at {self.frequency} Hz in the file"
                )
            n = ports()
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
            resistance = number(
                _require(z_spec, "resistance", "problem z_set"), "problem z_set resistance"
            )
            react = _require(z_spec, "reactance", "problem z_set")
            where = "problem z_set reactance"
            xs = np.linspace(
                number(_require(react, "start", where), f"{where} start"),
                number(_require(react, "stop", where), f"{where} stop"),
                number(_require(react, "count", where), f"{where} count", int, 1),
            )
            z_set = tuple(complex(resistance, x) for x in xs)

        r = number(_require(spec, "r", "problem"), "problem r", int, 0)
        fixed_kind = spec.get("fixed", "feedthrough_reflector")
        if fixed_kind != "feedthrough_reflector":
            raise ModelError(f"problem: unknown fixed network kind {fixed_kind!r}")
        model_builder = ReconfigurableBuilder(
            structure, frontend, feedthrough_reflector_fixed(n, m, r)
        )

        sigma_spec = _mapping(spec.get("sigma", {}), "problem sigma")
        i_max = number(spec.get("i_max", 10), "problem i_max", int, 0)
        schedule = geometric_schedule(
            initial=number(sigma_spec.get("initial", 20.0), "problem sigma initial"),
            ratio=number(sigma_spec.get("ratio", 0.5), "problem sigma ratio"),
            count=number(sigma_spec.get("count", i_max), "problem sigma count", int, 0),
        )
        seed = spec.get("seed", 0) if seed_override is None else seed_override
        seed = number(seed, "problem seed", int, 0)
        z_init_index = number(spec.get("z_init_index", 0), "problem z_init_index", int, 0)
        if z_init_index >= len(z_set):
            raise ModelError(f"problem z_init_index {z_init_index} outside a {len(z_set)}-entry z_set")

        problem = BeamformProblem(
            r=r,
            z_set=z_set,
            primary_dirs=tuple(parse_direction(p) for p in _require(spec, "primary_deg", "problem")),
            secondary_dirs=tuple(parse_direction(p) for p in spec.get("secondary_deg", [])),
            q_co=x_copol,
            z_init=z_set[z_init_index],
            i_max=i_max,
            sigma_schedule=schedule,
            rng_seed=seed,
        )
        return problem, model_builder
