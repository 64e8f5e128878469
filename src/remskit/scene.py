"""Scene files: declarative YAML descriptions of structures, frontends,
tuning networks, models, and tasks (solve, channel sweep, gain pattern,
beamform problem).

This module is the only reader of the scene format: builders return library
objects, task readers (`*_task`, `beamform_problem`, `pattern_slices`) return
plain values, and a malformed field raises a ModelError that names it.

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
from ._textio import number, read_text
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


# A YAML text nests no deeper than its count of characters that can open a
# collection. The pure-Python loader raises RecursionError near 500 levels;
# libyaml's composer recurses on the C stack without a limit, and a text
# nested 25000 deep ended the process with SIGSEGV. A text with at most this
# many openers is shallow enough for both.
_C_LOADER_MAX_OPENERS = 400

# The most samples a scene count (grid directions, gain slice, channel sweep,
# reactance set) may ask for; every count is read before anything count-sized
# is allocated.
MAX_COUNT = 100_000


def latlon_grid(n_theta: int, n_phi: int) -> DirectionGrid:
    """make_latlon_grid(n_theta, n_phi), refused above MAX_COUNT directions."""
    if n_theta * n_phi > MAX_COUNT:
        raise ModelError(f"grid n_theta*n_phi must be at most {MAX_COUNT}, got {n_theta * n_phi}")
    return make_latlon_grid(n_theta, n_phi)


def _yaml_loader(text: str):
    """The PyYAML loader for `text`: libyaml's CSafeLoader where the install
    has it and the text is shallow enough for both loaders, else SafeLoader.

    Both share SafeConstructor and the resolver, so they return equal objects;
    the C loader parses the shipped scenes about 6x faster.
    """
    if sum(map(text.count, "[{-?:")) <= _C_LOADER_MAX_OPENERS:
        return getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    return yaml.SafeLoader


def _sequence(value, where: str, length: int | None = None):
    """The list field `where`, of `length` entries if given."""
    if not isinstance(value, (list, tuple)) or (length is not None and len(value) != length):
        size = "" if length is None else f" of {length} entries"
        raise ModelError(f"{where} must be a list{size}, got {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ModelError(f"{where} must be a string, got {value!r}")
    return value


def _vector3(value, where: str) -> np.ndarray:
    """The 3-vector field `where`, each entry through number()."""
    return np.array([number(x, where) for x in _sequence(value, where, 3)])


def parse_complex(value) -> complex:
    try:
        z = complex(value.replace(" ", "") if isinstance(value, str) else value)
    except (TypeError, ValueError):
        raise ModelError(f"cannot parse complex value {value!r}") from None
    if not cmath.isfinite(z):
        raise ModelError(f"complex value {value!r} is not finite")
    return z


def parse_complex_list(values, where: str) -> np.ndarray:
    """The complex list field `where`; a malformed list or entry raises a ModelError naming it."""
    if not isinstance(values, (list, tuple)):
        raise ModelError(f"{where}: expected a list of complex values, got {values!r}")
    try:
        return np.array([parse_complex(v) for v in values], dtype=complex)
    except ModelError as err:
        raise ModelError(f"{where}: {err}") from None


def parse_direction(pair) -> Direction:
    theta, phi = _sequence(pair, "direction [theta_deg, phi_deg]", 2)
    return Direction.from_degrees(
        number(theta, "direction theta_deg"), number(phi, "direction phi_deg")
    )


def _directions(pairs, where: str) -> tuple:
    return tuple(parse_direction(p) for p in _sequence(pairs, where))


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


def _block(blocks: dict, kind: str, name) -> dict:
    """The spec of the named block; a name that is not a string names no block."""
    if _string(name, f"{kind} name") not in blocks:
        raise ModelError(f"unknown {kind} {name!r}")
    return blocks[name]


def _named_list(entries, where) -> dict:
    out = {}
    for entry in _sequence([] if entries is None else entries, where):
        name = _string(_require(entry, "name", where), f"{where} name")
        if name in out:
            raise ModelError(f"{where}: duplicate name {name!r}")
        out[name] = entry
    return out


def _drive(spec: dict, key: str, size: int, where: str, required: bool = False):
    """The complex drive spec[key] of `size` entries; None if optional and absent."""
    if not required and key not in spec:
        return None
    field = f"{where} {key}"
    values = parse_complex_list(_sequence(_require(spec, key, where), field), field)
    if values.shape != (size,):
        raise ModelError(f"{field} needs {size} entries, got {values.shape[0]}")
    return values


def _gain_slice(spec: dict, where: str, phi_deg: float):
    """(theta samples, phi) in degrees of a gain-vs-theta slice spec."""
    thetas = np.linspace(
        number(spec.get("theta_start_deg", -90.0), f"{where} theta_start_deg"),
        number(spec.get("theta_stop_deg", 90.0), f"{where} theta_stop_deg"),
        number(spec.get("count", 181), f"{where} count", int, 1, MAX_COUNT),
    )
    return thetas, number(spec.get("phi_deg", phi_deg), f"{where} phi_deg")


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
    # the task blocks present in the file, by key; read only through _task
    _tasks: dict = field(default_factory=dict, repr=False)
    # from_files structures as extracted, before any rotation: a file is read once per scene
    _extracted: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------ io

    @classmethod
    def load(cls, path: str) -> "Scene":
        try:
            text = read_text(path)
            raw = yaml.load(text, Loader=_yaml_loader(text))
        except (yaml.YAMLError, RecursionError) as err:
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
        grid = latlon_grid(
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
            _tasks={k: raw[k] for k in ("solve", "channel", "gain_pattern", "problem") if k in raw},
        )

    def _file(self, spec: dict, key: str, where: str) -> str:
        path = _string(_require(spec, key, where), f"{where} {key}")
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)

    # ------------------------------------------------------------ builders

    def position(self, name: str) -> np.ndarray:
        position = _block(self.structures, "structure", name).get("position_m", [0.0, 0.0, 0.0])
        return _vector3(position, f"structure {name!r} position_m")

    def structure(self, name: str, extra_rotation: np.ndarray | None = None) -> RadiatingStructure:
        """Build a structure; extra_rotation is applied about its own position.

        Analytic kinds rebuild from rotated geometry (exact); file-backed
        kinds fall back to kernel resampling.
        """
        spec = _block(self.structures, "structure", name)
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
            for el in _sequence(
                _require(spec, "elements", f"structure {name!r}"), f"structure {name!r} elements"
            ):
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
            passive = spec.get("enforce_passivity", False)
            if not isinstance(passive, bool):
                raise ModelError(
                    f"structure {name!r} enforce_passivity must be true or false, got {passive!r}"
                )
            return dipole_array(
                elements, self.grid, self.frequency, coupling=coupling, enforce_passivity=passive
            )
        if kind == "isotropic":
            if rot is not None:
                raise ModelError(f"structure {name!r}: isotropic patterns cannot be rotated")
            pol = _string(spec.get("pol", "theta"), f"structure {name!r} pol")
            return isotropic_radiator(self.grid, self.frequency, pol=pol)
        if kind == "from_files":
            if name not in self._extracted:
                resp = read_response_file(self._file(spec, "response_file", f"structure {name!r}"))
                if not resp.grid.compatible(self.grid):
                    raise ModelError(
                        f"structure {name!r}: response grid ({resp.grid.n_theta}, "
                        f"{resp.grid.n_phi}) does not match the scene grid"
                    )
                if resp.frequency != self.frequency:
                    raise ModelError(f"structure {name!r}: response frequency differs from scene")
                self._extracted[name] = structure_from_responses(resp)
            built = self._extracted[name]
            return rotate_structure(built, rot) if rot is not None else built
        raise ModelError(f"structure {name!r}: unknown kind {kind!r}")

    def frontend(self, name: str) -> RFFrontend:
        spec = _block(self.frontends, "frontend", name)
        return RFFrontend(
            z_tx=parse_complex_list(spec.get("z_tx_ohms", []), f"frontend {name!r} z_tx_ohms"),
            z_rx=parse_complex_list(spec.get("z_rx_ohms", []), f"frontend {name!r} z_rx_ohms"),
            r0=self.r0,
        )

    def tuning(self, name: str) -> TuningNetwork:
        spec = _block(self.tunings, "tuning", name)
        kind = _require(spec, "kind", f"tuning {name!r}")

        def ports():
            return number(_require(spec, "n", f"tuning {name!r}"), f"tuning {name!r} n", int, 0)

        if kind == "through":
            return through_tuning(ports())
        if kind == "inline":
            gains = _require(spec, "gains", f"tuning {name!r}")
            return inline_tuning(parse_complex_list(gains, f"tuning {name!r} gains"))
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
            data = read_touchstone(self._file(spec, "file", f"tuning {name!r}"))
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
        spec = _block(self.models, "model", name)
        return ReMSModel(
            structure=self.structure(_require(spec, "structure", f"model {name!r}")),
            tuning=self.tuning(_require(spec, "tuning", f"model {name!r}")),
            frontend=self.frontend(_require(spec, "frontend", f"model {name!r}")),
        )

    # --------------------------------------------------------------- tasks

    def _task(self, key: str) -> dict:
        if self._tasks.get(key) is None:
            raise ModelError(f"scene has no {key} block")
        return _mapping(self._tasks[key], f"{key} block")

    def solve_task(self):
        """(model name, model, v_tx, v_gamma, i_gamma) of the solve block; an
        absent drive is None."""
        spec = self._task("solve")
        name = _require(spec, "model", "solve block")
        model = self.model(name)
        fe = model.frontend
        drives = (("v_tx", fe.n_tx), ("v_gamma", fe.n_rx), ("i_gamma", fe.n_rx))
        return (name, model) + tuple(_drive(spec, k, n, "solve block") for k, n in drives)

    def gain_pattern_task(self):
        """(model name, model, v_tx, theta samples, phi) of the gain_pattern
        block, angles in degrees."""
        spec = self._task("gain_pattern")
        name = _require(spec, "model", "gain_pattern block")
        model = self.model(name)
        v_tx = _drive(spec, "v_tx", model.frontend.n_tx, "gain_pattern block", required=True)
        return (name, model, v_tx) + _gain_slice(spec, "gain_pattern", 0.0)

    def channel_task(self):
        """((tx name, rx name), tx structure, (out_port, in_port), x-column
        name, sweep points) of the channel block. A sweep point is (x, rx
        structure, displacement); a rotated rx is built when its point is reached."""
        spec = self._task("channel")
        name1, name2 = _sequence(_require(spec, "pair", "channel block"), "channel pair", 2)
        disp = self.position(name2) - self.position(name1)
        dist = float(np.linalg.norm(disp))
        if dist == 0.0:
            raise ModelError("channel pair structures are co-located")
        axis = disp / dist
        tx = self.structure(name1)
        out_port, in_port = _sequence(spec.get("ports", [0, 0]), "channel ports", 2)
        ports = (
            number(out_port, "channel ports out_port", int, 0),
            number(in_port, "channel ports in_port", int, 0),
        )

        sweep = spec.get("sweep")
        if sweep is None:
            x_name, points = "alpha_deg", [(0.0, self.structure(name2), disp)]
        elif _mapping(sweep, "channel sweep").get("kind") == "rotation":
            alphas = np.linspace(
                number(sweep.get("start_deg", 0.0), "channel sweep start_deg"),
                number(sweep.get("stop_deg", 90.0), "channel sweep stop_deg"),
                number(sweep.get("count", 10), "channel sweep count", int, 1, MAX_COUNT),
            )
            x_name = "alpha_deg"
            points = (
                (float(a), self.structure(name2, rotation_matrix(axis, float(a))), disp)
                for a in alphas
            )
        elif sweep.get("kind") == "distance":
            start = number(sweep.get("start_m", 1.0), "channel sweep start_m")
            stop = number(sweep.get("stop_m", 100.0), "channel sweep stop_m")
            count = number(sweep.get("count", 25), "channel sweep count", int, 1, MAX_COUNT)
            spacing = sweep.get("spacing", "log")
            if spacing == "log":
                if start <= 0.0:
                    raise ModelError("log-spaced distance sweep needs start_m > 0")
                dists = np.geomspace(start, stop, count)
            elif spacing == "linear":
                dists = np.linspace(start, stop, count)
            else:
                raise ModelError(f"channel sweep spacing must be log or linear, got {spacing!r}")
            rx = self.structure(name2)
            x_name, points = "d_m", ((float(d), rx, axis * float(d)) for d in dists)
        else:
            raise ModelError(f"unknown sweep kind {sweep.get('kind')!r}")
        return (name1, name2), tx, ports, x_name, points

    def beamform_problem(self, seed_override: int | None = None):
        """(BeamformProblem, ReconfigurableBuilder) from the scene's problem block."""
        spec = self._task("problem")
        structure = self.structure(_require(spec, "structure", "problem"))
        frontend = self.frontend(_require(spec, "frontend", "problem"))
        n, m = frontend.n, structure.m_ports

        z_spec = _mapping(_require(spec, "z_set", "problem"), "problem z_set")
        if "values" in z_spec:
            z_set = tuple(parse_complex_list(z_spec["values"], "problem z_set values").tolist())
        else:
            resistance = number(
                _require(z_spec, "resistance", "problem z_set"), "problem z_set resistance"
            )
            react = _require(z_spec, "reactance", "problem z_set")
            where = "problem z_set reactance"
            xs = np.linspace(
                number(_require(react, "start", where), f"{where} start"),
                number(_require(react, "stop", where), f"{where} stop"),
                number(_require(react, "count", where), f"{where} count", int, 1, MAX_COUNT),
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
            primary_dirs=_directions(_require(spec, "primary_deg", "problem"), "problem primary_deg"),
            secondary_dirs=_directions(spec.get("secondary_deg", []), "problem secondary_deg"),
            q_co=x_copol,
            z_init=z_set[z_init_index],
            i_max=i_max,
            sigma_schedule=schedule,
            rng_seed=seed,
        )
        return problem, model_builder

    def pattern_slices(self, problem: BeamformProblem) -> list:
        """(theta samples, phi) in degrees of the problem pattern's gain slice
        per primary direction of `problem`; phi defaults to the direction's."""
        spec = _mapping(self._task("problem").get("pattern", {}), "problem pattern")
        phis = [math.degrees(d.phi) for d in problem.primary_dirs]
        return [_gain_slice(spec, "problem pattern", phi) for phi in phis]
