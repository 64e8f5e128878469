"""Scene files: declarative YAML descriptions of structures, frontends,
tuning networks, models, and tasks (solve, channel sweep, gain pattern,
beamform problem).

This module is the only reader of the scene format: builders return library
objects, task readers (`*_task`, `beamform_problem`, `pattern_slices`) return
plain values. Every block is read through a field table, and a malformed,
missing or unknown field raises a ModelError that names it and its block.

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
from ._textio import complex_array, number, read_text, real_vector
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
from .solver import ReconfigurableBuilder, ReMSModel, _check_radiating_ports


# A YAML text nests no deeper than its count of characters that can open a
# collection. The pure-Python loader raises RecursionError near 500 levels;
# libyaml's composer recurses on the C stack without a limit, and a text
# nested 25000 deep ended the process with SIGSEGV. A text with at most this
# many openers is shallow enough for both.
_C_LOADER_MAX_OPENERS = 400

# The most samples a scene count (grid directions, gain slice, channel sweep,
# reactance set, ascent sweeps) may ask for; every count is read before
# anything count-sized is allocated.
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
    """The 3-vector field `where`, each entry through number(), its length within the float range."""
    return real_vector([number(x, where) for x in _sequence(value, where, 3)], where)[0]


def parse_complex(value) -> complex:
    try:
        if isinstance(value, bool):  # complex(True) is 1, but a YAML boolean is not a number
            raise TypeError
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
        return complex_array([parse_complex(v) for v in values], where)
    except ModelError as err:
        raise ModelError(f"{where}: {err}") from None


def parse_direction(pair) -> Direction:
    return Direction.from_degrees(*_sequence(pair, "direction [theta_deg, phi_deg]", 2))


def _directions(pairs, where: str) -> tuple:
    return tuple(parse_direction(p) for p in _sequence(pairs, where))


def rotation_matrix(axis, angle_deg: float) -> np.ndarray:
    """Rodrigues rotation about `axis` by angle_deg."""
    u, norm = real_vector(axis, "rotation axis")
    if norm == 0.0:
        raise ModelError("rotation axis must be nonzero")
    u = u / norm
    a = math.radians(angle_deg)
    ux = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return math.cos(a) * np.eye(3) + math.sin(a) * ux + (1 - math.cos(a)) * np.outer(u, u)


# ---------------------------------------------------------------- field table
# A field table maps each key of a block to (reader, default, *args). A value
# the block holds is read as reader(value, where, *args), `where` being the
# block's display name and the key, and an absent one is its default read the
# same way. A None reader keeps the value as written; a None default leaves an
# absent field None, and a _REQUIRED one makes it an error. A null value is read
# like any other.

_REQUIRED = object()
_KIND = "{where}: unknown kind {kind!r}"


def _walk(raw, where: str, fields: dict, unknown_kind: str | None = None) -> dict:
    """The plain values of block `raw` read through its field table. With
    `unknown_kind`, the error for any other kind, `fields` holds one table per
    value of the block's `kind`."""
    block, prefix = (where, where + " ") if where else ("scene", "")
    if not isinstance(raw, dict):
        raise ModelError(f"{block} must be a mapping, got {raw!r}")
    if unknown_kind:
        kind = raw.get("kind")
        if not isinstance(kind, str) or kind not in fields:
            raise ModelError(unknown_kind.format(where=block, kind=kind))
        fields = fields[kind]
    if not raw.keys() <= fields.keys():
        key = next(key for key in raw if key not in fields)
        raise ModelError(f"{block}: unknown field {key!r}")
    out = {}
    for key, spec in fields.items():  # spec: (reader, default, *args)
        value = raw.get(key, spec[1])
        if value is _REQUIRED:
            raise ModelError(f"{block}: missing required field {key!r}")
        if spec[0] is not None and (value is not None or key in raw):
            value = spec[0](value, prefix + key, *spec[2:])
        out[key] = value
    return out


def _each(values, where: str, length: int | None, read, *args) -> list:
    """The list field `where` of `length` entries (any number if None), each read as `read`."""
    return [read(v, f"{where}[{i}]", *args) for i, v in enumerate(_sequence(values, where, length))]


def _choice(value, where: str, options: tuple):
    """`value`, which must equal one of `options` and be of its type."""
    if not any(type(value) is type(o) and value == o for o in options):
        names = " or ".join(str(o).lower() for o in options)
        raise ModelError(f"{where} must be {names}, got {value!r}")
    return value


def _drive(value, where: str) -> np.ndarray:
    return parse_complex_list(_sequence(value, where), where)


def _matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) and len(row) == len(rows) for row in rows
    ):
        raise ModelError(f"{where} must be a square list of rows, got {rows!r}")
    return np.array([parse_complex_list(row, where) for row in rows])


def _z_set(raw, where: str, fields: dict) -> tuple:
    """The load impedances of a z_set block: its values, or its resistance
    plus each sample of its reactance range."""
    z = _walk(raw, where, fields)
    if z["values"] is not None:
        return tuple(z["values"].tolist())
    if z["resistance"] is None or z["reactance"] is None:
        raise ModelError(f"{where} needs values, or resistance and reactance")
    xs = np.linspace(z["reactance"]["start"], z["reactance"]["stop"], z["reactance"]["count"])
    return tuple(complex(z["resistance"], x) for x in xs)


def _named_list(entries, where: str) -> dict:
    """The entries of a list of named blocks by name; each is walked when it is built."""
    out = {}
    for entry in _sequence([] if entries is None else entries, where):
        if not isinstance(entry, dict):
            raise ModelError(f"{where} must be a mapping, got {entry!r}")
        if "name" not in entry:
            raise ModelError(f"{where}: missing required field 'name'")
        name = _string(entry["name"], f"{where} name")
        if name in out:
            raise ModelError(f"{where}: duplicate name {name!r}")
        out[name] = entry
    return out


_NAME = (None, _REQUIRED)
_REAL = (number, _REQUIRED)
_VECTOR = (_vector3, _REQUIRED)
_ORIGIN = (_vector3, [0.0, 0.0, 0.0])

# The named blocks, listed at the top level under kind + "s", map to (table,
# unknown kind error); the task blocks map to (display name, table).
_SLICE = {"theta_start_deg": (number, -90.0), "theta_stop_deg": (number, 90.0),
          "count": (number, 181, int, 1, MAX_COUNT), "phi_deg": (number, 0.0)}
_STRUCTURE = {"name": _NAME, "kind": _NAME, "position_m": _ORIGIN,
              "rotation": (_walk, None, {"axis": _VECTOR, "angle_deg": _REAL})}
_ELEMENT = {"orientation": _VECTOR, "position_m": _ORIGIN}
_TUNING = {"name": _NAME, "kind": _NAME}
_NAMED = {
    "structure": ({
        "dipole": {**_STRUCTURE, "orientation": _VECTOR},
        "dipole_array": {
            **_STRUCTURE,
            "elements": (_each, _REQUIRED, None, _walk, _ELEMENT),
            "coupling": (_walk, None, {"gamma": _REAL}),
            "enforce_passivity": (_choice, False, (True, False)),
        },
        "isotropic": {**_STRUCTURE, "pol": (_string, "theta")},
        "from_files": {**_STRUCTURE, "response_file": (_string, _REQUIRED)},
    }, _KIND),
    "frontend": ({"name": _NAME, "z_tx_ohms": (parse_complex_list, []),
                  "z_rx_ohms": (parse_complex_list, [])}, None),
    "tuning": ({
        "through": _TUNING,
        "inline": {**_TUNING, "gains": (parse_complex_list, _REQUIRED)},
        "matrix": {**_TUNING, "s": (_matrix, _REQUIRED)},
        "touchstone": {**_TUNING, "file": (_string, _REQUIRED)},
    }, _KIND),
    "model": ({"name": _NAME, "structure": _NAME, "tuning": _NAME, "frontend": _NAME}, None),
}
_SWEEPS = {
    "rotation": {"kind": _NAME, "start_deg": (number, 0.0), "stop_deg": (number, 90.0),
                 "count": (number, 10, int, 1, MAX_COUNT)},
    "distance": {"kind": _NAME, "start_m": (number, 1.0), "stop_m": (number, 100.0),
                 "count": (number, 25, int, 1, MAX_COUNT),
                 "spacing": (_choice, "log", ("log", "linear"))},
}
_Z_SET = {"values": (parse_complex_list, None), "resistance": (number, None),
          "reactance": (_walk, None, {"start": _REAL, "stop": _REAL,
                                      "count": (number, _REQUIRED, int, 1, MAX_COUNT)})}
_TASKS = {
    "solve": ("solve block", {"model": _NAME, "v_tx": (_drive, None),
                              "v_gamma": (_drive, None), "i_gamma": (_drive, None)}),
    "gain_pattern": ("gain_pattern", {"model": _NAME, "v_tx": (_drive, _REQUIRED), **_SLICE}),
    "channel": ("channel", {
        "pair": (_sequence, _REQUIRED, 2),
        "ports": (_each, [0, 0], 2, number, int, 0),
        "sweep": (_walk, None, _SWEEPS, "unknown sweep kind {kind!r}"),
    }),
    "problem": ("problem", {
        "structure": _NAME, "frontend": _NAME,
        "fixed": (None, "feedthrough_reflector"),
        "z_set": (_z_set, _REQUIRED, _Z_SET), "z_init_index": (number, 0, int, 0),
        "primary_deg": (_directions, _REQUIRED), "secondary_deg": (_directions, []),
        "i_max": (number, 10, int, 0, MAX_COUNT), "seed": (number, 0, int, 0),
        "sigma": (_walk, {}, {"initial": (number, 20.0), "ratio": (number, 0.5),
                              "count": (number, None, int, 0)}),
        "pattern": (_walk, {}, {**_SLICE, "phi_deg": (number, None)}),
    }),
}
_SCENE = {
    "frequency_hz": _REAL, "r0_ohms": (number, 50.0),
    "grid": (_walk, _REQUIRED, {"n_theta": (number, _REQUIRED, int),
                                "n_phi": (number, _REQUIRED, int)}),
    **{kind + "s": (_named_list, []) for kind in _NAMED},
    **{key: (None, None) for key in _TASKS},
}


def _thetas(spec: dict) -> np.ndarray:
    """The theta samples in degrees of a gain slice."""
    return np.linspace(spec["theta_start_deg"], spec["theta_stop_deg"], spec["count"])


def _sized(values, size: int, where: str):
    """The drive `values`, None if absent, which must hold `size` entries."""
    if values is not None and values.shape != (size,):
        raise ModelError(f"{where} needs {size} entries, got {values.shape[0]}")
    return values


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
    # the plain values of each block read so far: a block is walked once per scene
    _walked: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------ io

    @classmethod
    def load(cls, path: str) -> "Scene":
        try:
            text = read_text(path)
            raw = yaml.load(text, Loader=_yaml_loader(text))
        except (yaml.YAMLError, RecursionError) as err:
            raise ModelError(f"scene parse error: {err}") from None
        return cls.from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))

    @classmethod
    def from_dict(cls, raw: dict, base_dir: str = ".") -> "Scene":
        top = _walk(raw, "", _SCENE)
        wavenumber(top["frequency_hz"])  # refuses a frequency that is not positive and finite
        named = {kind + "s": top[kind + "s"] for kind in _NAMED}
        tasks = {key: top[key] for key in _TASKS}
        grid = latlon_grid(**top["grid"])
        return cls(top["frequency_hz"], top["r0_ohms"], grid, base_dir, **named, _tasks=tasks)

    def _spec(self, kind: str, name) -> dict:
        """The fields of the named `kind` block; a name that is not a string names no block."""
        blocks = getattr(self, kind + "s")
        if _string(name, f"{kind} name") not in blocks:
            raise ModelError(f"unknown {kind} {name!r}")
        if (kind, name) not in self._walked:
            self._walked[kind, name] = _walk(blocks[name], f"{kind} {name!r}", *_NAMED[kind])
        return self._walked[kind, name]

    # ------------------------------------------------------------ builders

    def position(self, name: str) -> np.ndarray:
        return self._spec("structure", name)["position_m"].copy()

    def structure(self, name: str, extra_rotation: np.ndarray | None = None) -> RadiatingStructure:
        """Build a structure; extra_rotation is applied about its own position.

        Analytic kinds rebuild from rotated geometry (exact); file-backed
        kinds fall back to kernel resampling.
        """
        spec = self._spec("structure", name)
        rot = None if spec["rotation"] is None else rotation_matrix(**spec["rotation"])
        if extra_rotation is not None:
            rot = extra_rotation @ rot if rot is not None else extra_rotation

        def turn(v):
            return v if rot is None else rot @ v

        if spec["kind"] == "dipole":
            orientation = turn(spec["orientation"])
            return hertzian_dipole(orientation, [0.0, 0.0, 0.0], self.grid, self.frequency)
        if spec["kind"] == "dipole_array":
            elements = [(turn(e["orientation"]), turn(e["position_m"])) for e in spec["elements"]]
            coupling = None
            if spec["coupling"] is not None:
                k = wavenumber(self.frequency)
                coupling = synthetic_coupling([p for _, p in elements], k, **spec["coupling"])
            passive = spec["enforce_passivity"]
            return dipole_array(elements, self.grid, self.frequency, coupling, passive)
        if spec["kind"] == "isotropic":
            if rot is not None:
                raise ModelError(f"structure {name!r}: isotropic patterns cannot be rotated")
            return isotropic_radiator(self.grid, self.frequency, pol=spec["pol"])
        if name not in self._extracted:  # from_files
            resp = read_response_file(os.path.join(self.base_dir, spec["response_file"]))
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

    def frontend(self, name: str) -> RFFrontend:
        spec = self._spec("frontend", name)
        return RFFrontend(z_tx=spec["z_tx_ohms"], z_rx=spec["z_rx_ohms"], r0=self.r0)

    def tuning(self, name: str, n_frontend: int) -> TuningNetwork:
        """The tuning block for a frontend of n_frontend ports, which face its first ports;
        a through block has n_frontend chains, an inline block one chain per gain."""
        spec = self._spec("tuning", name)
        if spec["kind"] == "through":
            return through_tuning(n_frontend)
        if spec["kind"] == "inline":
            return inline_tuning(spec["gains"])
        if spec["kind"] == "matrix":
            s = spec["s"]
        else:  # touchstone
            data = read_touchstone(os.path.join(self.base_dir, spec["file"]))
            freqs = data.frequencies_hz
            match = np.nonzero(np.isclose(freqs, self.frequency, rtol=1e-6, atol=0.0))[0]
            if match.size == 0:
                raise ModelError(f"tuning {name!r}: no entry at {self.frequency} Hz in the file")
            s = data.matrices[int(match[0])]
        if n_frontend > len(s):
            raise ModelError(f"tuning {name!r}: {len(s)} ports, fewer than the {n_frontend} frontend ports")
        return TuningNetwork(n_frontend, s)

    def model(self, name: str) -> ReMSModel:
        spec = self._spec("model", name)
        frontend = self.frontend(spec["frontend"])
        structure = self.structure(spec["structure"])
        if self._spec("tuning", spec["tuning"])["kind"] == "through":  # refused before its dense (2N)² matrix
            _check_radiating_ports(frontend.n, structure.m_ports)
        return ReMSModel(structure, self.tuning(spec["tuning"], frontend.n), frontend)

    # --------------------------------------------------------------- tasks

    def _task(self, key: str) -> dict:
        if self._tasks.get(key) is None:
            raise ModelError(f"scene has no {key} block")
        if key not in self._walked:
            self._walked[key] = _walk(self._tasks[key], *_TASKS[key])
        return self._walked[key]

    def solve_task(self):
        """(model name, model, v_tx, v_gamma, i_gamma) of the solve block; an
        absent drive is None."""
        spec = self._task("solve")
        model = self.model(spec["model"])
        fe = model.frontend
        sizes = (("v_tx", fe.n_tx), ("v_gamma", fe.n_rx), ("i_gamma", fe.n_rx))
        drives = tuple(_sized(spec[k], n, f"solve block {k}") for k, n in sizes)
        return (spec["model"], model) + drives

    def gain_pattern_task(self):
        """(model name, model, v_tx, theta samples, phi) of the gain_pattern
        block, angles in degrees."""
        spec = self._task("gain_pattern")
        model = self.model(spec["model"])
        v_tx = _sized(spec["v_tx"], model.frontend.n_tx, "gain_pattern block v_tx")
        return spec["model"], model, v_tx, _thetas(spec), spec["phi_deg"]

    def channel_task(self):
        """((tx name, rx name), tx structure, (out_port, in_port), x-column
        name, sweep points) of the channel block. A sweep point is (x, rx
        structure, displacement); a rotated rx is built when its point is reached."""
        spec = self._task("channel")
        name1, name2 = spec["pair"]
        disp, dist = real_vector(self.position(name2) - self.position(name1), "channel pair displacement")
        if dist == 0.0:
            raise ModelError("channel pair structures are co-located")
        axis = disp / dist
        tx = self.structure(name1)

        sweep = spec["sweep"]
        if sweep is None:
            x_name, points = "alpha_deg", [(0.0, self.structure(name2), disp)]
        elif sweep["kind"] == "rotation":
            alphas = np.linspace(sweep["start_deg"], sweep["stop_deg"], sweep["count"]).tolist()
            x_name = "alpha_deg"
            points = ((a, self.structure(name2, rotation_matrix(axis, a)), disp) for a in alphas)
        else:  # distance
            start, stop, log = sweep["start_m"], sweep["stop_m"], sweep["spacing"] == "log"
            spacing = "log-spaced" if log else "linear"
            for key, d in (("start_m", start), ("stop_m", stop)):
                if d <= 0.0:  # a point at or behind the transmitter
                    raise ModelError(f"{spacing} channel sweep {key} must be positive, got {d!r}")
            dists = (np.geomspace if log else np.linspace)(start, stop, sweep["count"])
            rx = self.structure(name2)
            x_name, points = "d_m", ((float(d), rx, axis * float(d)) for d in dists)
        return (name1, name2), tx, spec["ports"], x_name, points

    def beamform_problem(self, seed_override: int | None = None):
        """(BeamformProblem, ReconfigurableBuilder) from the scene's problem block."""
        spec = self._task("problem")
        structure = self.structure(spec["structure"])
        frontend = self.frontend(spec["frontend"])

        z_set, z_init_index = spec["z_set"], spec["z_init_index"]
        if z_init_index >= len(z_set):
            raise ModelError(f"problem z_init_index {z_init_index} outside a {len(z_set)}-entry z_set")
        if spec["fixed"] != "feedthrough_reflector":
            raise ModelError(f"problem: unknown fixed network kind {spec['fixed']!r}")
        r = structure.m_ports - frontend.n  # the structure's ports beyond the frontend's carry the loads
        if r < 0:
            raise ModelError(
                f"problem: structure {spec['structure']!r} has {structure.m_ports} ports, "
                f"fewer than the {frontend.n} of frontend {spec['frontend']!r}"
            )
        fixed = feedthrough_reflector_fixed(frontend.n, structure.m_ports)
        sigma = spec["sigma"]
        if sigma["count"] not in (None, spec["i_max"]):  # a stated count may only restate i_max
            raise ModelError(f"problem sigma count must equal i_max {spec['i_max']}, got {sigma['count']}")
        seed = spec["seed"] if seed_override is None else seed_override
        problem = BeamformProblem(
            r=r,
            z_set=z_set,
            primary_dirs=spec["primary_deg"],
            secondary_dirs=spec["secondary_deg"],
            q_co=x_copol,
            z_init=z_set[z_init_index],
            i_max=spec["i_max"],
            sigma_schedule=geometric_schedule(sigma["initial"], sigma["ratio"], spec["i_max"]),
            rng_seed=number(seed, "problem seed", int, 0),
        )
        return problem, ReconfigurableBuilder(structure, frontend, fixed)

    def pattern_slices(self, problem: BeamformProblem) -> list:
        """(theta samples, phi) in degrees of the problem pattern's gain slice
        per primary direction of `problem`; phi defaults to the direction's."""
        spec = self._task("problem")["pattern"]
        phi = spec["phi_deg"]
        return [(_thetas(spec), math.degrees(d.phi) if phi is None else phi) for d in problem.primary_dirs]
