"""Batch command-line surface.

Subcommands: grid, extract, solve, channel, gain-pattern, optimize. All
angles at this boundary are degrees, all output files are written atomically
and byte-stable across runs, and numbers are formatted with full round-trip
precision. Exit codes: 0 success, 1 user error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys

import numpy as np

from ._textio import atomic_write_text, csv_text, fmt, number
from .beamform import coordinate_ascent
from .channel import far_channel
from .errors import ModelError, NumericsError
from .farfield import FOUR_PI, Direction, make_latlon_grid, write_pattern_csv
from .radiating import (
    _scatter_asymmetry,
    extract_rx_kernel,
    extract_scatter_kernel,
    read_response_file,
)
from .scene import Scene, _mapping, _require, parse_complex_list, rotation_matrix
from .solver import gain_operators, solve_direct

_POL_NAMES = ("theta", "phi")


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for numerics
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _out_dir(args) -> str:
    out = args.out or os.environ.get("REMSKIT_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_csv(path: str, header: str, rows) -> None:
    atomic_write_text(path, csv_text(header, rows))


def _db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0.0 else -math.inf


# ---------------------------------------------------------------------------
# commands


def cmd_grid(args) -> int:
    grid = make_latlon_grid(args.n_theta, args.n_phi)
    rows = (
        (
            str(i),
            fmt(math.degrees(grid.theta[i])),
            fmt(math.degrees(grid.phi[i])),
            fmt(grid.weights[i]),
        )
        for i in range(grid.size)
    )
    path = os.path.join(_out_dir(args), "grid.csv")
    _write_csv(path, "index,theta_deg,phi_deg,weight_sr", rows)
    total = float(np.sum(grid.weights))
    print(
        f"grid {args.n_theta}x{args.n_phi}: {grid.size} directions, "
        f"total weight {fmt(total)} sr -> {path}"
    )
    return 0


def cmd_extract(args) -> int:
    tol = None if args.tol is None else number(args.tol, "extract --tol", low=0.0)
    resp = read_response_file(args.response)
    rx = extract_rx_kernel(resp)
    scatter = extract_scatter_kernel(resp) if resp.scattered is not None else None
    grid = resp.grid
    th_deg = np.degrees(grid.theta)
    ph_deg = np.degrees(grid.phi)

    buf = io.StringIO()
    buf.write("remskit-kernels v1\n")
    buf.write(f"frequency_hz {fmt(resp.frequency)}\n")
    buf.write(f"grid {grid.n_theta} {grid.n_phi}\n")
    buf.write(f"ports {resp.m_ports}\n")
    for m in range(resp.m_ports):
        for i in range(grid.size):
            buf.write(
                f"rx {m} {fmt(th_deg[i])} {fmt(ph_deg[i])} "
                f"{fmt(rx[m, i, 0].real)} {fmt(rx[m, i, 0].imag)} "
                f"{fmt(rx[m, i, 1].real)} {fmt(rx[m, i, 1].imag)}\n"
            )
    if scatter is not None:
        for i in range(grid.size):
            for c_out in range(2):
                for j in range(grid.size):
                    for c_in in range(2):
                        v = scatter[i, c_out, j, c_in]
                        buf.write(
                            f"scatter {fmt(th_deg[i])} {fmt(ph_deg[i])} {_POL_NAMES[c_out]} "
                            f"{fmt(th_deg[j])} {fmt(ph_deg[j])} {_POL_NAMES[c_in]} "
                            f"{fmt(v.real)} {fmt(v.imag)}\n"
                        )
        dev = _scatter_asymmetry(scatter)
        if tol is not None and dev > tol:
            print(
                f"note: reduced scattering kernel asymmetry {dev:.3e} exceeds "
                f"tolerance {tol:.3e}",
                file=sys.stderr,
            )
    path = os.path.join(_out_dir(args), "kernels.txt")
    atomic_write_text(path, buf.getvalue())
    print(
        f"extracted {resp.m_ports} receive kernel(s)"
        + ("" if scatter is None else " and the reduced scattering kernel")
        + f" -> {path}"
    )
    return 0


def cmd_solve(args) -> int:
    scene = Scene.load(args.scene)
    spec = scene.solve_spec
    if spec is None:
        raise ModelError("scene has no solve block")
    model_name = _require(spec, "model", "solve block")
    model = scene.model(model_name)
    fe = model.frontend

    def drive(key, size):
        if key not in spec:
            return None
        vals = parse_complex_list(spec[key])
        if vals.shape != (size,):
            raise ModelError(f"solve block {key} needs {size} entries, got {vals.shape[0]}")
        return vals

    v_tx = drive("v_tx", fe.n_tx)
    v_gamma = drive("v_gamma", fe.n_rx)
    i_gamma = drive("i_gamma", fe.n_rx)
    res = solve_direct(model, v_tx=v_tx, v_gamma=v_gamma, i_gamma=i_gamma)

    out = _out_dir(args)
    wave_rows = []
    for plane, vec in (
        ("a_t", res.a_t),
        ("b_t", res.b_t),
        ("a_r", res.a_r),
        ("b_r", res.b_r),
        ("a_r_tilde", res.a_r_tilde),
        ("b_r_tilde", res.b_r_tilde),
        ("v_rx", res.v_rx),
    ):
        for i, v in enumerate(vec):
            wave_rows.append((plane, str(i), fmt(v.real), fmt(v.imag)))
    _write_csv(os.path.join(out, "waves.csv"), "plane,index,re,im", wave_rows)
    write_pattern_csv(res.a_f, os.path.join(out, "farfield.csv"))

    power_rows = [
        ("p_transmit_w", fmt(res.p_transmit)),
        ("p_radiating_w", fmt(res.p_radiating)),
        ("p_farfield_w", fmt(res.p_farfield)),
    ]
    if v_tx is not None:
        p_a = fe.available_power(v_tx)
        power_rows.insert(0, ("p_available_w", fmt(p_a)))
        if p_a > 0.0:
            power_rows.append(("eta_matching", fmt(res.p_transmit / p_a)))
        if res.p_transmit != 0.0:
            power_rows.append(("eta_tuning", fmt(res.p_radiating / res.p_transmit)))
        if res.p_radiating != 0.0:
            power_rows.append(("eta_radiation", fmt(res.p_farfield / res.p_radiating)))
    _write_csv(os.path.join(out, "powers.csv"), "name,value", power_rows)
    print(
        f"solved model {model_name!r}: radiated {fmt(res.p_farfield)} W -> "
        f"{out}/waves.csv, farfield.csv, powers.csv"
    )
    return 0


def cmd_channel(args) -> int:
    scene = Scene.load(args.scene)
    if scene.channel_spec is None:
        raise ModelError("scene has no channel block")
    spec = _mapping(scene.channel_spec, "channel block")
    pair = spec.get("pair")
    if not pair or len(pair) != 2:
        raise ModelError("channel block needs pair: [tx_name, rx_name]")
    name1, name2 = pair
    p1, p2 = scene.position(name1), scene.position(name2)
    disp = p2 - p1
    dist = float(np.linalg.norm(disp))
    if dist == 0.0:
        raise ModelError("channel pair structures are co-located")
    axis = disp / dist
    s1 = scene.structure(name1)
    ports = spec.get("ports", [0, 0])
    if not isinstance(ports, (list, tuple)) or len(ports) != 2:
        raise ModelError("channel block ports must be [out_port, in_port]")
    out_port = number(ports[0], "channel ports out_port", int, 0)
    in_port = number(ports[1], "channel ports in_port", int, 0)

    def entry(s2, d):
        mat = far_channel(s1, s2, d)
        if out_port >= mat.shape[0] or in_port >= mat.shape[1]:
            raise ModelError(
                f"channel ports [{out_port}, {in_port}] outside the "
                f"{mat.shape[0]}x{mat.shape[1]} channel matrix"
            )
        return mat[out_port, in_port]

    sweep = spec.get("sweep")
    if sweep is not None:
        _mapping(sweep, "channel sweep")
    rows = []
    if sweep is None:
        s = entry(scene.structure(name2), disp)
        header = "alpha_deg,re_s,im_s"
        rows.append((fmt(0.0), fmt(s.real), fmt(s.imag)))
    elif sweep.get("kind") == "rotation":
        alphas = np.linspace(
            number(sweep.get("start_deg", 0.0), "channel sweep start_deg"),
            number(sweep.get("stop_deg", 90.0), "channel sweep stop_deg"),
            number(sweep.get("count", 10), "channel sweep count", int, 1),
        )
        header = "alpha_deg,re_s,im_s"
        for alpha in alphas:
            rot = rotation_matrix(axis, float(alpha))
            s = entry(scene.structure(name2, extra_rotation=rot), disp)
            rows.append((fmt(float(alpha)), fmt(s.real), fmt(s.imag)))
    elif sweep.get("kind") == "distance":
        start = number(sweep.get("start_m", 1.0), "channel sweep start_m")
        stop = number(sweep.get("stop_m", 100.0), "channel sweep stop_m")
        count = number(sweep.get("count", 25), "channel sweep count", int, 1)
        if sweep.get("spacing", "log") == "log":
            if start <= 0.0:
                raise ModelError("log-spaced distance sweep needs start_m > 0")
            dists = np.geomspace(start, stop, count)
        else:
            dists = np.linspace(start, stop, count)
        s2 = scene.structure(name2)
        header = "d_m,re_s,im_s"
        for d in dists:
            s = entry(s2, axis * float(d))
            rows.append((fmt(float(d)), fmt(s.real), fmt(s.imag)))
    else:
        raise ModelError(f"unknown sweep kind {sweep.get('kind')!r}")

    path = os.path.join(_out_dir(args), "channel.csv")
    _write_csv(path, header, rows)
    print(f"channel {name1!r} -> {name2!r}: {len(rows)} sweep point(s) -> {path}")
    return 0


def _gain_slice(spec: dict, where: str, phi_deg: float):
    """(theta samples, phi) in degrees of a gain-vs-theta slice spec."""
    thetas = np.linspace(
        number(spec.get("theta_start_deg", -90.0), f"{where} theta_start_deg"),
        number(spec.get("theta_stop_deg", 90.0), f"{where} theta_stop_deg"),
        number(spec.get("count", 181), f"{where} count", int, 1),
    )
    return thetas, number(spec.get("phi_deg", phi_deg), f"{where} phi_deg")


def _gain_rows(ops, p_a: float, v, thetas_deg, phi_deg: float):
    v = np.asarray(v, dtype=complex)
    mats = ops.vtx_gain_matrix([Direction.from_degrees(float(t), phi_deg) for t in thetas_deg])
    for theta, m in zip(thetas_deg, mats):
        val = m @ v
        g = FOUR_PI * float(np.vdot(val, val).real) / p_a
        yield (fmt(float(theta)), fmt(_db(g)))


def cmd_gain_pattern(args) -> int:
    scene = Scene.load(args.scene)
    spec = scene.gain_pattern_spec
    if spec is None:
        raise ModelError("scene has no gain_pattern block")
    model_name = _require(spec, "model", "gain_pattern block")
    model = scene.model(model_name)
    v_tx = parse_complex_list(_require(spec, "v_tx", "gain_pattern block"))
    if v_tx.shape != (model.frontend.n_tx,):
        raise ModelError(
            f"gain_pattern v_tx needs {model.frontend.n_tx} entries, got {v_tx.shape[0]}"
        )
    p_a = model.frontend.available_power(v_tx)
    if p_a <= 0.0:
        raise ModelError("gain_pattern drive has zero available power")
    ops = gain_operators(model)
    thetas, phi_deg = _gain_slice(spec, "gain_pattern", 0.0)
    path = os.path.join(_out_dir(args), "gain_pattern.csv")
    _write_csv(path, "theta_deg,gain_db", _gain_rows(ops, p_a, v_tx, thetas, phi_deg))
    print(f"gain pattern for model {model_name!r} at phi={fmt(phi_deg)} deg -> {path}")
    return 0


def cmd_optimize(args) -> int:
    scene = Scene.load(args.scene)
    problem, model_builder = scene.beamform_problem(seed_override=args.seed)
    pattern_spec = _mapping(scene.problem_spec.get("pattern", {}), "problem pattern")
    result = coordinate_ascent(problem, model_builder)

    buf = io.StringIO()
    buf.write("remskit-beamform-result v1\n")
    buf.write(f"f_best {fmt(result.f_best)}\n")
    buf.write(f"evaluations {result.evaluations}\n")
    for k, (idx, z) in enumerate(zip(result.z_indices, result.z_r)):
        buf.write(f"load {k} {idx} {fmt(z.real)} {fmt(z.imag)}\n")
    for r in range(result.t.shape[0]):
        for c in range(result.t.shape[1]):
            v = result.t[r, c]
            buf.write(f"t {r} {c} {fmt(v.real)} {fmt(v.imag)}\n")
    for k, f in enumerate(result.f_trace):
        buf.write(f"trace {k} {fmt(f)}\n")
    out = _out_dir(args)
    atomic_write_text(os.path.join(out, "result.txt"), buf.getvalue())

    # gain-pattern slice per stream at the optimized configuration
    model = model_builder(result.z_r)
    ops = gain_operators(model)
    for u, d in enumerate(problem.primary_dirs):
        col = result.t[:, u]
        p_a = model.frontend.available_power(col)
        if p_a <= 0.0:
            continue
        thetas, phi_deg = _gain_slice(pattern_spec, "problem pattern", math.degrees(d.phi))
        _write_csv(
            os.path.join(out, f"optimized_gain_stream{u}.csv"),
            "theta_deg,gain_db",
            _gain_rows(ops, p_a, col, thetas, phi_deg),
        )
    print(
        f"optimized {problem.r} load(s): f_best {fmt(result.f_best)} after "
        f"{result.evaluations} evaluations -> {out}/result.txt"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="remskit",
        description="Numerical modeling kit for reconfigurable electromagnetic structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p = sub.add_parser("grid", help="export a direction grid with area weights")
    p.add_argument("--n-theta", type=int, required=True)
    p.add_argument("--n-phi", type=int, required=True)
    p.add_argument("--out", default=None, help="output directory (default $REMSKIT_OUT_DIR or .)")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("extract", help="extract sampled kernels from plane-wave responses")
    p.add_argument("--response", required=True, help="plane-wave response file")
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=None, help="report kernel asymmetry above this")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("solve", help="run the scene's solve block")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("channel", help="run the scene's channel sweep")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("gain-pattern", help="export a gain-vs-theta slice")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gain_pattern)

    p = sub.add_parser("optimize", help="run the scene's beamform problem")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None, help="override the scene's rng seed")
    p.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericsError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 2
    except (ModelError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
