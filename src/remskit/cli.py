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
from .farfield import FOUR_PI, Direction, write_pattern_csv
from .radiating import (
    _kernels_chunks,
    _scatter_asymmetry,
    extract_rx_kernel,
    extract_scatter_kernel,
    read_response_file,
)
from .scene import Scene, latlon_grid
from .solver import gain_operators, matching_efficiency, radiation_efficiency
from .solver import solve_direct, tuning_efficiency


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
    grid = latlon_grid(args.n_theta, args.n_phi)
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
    frequency, grid, m_ports = resp.frequency, resp.grid, resp.m_ports
    rx = extract_rx_kernel(resp)
    scatter = extract_scatter_kernel(resp) if resp.scattered is not None else None
    del resp  # its scattered blocks are kernel-sized: free them, so the streamed write holds one kernel
    if scatter is not None and tol is not None:
        dev = _scatter_asymmetry(scatter)
        if dev > tol:
            print(
                f"note: reduced scattering kernel asymmetry {dev:.3e} exceeds "
                f"tolerance {tol:.3e}",
                file=sys.stderr,
            )
    path = os.path.join(_out_dir(args), "kernels.txt")
    atomic_write_text(path, _kernels_chunks(frequency, grid, rx, scatter))
    print(
        f"extracted {m_ports} receive kernel(s)"
        + ("" if scatter is None else " and the reduced scattering kernel")
        + f" -> {path}"
    )
    return 0


def cmd_solve(args) -> int:
    model_name, model, v_tx, v_gamma, i_gamma = Scene.load(args.scene).solve_task()
    if v_tx is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing drive reads inf
            p_a = model.frontend.available_power(v_tx)
        if not math.isfinite(p_a):  # refused before the solve, whose own ledger would overflow
            raise ModelError(f"solve drive overflows the power ledger: p_available_w is {p_a}")
    res = solve_direct(model, v_tx=v_tx, v_gamma=v_gamma, i_gamma=i_gamma)
    powers = [
        ("p_transmit_w", res.p_transmit),
        ("p_radiating_w", res.p_radiating),
        ("p_farfield_w", res.p_farfield),
    ]
    if v_tx is not None:
        powers.insert(0, ("p_available_w", p_a))
        if p_a > 0.0:
            powers.append(("eta_matching", matching_efficiency(model, res, v_tx)))
        if res.p_transmit != 0.0:
            powers.append(("eta_tuning", tuning_efficiency(res)))
        if res.p_radiating != 0.0:
            powers.append(("eta_radiation", radiation_efficiency(res)))
    for name, value in powers:  # refused before any file is written
        if not math.isfinite(value):
            raise ModelError(f"solve drive overflows the power ledger: {name} is {value}")

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

    _write_csv(os.path.join(out, "powers.csv"), "name,value", ((n, fmt(v)) for n, v in powers))
    print(
        f"solved model {model_name!r}: radiated {fmt(res.p_farfield)} W -> "
        f"{out}/waves.csv, farfield.csv, powers.csv"
    )
    return 0


def cmd_channel(args) -> int:
    (name1, name2), tx, (out_port, in_port), x_name, points = Scene.load(args.scene).channel_task()
    rows = []
    for x, rx, disp in points:
        mat = far_channel(tx, rx, disp)
        del rx  # a rotation sweep keeps one rotated structure alive at a time
        if out_port >= mat.shape[0] or in_port >= mat.shape[1]:
            raise ModelError(
                f"channel ports [{out_port}, {in_port}] outside the "
                f"{mat.shape[0]}x{mat.shape[1]} channel matrix"
            )
        s = mat[out_port, in_port]
        rows.append((fmt(x), fmt(s.real), fmt(s.imag)))

    path = os.path.join(_out_dir(args), "channel.csv")
    _write_csv(path, f"{x_name},re_s,im_s", rows)
    print(f"channel {name1!r} -> {name2!r}: {len(rows)} sweep point(s) -> {path}")
    return 0


def _gain_rows(ops, p_a: float, v, thetas_deg, phi_deg: float):
    thetas = [float(t) for t in thetas_deg]
    mats = ops.vtx_gain_matrix([Direction.from_degrees(t, phi_deg) for t in thetas])
    vals = mats @ np.asarray(v, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing square reads inf
        gains = FOUR_PI * np.vecdot(vals, vals).real / p_a
    return [(repr(t), repr(_db(g))) for t, g in zip(thetas, gains.tolist())]


def cmd_gain_pattern(args) -> int:
    model_name, model, v_tx, thetas, phi_deg = Scene.load(args.scene).gain_pattern_task()
    p_a = model.frontend.available_power(v_tx)
    if not 0.0 < p_a < math.inf:
        what = "zero" if p_a <= 0.0 else "infinite"
        raise ModelError(f"gain_pattern drive has {what} available power")
    ops = gain_operators(model)
    path = os.path.join(_out_dir(args), "gain_pattern.csv")
    _write_csv(path, "theta_deg,gain_db", _gain_rows(ops, p_a, v_tx, thetas, phi_deg))
    print(f"gain pattern for model {model_name!r} at phi={fmt(phi_deg)} deg -> {path}")
    return 0


def cmd_optimize(args) -> int:
    scene = Scene.load(args.scene)
    problem, model_builder = scene.beamform_problem(seed_override=args.seed)
    slices = scene.pattern_slices(problem)
    result = coordinate_ascent(problem, model_builder)
    if result.evaluations == 0:  # the initial t is then no zero-forcing precoder
        n = problem.i_max * problem.r * len(problem.z_set)
        raise NumericsError(f"all {n} candidates were skipped: no load configuration was scored")

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
    for u, (thetas, phi_deg) in enumerate(slices):
        col = result.t[:, u]
        p_a = model.frontend.available_power(col)
        if p_a <= 0.0:
            continue
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
