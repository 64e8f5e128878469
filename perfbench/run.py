"""remskit benchmark: one workload per process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload rra_optimize --seed 1 --seconds 30 --trace 0

Run from anywhere; paths resolve against the checkout that holds this file.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
name every metric with its unit, the workload-specific numbers of the
passes, and the environment the result was measured in.

A run measures passes of the workload (see ``workloads.py``) for
``--seconds`` seconds, at least ``MIN_PASSES`` of them, and checks the
outputs of every pass. ``attempted`` counts the operations run and
``failed`` those that exited nonzero, raised or failed an output check, so
the error rate is ``failed / attempted``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

- ``wall_ref_s``: one pass, from the first command's start to the last
  output written, excluding input generation and output checks.
- ``setup_s``: ``Scene.load`` plus the first structure/model build (the
  passivity SVD, the first response parse), repeated once per pass.
- ``peak_rss_mb``: the largest resident set of this process, read after its
  first pass and before any check or set-up measurement.

Both times are medians over the run, scaled to the reference host speed of
``hostspeed``: divided by the median time of a fixed calibration loop timed
between the passes and set-ups of the same run, and multiplied by that
loop's time on the baseline machine. On a shared two-core machine other
tenants moved the raw pass time of ``measured_kernels`` by up to a quarter
between minutes; a slower program still reads slower once scaled. The raw
medians and the loop's median are printed as ``unscaled`` lines. Neither
time includes the import of remskit. The import time is printed with the
environment (``import_s``) but not gated: on a shared two-core machine it
read 0.11 s to 0.19 s from one minute to the next, a spread no bound could
absorb.

``--trace 1`` reports the per-layer metrics. It alternates untraced passes
with passes run under ``layertrace.Tracer``, reports the median of each
layer metric over the traced passes, and ``trace.overhead_pct`` from the
pass medians of both kinds. Every traced pass must show the call counts its
outputs imply, or it counts as failed.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before anything imports NumPy
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment(args, import_s: float) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "remskit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "import_s": import_s,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


class Run:
    """Counts operations and failures over the passes of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.pass_s: list[float] = []
        self.extras: dict[str, list] = {}
        self.peak_rss_mb = None

    def one_pass(self, tracer=None) -> bool:
        """Run, time and check one pass; True if every op succeeded."""
        from workloads import OpFailed

        w = self.workload
        self.passes += 1
        self.attempted += len(w.ops)
        try:
            if tracer is None:
                times = w.run_pass()
            else:
                with tracer:
                    times = w.run_pass()
        except OpFailed as exc:
            self._fail(w.ops[w.ops.index(exc.op):], exc)
            return False
        except Exception as exc:  # a crash inside the program counts as failed ops
            self._fail(w.ops, exc)
            return False
        if self.peak_rss_mb is None:  # before checks and set-up add their own memory
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            fails = w.check_pass()
        except Exception as exc:  # unreadable output fails the whole pass
            self._fail(w.ops, exc)
            return False
        for op, msg in fails:
            print(f"check failed: {w.name} {op}: {msg}", file=sys.stderr)
        self.failed += len({op for op, _ in fails})
        if fails:
            return False
        self.pass_s.append(sum(times.values()))
        for name, (value, unit) in w.pass_metrics().items():
            self.extras.setdefault(name, [[], unit])[0].append(value)
        return True

    def _fail(self, ops, exc):
        self.failed += len(ops)
        print(f"operation failed: {self.workload.name}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def measure(workload, seconds: float):
    """Passes and set-ups for `seconds`; returns the run, the set-up times
    and the calibration sampled between them.

    The first pass runs before anything else, so that the peak resident set
    read after it is that of a process which imported remskit and ran the
    workload once. Every later pass follows one set-up measurement, and a
    calibration block (``hostspeed``) follows every pass and set-up.
    """
    from hostspeed import Calibration

    for _ in range(workload.warmup_passes):
        workload.run_pass()
    run = Run(workload)
    calibration = Calibration()
    run.one_pass()
    calibration.sample()
    setup = []
    t0 = perf_counter()
    while run.passes < MIN_PASSES or perf_counter() - t0 < seconds:
        # one set-up per pass, so both sample the whole run
        setup.append(workload.setup_once())
        calibration.sample()
        run.one_pass()
        calibration.sample()
    return run, setup, calibration


def measure_traced(workload, seconds: float):
    from layertrace import Tracer

    tracer = Tracer()
    for _ in range(workload.warmup_passes):
        workload.run_pass()
    plain, traced = Run(workload), Run(workload)
    layers: list[dict] = []
    t0 = perf_counter()
    while min(plain.passes, traced.passes) < MIN_TRACED_PAIRS or perf_counter() - t0 < seconds:
        if plain.passes <= traced.passes:
            plain.one_pass()
            continue
        tracer.reset()
        if traced.one_pass(tracer):
            stats = tracer.stats
            bad = {
                key: (stats[key].calls if key in stats else 0, want)
                for key, want in workload.expected_counts().items()
                if (stats[key].calls if key in stats else 0) != want
            }
            if bad:
                print(f"trace does not reconcile with outputs: {bad}", file=sys.stderr)
                traced.failed += len(workload.ops)
            layers.append(layer_values(stats, workload))
    return plain, traced, layers


def layer_values(stats, workload) -> dict:
    """Flat {metric: value} of one traced pass."""
    out = {}
    for key, st in stats.items():
        out[f"{key}.calls"] = st.calls
        out[f"{key}.self_s"] = st.self_s
        out[f"{key}.bytes"] = st.bytes
    ev = stats.get("beamform.evaluate_candidate")
    out["beamform.skip_ratio"] = ev.errors / ev.calls if ev and ev.calls else 0.0
    pm = workload.pass_metrics()
    out["beamform.accept_ratio"] = (
        pm["accepted"][0] / pm["evaluations"][0] if pm.get("evaluations", (0,))[0] else 0.0
    )
    return out


def median(values):
    """Median; the lower middle value for counts, so they stay whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def main(argv=None, workload_options=None) -> int:
    """Run one workload; ``workload_options`` go to its constructor (tests
    use them for tiny inputs)."""
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "remskit", "cli.py")) or not os.path.isdir(
        os.path.join(ROOT, "scenes")
    ):
        print(f"error: no remskit sources under {ROOT}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    t0 = perf_counter()
    from workloads import WORKLOADS  # imports NumPy, PyYAML and remskit

    import_s = perf_counter() - t0

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed, **(workload_options or {}))
        try:
            if args.trace == 0:
                run, setup, calibration = measure(workload, args.seconds)
                runs = [run]
            else:
                plain, traced, layers = measure_traced(workload, args.seconds)
                runs = [plain, traced]
        finally:
            workload.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    values: dict = {}
    if args.trace == 0 and run.pass_s:
        raw = {
            "wall_s": (statistics.median(run.pass_s), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "calibration_loop_ms": (1e3 * calibration.loop_s(), "ms"),
        }
        values = {
            "wall_ref_s": calibration.scale(raw["wall_s"][0]),
            "setup_s": calibration.scale(raw["setup_s"][0]),
            "peak_rss_mb": run.peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    elif args.trace == 1 and layers and plain.pass_s:
        for name in layers[0]:
            values[name] = median([layer.get(name, 0) for layer in layers])
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced.pass_s) / statistics.median(plain.pass_s) - 1.0
        )
        wanted = spec["per_layer"]
    else:
        wanted = []

    print("env " + json.dumps(environment(args, import_s), sort_keys=True))
    for name, (vals, unit) in runs[0].extras.items():
        print(f"pass {name} {median(vals)!r} {unit} (median of {len(vals)})")
    if args.trace == 0 and values:
        for name, (value, unit) in raw.items():
            print(f"unscaled {name} {value!r} {unit}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0 if args.trace == 1 else None)
        if value is None:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} {value!r} {m['unit']}")
    if not metrics:
        print("error: no pass succeeded", file=sys.stderr)
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
