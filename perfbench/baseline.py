"""Measure the benchmark's baseline: every workload over several seeds.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Runs ``run.py`` once per workload and seed, untraced, then once per workload
traced. Records each metric's ten values, median, quartiles and spread (the
distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them), and for each end-to-end
metric whether the spread is within its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = {"elapsed_s": elapsed, "result": json.loads(lines[-1]), "pass": {}}
    for line in lines:
        tok = line.split()
        if tok[0] == "env":
            out["env"] = json.loads(line[4:])
        elif tok[0] in ("pass", "unscaled"):
            out["pass"][tok[1] if tok[0] == "pass" else f"unscaled_{tok[1]}"] = {
                "value": float(tok[2]), "unit": tok[3]}
    return out


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="'1-10' or '1,5,9'")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--traced-seed", type=int, default=1)
    p.add_argument("--out", default=None, help="write the baseline JSON here")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [bench(workload, s, args.seconds, 0) for s in report["seeds"]]
        traced = bench(workload, args.traced_seed, args.seconds, 1)
        report["env"] = runs[0]["env"]
        entry = {
            "correct": all(r["result"]["correct"] for r in runs + [traced]),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "run_elapsed_s": summary([r["elapsed_s"] for r in runs]),
            "end_to_end": {},
            "pass": {},
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "traced_seed": args.traced_seed,
        }
        ok &= entry["correct"]
        for name, bound in bounds.items():
            s = summary([r["result"]["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            s["within_third_of_bound"] = s["spread"] is not None and s["spread"] < bound / 3
            entry["end_to_end"][name] = s
            print(f"{workload:17s} {name:12s} median {s['median']:.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound {bound})", flush=True)
        for name, first in runs[0]["pass"].items():
            s = summary([r["pass"][name]["value"] for r in runs])
            s["unit"] = first["unit"]
            entry["pass"][name] = s
        report["workloads"][workload] = entry
        print(f"{workload:17s} correct {entry['correct']} attempted {entry['attempted']} "
              f"failed {entry['failed']} run {entry['run_elapsed_s']['median']:.1f} s", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
