"""A fixed calibration loop that reads how fast the host runs right now.

On a shared machine other tenants slow this process by a share that drifts
from one minute to the next (by up to half on a two-core KVM guest), which
moves every timing of a run together. ``run.py`` times this loop in blocks
between the passes and set-ups it measures, spread over the whole run, and
divides the run's median times by the loop's median time. A slower program
still reads slower; a slower host mostly cancels out.

The loop mixes the kinds of work the workloads spend their time on:
formatting numbers as text and parsing them back (response files,
kernels.txt, CSVs, scene files), tiny array operations in an interpreted
loop (kernel resampling) and small complex SVDs, inverses and solves (port
reduction, gain operators, precoders).
It uses no remskit code, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Scaled times read as seconds on a host where one ``loop()`` takes this
# long. On the machine the baseline was measured on (2-core shared KVM guest,
# Python 3.11.7, NumPy 2.4.6, OpenBLAS 0.3.31 at one thread) the loop's run
# medians read 6.7 to 8.3 ms.
REFERENCE_S = 0.006

BLOCK = 6  # loops per calibration block

_state: dict = {}


def _inputs() -> dict:
    if not _state:
        rng = np.random.default_rng(12345)
        cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # noqa: E731
        _state["floats"] = rng.standard_normal(500).tolist()
        _state["kernel"] = cplx(12, 2, 12, 2)
        _state["basis"] = rng.standard_normal((12, 2, 2))
        _state["square"] = cplx(8, 8)
        _state["rhs"] = cplx(8, 2)
    return _state


def loop() -> float:
    """Seconds for one pass of the fixed calibration work."""
    s = _inputs()
    t0 = perf_counter()
    # text: numbers written with repr and parsed back, as response files are
    text = "\n".join(f"{i} {x!r} {-x!r}" for i, x in enumerate(s["floats"]))
    table = {}
    for line in text.splitlines():
        i, a, b = line.split()
        table[int(i) % 97] = complex(float(a), float(b))
    # tiny array operations in an interpreted loop, as kernel resampling does
    kernel, basis = s["kernel"], s["basis"]
    for i in range(12):
        for j in range(12):
            acc = np.zeros((2, 2), dtype=complex)
            acc += 0.5 * kernel[i, :, j, :]
            acc += 0.5 * kernel[j, :, i, :]
            basis[i] @ acc @ basis[j].T
    # small dense linear algebra, as port reduction and precoders do
    for _ in range(60):
        np.linalg.svd(s["square"], compute_uv=False)
        np.linalg.solve(np.linalg.inv(s["square"]), s["rhs"])
    return perf_counter() - t0


class Calibration:
    """Loop times sampled in blocks over a run, and the scale they give."""

    def __init__(self):
        self.loops: list[float] = []

    def sample(self) -> None:
        """Time ``BLOCK`` loops back to back."""
        self.loops.extend(loop() for _ in range(BLOCK))

    def loop_s(self) -> float:
        """Median loop time over the run."""
        return statistics.median(self.loops)

    def scale(self, seconds: float) -> float:
        """``seconds`` measured in this run, at the reference speed."""
        return seconds * REFERENCE_S / self.loop_s()
