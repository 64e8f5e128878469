"""The response and kernels writers against per-value reference formatting.

The references below compose every line value by value with ``fmt``. The
writers, which format each direction label once per grid and read values in
bulk, must produce the same text byte for byte. The file writers stream that
text one block at a time; the tests below also hold their peak memory, their
failure-atomicity and the mode of the files they create.
"""

import os
import tracemalloc

import numpy as np
import pytest

import remskit.cli as cli_mod
from conftest import FREQ, port_wave_responses, response_text
from remskit._textio import atomic_write_text, fmt
from remskit.cli import main
from remskit.farfield import make_latlon_grid
from remskit.radiating import (
    PlaneWaveResponseSet,
    _kernels_chunks,
    extract_rx_kernel,
    extract_scatter_kernel,
    parse_response_text,
    random_reciprocal_structure,
    synthesize_plane_wave_responses,
    write_response_file,
)

POL = ("theta", "phi")
EDGE_VALUES = (-0.0, 5e-324, 1e-300, 1e16, 1e22, -1.5e308)
CASES = [((2, 2), 1), ((3, 4), 2), ((4, 6), 3)]


def _reference_header(magic, frequency, grid, m_ports):
    return [magic, f"frequency_hz {fmt(frequency)}", f"grid {grid.n_theta} {grid.n_phi}", f"ports {m_ports}"]


def _reference_response_text(resp):
    g = resp.grid
    th, ph = np.degrees(g.theta), np.degrees(g.phi)
    lines = _reference_header("remskit-planewave-responses v1", resp.frequency, g, resp.m_ports)
    for i in range(g.size):
        for q in range(2):
            for m in range(resp.m_ports):
                b = resp.port_waves[i, q, m]
                lines.append(f"b {fmt(th[i])} {fmt(ph[i])} {POL[q]} {m} {fmt(b.real)} {fmt(b.imag)}")
    if resp.scattered is not None:
        for i in range(g.size):
            for q in range(2):
                lines.append(f"scattered {fmt(th[i])} {fmt(ph[i])} {POL[q]}")
                for j in range(g.size):
                    s = resp.scattered[i, q, j]
                    lines.append(
                        f"s {fmt(th[j])} {fmt(ph[j])} {fmt(s[0].real)} {fmt(s[0].imag)} "
                        f"{fmt(s[1].real)} {fmt(s[1].imag)}"
                    )
    return "\n".join(lines) + "\n"


def _reference_kernels_text(frequency, grid, rx, scatter):
    th, ph = np.degrees(grid.theta), np.degrees(grid.phi)
    lines = _reference_header("remskit-kernels v1", frequency, grid, rx.shape[0])
    for m in range(rx.shape[0]):
        for i in range(grid.size):
            lines.append(
                f"rx {m} {fmt(th[i])} {fmt(ph[i])} {fmt(rx[m, i, 0].real)} {fmt(rx[m, i, 0].imag)} "
                f"{fmt(rx[m, i, 1].real)} {fmt(rx[m, i, 1].imag)}"
            )
    if scatter is not None:
        for i in range(grid.size):
            for c_out in range(2):
                for j in range(grid.size):
                    for c_in in range(2):
                        v = scatter[i, c_out, j, c_in]
                        lines.append(
                            f"scatter {fmt(th[i])} {fmt(ph[i])} {POL[c_out]} "
                            f"{fmt(th[j])} {fmt(ph[j])} {POL[c_in]} {fmt(v.real)} {fmt(v.imag)}"
                        )
    return "\n".join(lines) + "\n"


def _with_edge_values(a, rng):
    """a with every edge value written into the real and the imaginary part of random entries."""
    a = a.copy()
    flat = a.reshape(-1)
    at = rng.choice(flat.size, len(EDGE_VALUES) + 1, replace=False)
    flat[at] = [complex(x, y) for x, y in zip(EDGE_VALUES, EDGE_VALUES[::-1])] + [complex(-0.0, -0.0)]
    return a


def _responses(grid_shape, m_ports, seed, scatter):
    grid = make_latlon_grid(*grid_shape)
    s = random_reciprocal_structure(grid, m_ports, np.random.default_rng(seed), FREQ)
    return synthesize_plane_wave_responses(s) if scatter else port_wave_responses(s)


@pytest.mark.parametrize("scatter", [False, True])
@pytest.mark.parametrize("grid_shape,m_ports", CASES)
def test_response_writer_matches_per_value_reference(grid_shape, m_ports, scatter):
    resp = _responses(grid_shape, m_ports, 30 + m_ports, scatter)
    rng = np.random.default_rng(m_ports)
    resp = PlaneWaveResponseSet(
        resp.frequency,
        resp.grid,
        _with_edge_values(resp.port_waves, rng),
        None if resp.scattered is None else _with_edge_values(resp.scattered, rng),
    )
    text = response_text(resp)
    assert text == _reference_response_text(resp)
    back = parse_response_text(text)
    for got, want in ((back.port_waves, resp.port_waves), (back.scattered, resp.scattered)):
        if want is None:
            assert got is None
            continue
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


@pytest.mark.parametrize("scatter", [False, True])
@pytest.mark.parametrize("grid_shape,m_ports", CASES)
def test_kernels_writer_matches_per_value_reference(grid_shape, m_ports, scatter):
    resp = _responses(grid_shape, m_ports, 40 + m_ports, scatter)
    rng = np.random.default_rng(10 + m_ports)
    rx = _with_edge_values(extract_rx_kernel(resp), rng)
    kernel = _with_edge_values(extract_scatter_kernel(resp), rng) if scatter else None
    want = _reference_kernels_text(FREQ, resp.grid, rx, kernel)
    assert "".join(_kernels_chunks(FREQ, resp.grid, rx, kernel)) == want


@pytest.mark.parametrize("scatter", [False, True])
@pytest.mark.parametrize("grid_shape,m_ports", CASES)
def test_extract_writes_the_per_value_reference_text(tmp_path, grid_shape, m_ports, scatter):
    resp = _responses(grid_shape, m_ports, 50 + m_ports, scatter)
    path = tmp_path / "r.rsp"
    write_response_file(resp, str(path))
    assert main(["extract", "--response", str(path), "--out", str(tmp_path)]) == 0
    back = parse_response_text(path.read_text())
    want = _reference_kernels_text(
        back.frequency,
        back.grid,
        extract_rx_kernel(back),
        extract_scatter_kernel(back) if scatter else None,
    )
    assert (tmp_path / "kernels.txt").read_text() == want


def _traced_peak(fn, *args):
    """Bytes that fn(*args) allocates at its peak above what was allocated before it, under tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_file_writers_stream_below_a_quarter_of_the_file_size(tmp_path, monkeypatch):
    resp = _responses((6, 12), 2, 60, True)
    path = tmp_path / "r.rsp"
    peak = _traced_peak(write_response_file, resp, str(path))
    assert path.read_text() == response_text(resp)
    assert peak < path.stat().st_size / 4

    peaks = []

    def traced_write(out_path, text):
        peaks.append(_traced_peak(atomic_write_text, out_path, text))

    monkeypatch.setattr(cli_mod, "atomic_write_text", traced_write)
    assert main(["extract", "--response", str(path), "--out", str(tmp_path)]) == 0
    assert len(peaks) == 1
    assert peaks[0] < (tmp_path / "kernels.txt").stat().st_size / 4


def test_a_failing_chunk_leaves_the_target_and_no_temp_file(tmp_path):
    target = tmp_path / "kernels.txt"
    target.write_bytes(b"old contents\n")

    def chunks():
        yield "first chunk\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        atomic_write_text(str(target), chunks())
    assert target.read_bytes() == b"old contents\n"
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_get_the_mode_open_would_give(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        assert main(["grid", "--n-theta", "2", "--n-phi", "4", "--out", str(tmp_path)]) == 0
        write_response_file(_responses((2, 4), 1, 70, False), str(tmp_path / "r.rsp"))
    finally:
        os.umask(old)
    for name in ("grid.csv", "r.rsp"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode
