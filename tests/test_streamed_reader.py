"""The streamed response-file reader: its memory, its UTF-8 errors, and its store order.

read_response_file reads a file in chunks of _textio._CHUNK bytes, so its
peak memory is the arrays it returns plus about one chunk of text, and an
undecodable byte is reported with the offset a whole-file decode gives,
wherever the chunk ends fall, ahead of any record error. Each s record is
stored as it is read, in bulk or per line, so the later of two records for
one direction wins.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FREQ, loop_parse_response_text, response_text
from remskit import ModelError, _textio, radiating
from remskit._textio import count_lines, read_text, split_lines
from remskit.farfield import make_latlon_grid
from remskit.radiating import (
    parse_response_text,
    random_reciprocal_structure,
    read_response_file,
    synthesize_plane_wave_responses,
    write_response_file,
)


def _error(read, path):
    with pytest.raises(ModelError) as err:
        read(path)
    return str(err.value)


def test_streamed_read_peaks_at_the_result_plus_about_one_chunk(tmp_path):
    # the measured_kernels file: an 8x16 grid, 2 ports, every scattered block (3.4 MB)
    s = random_reciprocal_structure(make_latlon_grid(8, 16), 2, np.random.default_rng(5), FREQ)
    path = str(tmp_path / "r.rsp")
    write_response_file(synthesize_plane_wave_responses(s), path)
    tracemalloc.start()
    try:
        resp = read_response_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = resp.port_waves.nbytes + resp.scattered.nbytes
    assert peak < result + 1_500_000, (result, peak)


@settings(max_examples=500)
@given(st.text(alphabet="ab \r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\u0663"), st.lists(st.integers(0, 40)))
def test_chunked_text_splits_into_the_lines_of_the_whole(text, cuts):
    ends = sorted(min(c, len(text)) for c in cuts)  # repeated ends give empty chunks
    chunks = [text[a:b] for a, b in zip([0] + ends, ends + [len(text)])]
    assert count_lines(iter(chunks)) == len(text.splitlines())
    assert list(split_lines(iter(chunks))) == text.splitlines()


def test_streamed_read_holds_one_block_of_a_long_run(tmp_path):
    # 20,000 restated records in one run: a run is converted a block's worth at a time
    s = random_reciprocal_structure(make_latlon_grid(4, 8), 1, np.random.default_rng(4), FREQ)
    lines = response_text(synthesize_plane_wave_responses(s)).splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("s "))
    text = "\n".join(lines[:k] + lines[k : k + 32] * 625 + lines[k + 32 :]) + "\n"
    path = str(tmp_path / "r.rsp")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    tracemalloc.start()
    try:
        resp = read_response_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2_000_000
    assert peak < resp.port_waves.nbytes + resp.scattered.nbytes + 1_500_000, peak
    np.testing.assert_array_equal(resp.scattered, parse_response_text(text).scattered)


@pytest.fixture(scope="module")
def response_bytes():
    s = random_reciprocal_structure(make_latlon_grid(2, 4), 1, np.random.default_rng(3), FREQ)
    return response_text(synthesize_plane_wave_responses(s)).encode()


@pytest.mark.parametrize(
    "bad",
    [b"\xff", b"\xc3(", b"\xe2\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", "٣".encode() + b"\x80"],
)
def test_streamed_read_reports_the_whole_file_decode_offset(tmp_path, monkeypatch, response_bytes, bad):
    at = len(response_bytes) // 2
    path = str(tmp_path / "r.rsp")
    for data in (response_bytes[:at] + bad + response_bytes[at:], response_bytes + bad):
        with open(path, "wb") as fh:
            fh.write(data)
        start = data.index(bad)
        want = _error(read_text, path)
        assert "not UTF-8 text" in want
        # a chunk ends just before the sequence, or inside it, or the file is one chunk
        for chunk in [start, *range(start + 1, start + len(bad)), len(data)]:
            monkeypatch.setattr(_textio, "_CHUNK", chunk)
            assert _error(read_response_file, path) == want, (bad, chunk)


def test_streamed_read_reports_a_late_decode_error_ahead_of_an_early_record_error(
    tmp_path, monkeypatch, response_bytes
):
    lines = response_bytes.splitlines(keepends=True)
    data = b"".join(lines[:5] + [b"q 1 2 3\n"] + lines[5:]) + b"# \xff\n"
    with pytest.raises(ModelError, match="line 6: unknown record type 'q'"):
        parse_response_text(data[:-3].decode())
    path = str(tmp_path / "r.rsp")
    with open(path, "wb") as fh:
        fh.write(data)
    for chunk in (64, len(data)):
        monkeypatch.setattr(_textio, "_CHUNK", chunk)
        assert _error(read_response_file, path) == f"{path}: not UTF-8 text (invalid start byte at byte {len(data) - 2})"


def test_streamed_read_reads_a_pipe_as_a_file(tmp_path, response_bytes):
    path = tmp_path / "r.rsp"
    path.write_bytes(response_bytes)
    want = read_response_file(str(path))
    r, w = os.pipe()
    try:
        os.write(w, response_bytes)  # the whole text fits the pipe's buffer
        os.close(w)
        got = read_response_file(f"/dev/fd/{r}")
    finally:
        os.close(r)
    np.testing.assert_array_equal(got.port_waves, want.port_waves)
    np.testing.assert_array_equal(got.scattered, want.scattered)


def test_later_s_record_wins_across_bulk_runs_and_per_line_records(response_bytes):
    # a block's bulk run, then a per-line record ("1_0" is refused by NumPy's
    # reader) and a one-line bulk run that restate the run's first direction, in
    # both orders; comments keep the three apart, as runs group consecutive lines
    lines = response_bytes.decode().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("s "))
    head = " ".join(lines[k].split()[:3])
    per_line, bulk = f"{head} 1_0 1_0 1_0 1_0", f"{head} 2.5 2.5 2.5 2.5"
    n = 8  # the 2x4 grid's directions: one block's run
    for restated, want in (([per_line, bulk], 2.5), ([bulk, per_line], 10.0)):
        edit = lines[k : k + n] + ["# one", restated[0], "# two", restated[1]]
        text = "\n".join(lines[:k] + edit + lines[k + n :]) + "\n"
        got = parse_response_text(text)
        ref = loop_parse_response_text(text)
        np.testing.assert_array_equal(got.scattered, ref.scattered)
        np.testing.assert_array_equal(got.port_waves, ref.port_waves)
        assert (got.scattered[0, 0, 0] == complex(want, want)).all()


def test_tab_separated_s_runs_are_converted_in_bulk(tmp_path, monkeypatch, response_bytes):
    lines = response_bytes.decode().splitlines()
    tabbed = "\n".join(lines[:1] + ["\t".join(line.split()) for line in lines[1:]]) + "\n"
    assert "\ns\t" in tabbed and "\ns " not in tabbed
    (tmp_path / "spaced.rsp").write_bytes(response_bytes)
    (tmp_path / "tabbed.rsp").write_text(tabbed, encoding="utf-8")
    want = read_response_file(str(tmp_path / "spaced.rsp"))
    converted = []
    convert = radiating._convert_s_run
    monkeypatch.setattr(
        radiating, "_convert_s_run", lambda *args: converted.append(convert(*args)) or converted[-1]
    )
    got = read_response_file(str(tmp_path / "tabbed.rsp"))
    assert len(converted) == got.scattered.shape[0] * 2  # one run per scattered block
    assert all(c is not None for c in converted)
    np.testing.assert_array_equal(got.port_waves, want.port_waves)
    np.testing.assert_array_equal(got.scattered, want.scattered)
