"""Mutated response and Touchstone texts either parse or raise ModelError;
the bulk response parser reads mutated texts as its per-line reference does,
and the streamed file reader reads them as the whole-text parser does;
mutated scene texts load and run or end as ModelError or NumericsError, and
the YAML loader Scene.load picks reads them as PyYAML's pure-Python loader does."""

import functools
import os
import warnings
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FREQ, loop_parse_response_text, port_wave_responses, response_text
from remskit import ModelError, NumericsError, _textio
from remskit._textio import read_text
from remskit.cli import main
from remskit.farfield import make_latlon_grid
from remskit.network import TouchstoneData, parse_touchstone, touchstone_to_text
from remskit.radiating import (
    parse_response_text,
    read_response_file,
    random_reciprocal_structure,
    synthesize_plane_wave_responses,
)
from remskit.scene import Scene, _yaml_loader

SCENE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenes")

# Replacement words: non-numbers, non-finite values, keywords of both formats,
# and numbers no larger than the ones they replace, so that no mutation
# declares a larger grid or port count than the valid text.
WORDS = ("x", "abc", "nan", "inf", "-inf", "infe5", "-1", "0", "1.5", "theta", "phi", "b", "s",
         "scattered", "ports", "grid", "R", "MA", "#", "!")


def _response_text():
    grid = make_latlon_grid(4, 4)
    s = random_reciprocal_structure(grid, 2, np.random.default_rng(12), FREQ)
    return response_text(synthesize_plane_wave_responses(s))


def _touchstone_texts():
    rng = np.random.default_rng(13)
    mats = 0.3 * (rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)))
    mats[1, 0, 2] = 0.0  # a zero magnitude, written as -inf in dB
    return tuple(
        touchstone_to_text(TouchstoneData.from_matrices([1.0e9, 2.0e9], mats, format=f))
        for f in ("ri", "ma", "db")
    )


def _scene_text(name):
    with open(os.path.join(SCENE_DIR, name), encoding="utf-8") as fh:
        return fh.read()


RESPONSE = _response_text()
TOUCHSTONE = _touchstone_texts()
SCENES = {name: _scene_text(name) for name in ("friis.yaml", "rra_case_study.yaml")}
# YAML syntax for the loader property: indicators, anchors, tags, quotes and
# the scalars whose type the resolver decides.
YAML_WORDS = WORDS + ("[", "]", "{", "}", "-", ":", "?", "&a", "*a", "!!str", "!!float", "'",
                      '"', "~", "null", "yes", "Off", ".nan", ".inf", "-.inf", "0x1f", "0o17",
                      "1e3", "1_000", "2001-12-14", "<<:")


@st.composite
def mutated(draw, text, words=WORDS):
    """text after one to three edits: replace a token with a word, delete a
    token, or drop or duplicate a line."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        edit = draw(st.sampled_from(("replace", "delete", "drop", "duplicate")))
        if edit in ("replace", "delete") and toks:
            j = draw(st.integers(0, len(toks) - 1))
            if edit == "replace":
                toks[j] = draw(st.sampled_from(words))
            else:
                del toks[j]
            lines[i] = " ".join(toks)
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        else:
            del lines[i]
    return "\n".join(lines) + "\n"


def test_unmutated_texts_parse():
    assert parse_response_text(RESPONSE).m_ports == 2
    for text in TOUCHSTONE:
        assert parse_touchstone(text).n_ports == 3


@settings(max_examples=300)
@given(mutated(RESPONSE))
def test_mutated_response_text_parses_or_raises_model_error(text):
    try:
        parse_response_text(text)
    except ModelError:
        pass


@settings(max_examples=300)
@given(st.sampled_from(TOUCHSTONE).flatmap(mutated))
def test_mutated_touchstone_text_parses_or_raises_model_error(text):
    try:
        data = parse_touchstone(text)
    except ModelError:
        return
    assert data.matrices.shape[1:] == (data.n_ports, data.n_ports)


# Words for the bulk response parser: tokens float() accepts and NumPy's
# reader refuses, non-finite values, an off-grid angle, a comment and a word.
PARSER_WORDS = ("1_0", "\u0663", "nan", "1e500", "abc", "#x", "46.5", "theta")


@functools.lru_cache(maxsize=None)
def _structure_text(n_theta, n_phi, m_ports, scatter):
    s = random_reciprocal_structure(
        make_latlon_grid(n_theta, n_phi), m_ports, np.random.default_rng(n_theta * n_phi + m_ports), FREQ
    )
    return response_text(synthesize_plane_wave_responses(s) if scatter else port_wave_responses(s))


@st.composite
def edited_response(draw):
    """A small response text after one to four edits of its records, with LF or CRLF line ends.

    The header lines stay as written: their reader is shared and fuzzed above.
    A duplicated line lands anywhere, so a later record can restate a
    direction in another block or run.
    """
    n_theta, n_phi = draw(st.integers(2, 4)), draw(st.sampled_from((2, 4, 6)))
    lines = _structure_text(n_theta, n_phi, draw(st.integers(1, 3)), draw(st.booleans())).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(4, len(lines) - 1))
        toks = lines[i].split() or [""]
        edit = draw(st.sampled_from(
            ("replace", "truncate", "duplicate", "delete", "swap", "blank", "comment", "indent", "tabs",
             "inner tabs")
        ))
        if edit == "replace":
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(PARSER_WORDS))
            lines[i] = " ".join(toks)
        elif edit == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        elif edit == "duplicate":
            lines.insert(draw(st.integers(4, len(lines))), lines[i])
        elif edit == "delete":
            del lines[i]
        elif edit == "swap":
            j = draw(st.integers(4, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit in ("blank", "comment"):
            lines.insert(i, "" if edit == "blank" else "# a comment")
        elif edit == "indent":
            lines[i] = draw(st.sampled_from(("  ", "\t"))) + lines[i]
        elif edit == "tabs":
            lines[i] = "\t".join(toks)
        else:
            lines[i] = toks[0] + " " + "\t".join(toks[1:])
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines) + "\n"


def _parsed(parse, text):
    """The bytes of every array parse reads from text, or its ModelError message."""
    try:
        resp = parse(text)
    except ModelError as err:
        return str(err)
    scattered = None if resp.scattered is None else resp.scattered.tobytes()
    return resp.frequency, resp.grid.n_theta, resp.grid.n_phi, resp.port_waves.tobytes(), scattered


@settings(max_examples=400)
@given(edited_response())
def test_bulk_response_parser_reads_edited_texts_as_the_per_line_reference(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _parsed(parse_response_text, text)
    assert got == _parsed(loop_parse_response_text, text)


def test_bulk_response_parser_reads_each_word_in_each_s_field_as_the_per_line_reference():
    lines = _structure_text(2, 4, 1, True).splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("s ")) + 1  # inside the first run
    toks = lines[k].split()
    edits = [" ".join(toks[:at] + [word] + toks[at + 1 :]) for at in range(7) for word in PARSER_WORDS]
    # blank bodies, which NumPy's reader skips, alone in a run and inside one
    edits += ["s", "s ", "s \t ", "# alone\ns \n# in a run of one"]
    for edit in edits:
        text = "\n".join(lines[:k] + [edit] + lines[k + 1 :]) + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _parsed(parse_response_text, text)
        assert got == _parsed(loop_parse_response_text, text), edit
    # what float() accepts and NumPy refuses is stored, as the reference stores it
    for word, value in (("1_0", 10.0), ("\u0663", 3.0)):
        text = "\n".join(lines[:k] + [" ".join(toks[:3] + [word] * 4)] + lines[k + 1 :]) + "\n"
        assert (parse_response_text(text).scattered.view(float) == value).sum() == 4


def test_bulk_response_parser_rounds_angles_as_python_does():
    # Python rounds 11.2500005 to 11.250001; NumPy's round gives 11.25, a ring of this grid
    lines = _structure_text(8, 2, 1, True).splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("s 11.25 0.0 "))
    lines[k] = "s 11.2500005" + lines[k][len("s 11.25") :]
    with pytest.raises(ModelError, match=rf"line {k + 1}: direction \(11.250001, 0.0\) not on the"):
        parse_response_text("\n".join(lines) + "\n")


# Byte sequences that are not UTF-8: a stray byte, a lead byte before ASCII,
# a cut three-byte lead, a surrogate, a code point above U+10FFFF, and a
# valid two-byte character before a stray byte.
BAD_UTF8 = (b"\xff", b"\xc3(", b"\xe2\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", "\u0663".encode() + b"\x80")
# Line breaks str.splitlines knows besides LF and CRLF.
LINE_BREAKS = ("\n", "\r", "\x0c", "\x1e", "\x85", "\u2028")


@st.composite
def response_file_bytes(draw):
    """The fuzz corpus as file bytes: an edited or mutated response text,
    its LFs maybe replaced by another line break, maybe with one sequence
    that is not UTF-8 inserted anywhere."""
    text = draw(st.one_of(edited_response(), mutated(RESPONSE)))
    data = text.replace("\n", draw(st.sampled_from(LINE_BREAKS))).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_UTF8)) + data[at:]
    return data


def _read_whole(path):
    return parse_response_text(read_text(path))


def _read_streamed(path, chunk):
    with mock.patch.object(_textio, "_CHUNK", chunk), warnings.catch_warnings():
        warnings.simplefilter("error")
        return _parsed(read_response_file, path)


@pytest.fixture(scope="module")
def response_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("response_files")


@settings(max_examples=300, deadline=None)
@given(response_file_bytes(), st.one_of(st.integers(1, 64), st.integers(65, 1 << 17)))
def test_streamed_read_parses_files_as_the_whole_text_parser(response_dir, data, chunk):
    path = response_dir / "r.rsp"
    path.write_bytes(data)
    chunk = max(chunk, len(data) // 256)  # at most 256 reads a pass keeps the examples fast
    assert _read_streamed(str(path), chunk) == _parsed(_read_whole, str(path))


def test_streamed_read_splits_lines_and_characters_at_any_chunk_end(tmp_path):
    lines = _structure_text(2, 2, 1, True).splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("s "))
    toks = lines[k].split()
    lines[k] = " ".join(toks[:3] + ["\u0663"] + toks[4:])  # stored as 3.0 by the per-line reader
    text = "\r\n".join(lines[: k + 1]) + "\u2028" + "\r\n".join(lines[k + 1 :]) + "\r\n"
    data = text.encode()
    path = tmp_path / "r.rsp"
    path.write_bytes(data)
    want = _parsed(_read_whole, str(path))
    assert isinstance(want, tuple)
    digit, separator = data.index("\u0663".encode()), data.index("\u2028".encode())
    ends = {
        "mid-line": data.index(b"grid") + 2,
        "between CR and LF": data.index(b"\r\n") + 1,
        "inside a two-byte character": digit + 1,
        "before U+2028": separator,
        "inside U+2028": separator + 1,
        "inside U+2028, one byte later": separator + 2,
        "after U+2028": separator + 3,
    }
    for where, chunk in ends.items():  # the first chunk ends there
        assert _read_streamed(str(path), chunk) == want, where


def _scene_calls(scene):
    """Every builder and task reader of scene, as zero-argument calls."""
    calls = [scene.solve_task, scene.gain_pattern_task, lambda: list(scene.channel_task()[-1])]
    calls.append(lambda: scene.pattern_slices(scene.beamform_problem()[0]))
    for names, build in (
        (scene.structures, scene.structure),
        (scene.structures, scene.position),
        (scene.frontends, scene.frontend),
        (scene.tunings, scene.tuning),
        (scene.models, scene.model),
    ):
        calls += [lambda build=build, name=name: build(name) for name in names]
    return calls


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated_scenes")


# The same words keep scenes small: a grid size or count they replace shrinks
# or becomes non-integral or non-finite, and duplicated lines add at most three
# list entries.
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SCENES)), st.data())
def test_mutated_scene_text_loads_runs_or_raises_model_error(scene_dir, name, data):
    path = scene_dir / name
    path.write_text(data.draw(mutated(SCENES[name])), encoding="utf-8")
    try:
        scene = Scene.load(str(path))
    except ModelError:
        return
    for call in _scene_calls(scene):
        try:
            call()
        except (ModelError, NumericsError):
            pass
    if name == "friis.yaml":  # exit 0, 1 (ModelError) or 2 (NumericsError); never a traceback
        for command in ("solve", "channel", "gain-pattern"):
            assert main([command, "--scene", str(path), "--out", str(scene_dir / "out")]) in (0, 1, 2)


def _loaded(text, loader):
    """repr of what loader reads from text (type-strict, and equal for NaN),
    or YAMLError."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except yaml.YAMLError:
        return yaml.YAMLError


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
@settings(max_examples=120)
@given(st.sampled_from(sorted(SCENES)).flatmap(lambda name: mutated(SCENES[name], YAML_WORDS)))
def test_scene_loader_reads_mutated_scenes_as_the_pure_loader(text):
    assert _loaded(text, _yaml_loader(text)) == _loaded(text, yaml.SafeLoader)
