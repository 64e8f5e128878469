"""Mutated response and Touchstone texts either parse or raise ModelError;
mutated scene texts load and run or end as ModelError or NumericsError, and
the YAML loader Scene.load picks reads them as PyYAML's pure-Python loader does."""

import os

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FREQ
from remskit import ModelError, NumericsError
from remskit.cli import main
from remskit.farfield import make_latlon_grid
from remskit.network import TouchstoneData, parse_touchstone, touchstone_to_text
from remskit.radiating import (
    parse_response_text,
    random_reciprocal_structure,
    response_to_text,
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
    return response_to_text(synthesize_plane_wave_responses(s))


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
