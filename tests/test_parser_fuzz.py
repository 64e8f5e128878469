"""Mutated response and Touchstone texts either parse or raise ModelError."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FREQ
from remskit import ModelError
from remskit.farfield import make_latlon_grid
from remskit.network import TouchstoneData, parse_touchstone, touchstone_to_text
from remskit.radiating import (
    parse_response_text,
    random_reciprocal_structure,
    response_to_text,
    synthesize_plane_wave_responses,
)

# Replacement words: non-numbers, non-finite values, keywords of both formats,
# and numbers no larger than the ones they replace, so that no mutation
# declares a larger grid or port count than the valid text.
WORDS = ("x", "abc", "nan", "inf", "-inf", "-1", "0", "1.5", "theta", "phi", "b", "s",
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


RESPONSE = _response_text()
TOUCHSTONE = _touchstone_texts()


@st.composite
def mutated(draw, text):
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
                toks[j] = draw(st.sampled_from(WORDS))
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
