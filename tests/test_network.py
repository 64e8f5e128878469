"""Multiport algebra, tuning constructions, frontend blocks, Touchstone io."""

import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from remskit import (
    ModelError,
    NumericsError,
    RFFrontend,
    TouchstoneData,
    TuningNetwork,
    feedthrough_reflector_fixed,
    inline_tuning,
    parse_touchstone,
    read_touchstone,
    reduce_terminated_ports,
    reflection_coefficient,
    through_tuning,
    touchstone_to_text,
    write_touchstone,
)
from remskit import network
from remskit.network import (
    COND_LIMIT,
    check_condition,
    checked_inv,
)

from conftest import is_passive, is_reciprocal, max_singular_value, vi_from_waves, waves_from_vi


def test_wave_voltage_round_trip():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    i = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a, b = waves_from_vi(v, i, 50.0)
    v2, i2 = vi_from_waves(a, b, 50.0)
    np.testing.assert_allclose(v2, v, rtol=1e-13)
    np.testing.assert_allclose(i2, i, rtol=1e-13)
    # net power both ways
    p_vi = float(np.real(np.vdot(i, v)))
    p_ab = float(np.vdot(a, a).real - np.vdot(b, b).real)
    assert p_ab == pytest.approx(p_vi, rel=1e-13)


def test_reflection_coefficient():
    assert reflection_coefficient(50.0, 50.0) == 0.0
    assert reflection_coefficient(0.0, 50.0) == -1.0
    z = 30.0 + 40.0j
    np.testing.assert_allclose(
        reflection_coefficient(z, 50.0), (z - 50.0) / (z + 50.0), rtol=1e-15
    )


def test_passivity_and_reciprocity_predicates():
    assert is_passive(np.eye(3))
    assert not is_passive(1.2 * np.eye(2))
    assert is_reciprocal(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not is_reciprocal(np.array([[0.0, 1.0], [0.5, 0.0]]))
    s = np.diag([0.5, 0.25])
    assert max_singular_value(s) == pytest.approx(0.5)


def _brute_reduce(s, keep, gamma):
    """Independent oracle: solve b = S a with terminated ports a_i = gamma_i b_i."""
    n = s.shape[0]
    keep = list(keep)
    term = [i for i in range(n) if i not in keep]
    gamma_full = np.zeros(n, dtype=complex)
    gamma_full[term] = gamma
    out = np.empty((len(keep), len(keep)), dtype=complex)
    for col, kc in enumerate(keep):
        e = np.zeros(n, dtype=complex)
        e[kc] = 1.0
        b = np.linalg.solve(np.eye(n) - s @ np.diag(gamma_full), s @ e)
        out[:, col] = b[keep]
    return out


def test_reduce_terminated_ports_against_brute_solve():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        s *= 0.9 / max_singular_value(s)
        gamma = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2))
        red = reduce_terminated_ports(s, 3, gamma)
        np.testing.assert_allclose(red, _brute_reduce(s, [0, 1, 2], gamma), rtol=1e-11)


def test_reduce_singular_termination_raises():
    s = np.zeros((2, 2), dtype=complex)
    s[1, 1] = 1.0
    with pytest.raises(NumericsError):
        reduce_terminated_ports(s, 1, [1.0])


def test_reduce_rejects_mismatched_terminations():
    s = np.zeros((4, 4), dtype=complex)
    for n_keep, gamma in ((2, [0.5]), (2, np.zeros((3, 2))), (5, []), (-1, np.zeros(5))):
        with pytest.raises(ModelError, match="reflections"):
            reduce_terminated_ports(s, n_keep, gamma)


def test_check_condition_agrees_with_numpy_cond():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    for cond in (1.0, 1e6, COND_LIMIT * 0.999, COND_LIMIT * 1.001, 1e15):
        mat = q @ np.diag([1.0, 0.5, 0.3, 1.0 / cond])
        if np.linalg.cond(mat) <= COND_LIMIT:
            check_condition(mat, "probe")
        else:
            message = f"probe: condition number {np.linalg.cond(mat):.3e} exceeds 1e+12"
            with pytest.raises(NumericsError, match=re.escape(message)):
                check_condition(mat, "probe")
    with pytest.raises(NumericsError, match=re.escape("condition number inf exceeds 1e+12")):
        check_condition(np.zeros((2, 2)), "singular")
    check_condition(np.zeros((0, 0)), "empty system")


def _passes_check_condition(mat) -> bool:
    try:
        check_condition(mat, "probe")
    except NumericsError:
        return False
    return True


def test_checked_inv_decides_like_check_condition(monkeypatch):
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    mats = [
        q @ np.diag([1.0, 0.5, 0.3, 1.0 / cond])
        for cond in (1.0, 1e10, COND_LIMIT * 0.999, COND_LIMIT * 1.001, 1e17)
    ]
    lu_singular = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)
    lu_singular[3, :2] = lu_singular[1, :2] = [2.0, 4.0]  # two equal rows
    mats += [np.zeros((4, 4), dtype=complex), lu_singular]
    expected = [_passes_check_condition(mat) for mat in mats]
    assert expected == [True, True, True, False, False, False, False]

    for mat, ok in zip(mats, expected):
        if ok:
            assert np.array_equal(checked_inv(mat, "probe"), np.linalg.inv(mat))
        else:
            with pytest.raises(NumericsError) as err:
                check_condition(mat, "probe")
            with pytest.raises(NumericsError, match=re.escape(str(err.value))):
                checked_inv(mat, "probe")

    # a stack raises on a failing member and is np.linalg.inv when none fails
    stack = np.array(mats)
    for singular in (5, 6):
        with pytest.raises(NumericsError, match=re.escape("probe: condition number inf exceeds 1e+12")):
            checked_inv(stack[[0, singular, 1]], "probe")
    with pytest.raises(NumericsError) as err:
        check_condition(mats[3], "probe")  # 1.001 COND_LIMIT
    with pytest.raises(NumericsError, match=re.escape(str(err.value))):
        checked_inv(stack[[0, 3, 1]], "probe")
    assert np.array_equal(checked_inv(stack[:3], "probe"), np.linalg.inv(stack[:3]))

    # the Frobenius certificate spares the SVD only where it proves the bound
    svds = []
    exact = network.condition_number
    monkeypatch.setattr(network, "condition_number", lambda m: svds.append(m) or exact(m))
    checked_inv(mats[0], "probe")
    assert svds == []
    checked_inv(mats[1], "probe")  # cond 1e10: bound above 1e9, exact rule passes it
    assert len(svds) == 1
    assert checked_inv(np.zeros((3, 0, 0)), "empty").shape == (3, 0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_matrix_has_condition_number_inf(bad):
    mat = np.eye(2, dtype=complex)
    mat[1, 0] = bad
    assert network.condition_number(mat) == math.inf
    message = re.escape("probe: condition number inf exceeds 1e+12")
    with pytest.raises(NumericsError, match=message):
        check_condition(mat, "probe")
    with pytest.raises(NumericsError, match=message):
        checked_inv(np.full((2, 2), bad), "probe")


@pytest.mark.parametrize("gains, ndim", [(1.0, 0), (np.eye(2), 2)])
def test_inline_tuning_needs_a_vector_of_gains(gains, ndim):
    with pytest.raises(ModelError, match=f"^tuning gains must be 1-D, got {ndim}-D$"):
        inline_tuning(gains)


def test_through_and_inline_tuning_blocks():
    t = through_tuning(2)
    np.testing.assert_array_equal(t.s_tt, np.zeros((2, 2)))
    np.testing.assert_array_equal(t.s_tr, np.eye(2))
    np.testing.assert_array_equal(t.s_rt, np.eye(2))
    np.testing.assert_array_equal(t.s_rr, np.zeros((2, 2)))
    assert is_passive(t.s) and is_reciprocal(t.s)

    g = 1.0 / math.sqrt(2.0)  # 3 dB attenuator
    a = inline_tuning([g, g])
    np.testing.assert_array_equal(a.s_tr, np.diag([g, g]))
    assert is_passive(a.s)

    with pytest.raises(ModelError):
        TuningNetwork(1, np.zeros((2, 3)))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tuning_network_reads_its_radiating_ports_from_s(n):
    t = TuningNetwork(n, np.eye(2))
    assert t.n_frontend == n and t.m_radiating == 2 - n
    assert t.s_tt.shape == (n, n) and t.s_rr.shape == (2 - n, 2 - n)


def test_feedthrough_reflector_layout():
    n, m, r = 1, 3, 2
    s = feedthrough_reflector_fixed(n, m)
    assert s.shape == (n + m + r, n + m + r)
    assert is_reciprocal(s) and is_passive(s)
    # frontend 0 <-> radiating 0, radiating 1+j <-> control j
    assert s[0, 1] == 1.0 and s[1, 0] == 1.0
    assert s[2, 4] == 1.0 and s[4, 2] == 1.0
    assert s[3, 5] == 1.0 and s[5, 3] == 1.0
    with pytest.raises(ModelError):
        feedthrough_reflector_fixed(2, 1)
    assert feedthrough_reflector_fixed(2, 2).shape == (4, 4)  # r = 0: no control ports


def test_reconfigurable_tuning_reflects_loads():
    n, m, r = 1, 3, 2
    fixed = feedthrough_reflector_fixed(n, m)
    gammas = np.array([0.5j, -0.25 + 0.1j])
    t = TuningNetwork(n, reduce_terminated_ports(fixed, n + m, gammas))
    assert t.n_frontend == n and t.m_radiating == m
    # the frontend chain passes straight through
    np.testing.assert_allclose(t.s_tt, np.zeros((1, 1)), atol=1e-15)
    np.testing.assert_allclose(t.s_tr, np.array([[1.0, 0.0, 0.0]]), atol=1e-15)
    # each reflector radiating port sees exactly its load reflection
    np.testing.assert_allclose(t.s_rr[1, 1], gammas[0], rtol=1e-15)
    np.testing.assert_allclose(t.s_rr[2, 2], gammas[1], rtol=1e-15)
    np.testing.assert_allclose(t.s_rr[0, 0], 0.0, atol=1e-15)


def test_frontend_blocks_by_hand():
    z_t = 30.0 + 40.0j
    z_r = 70.0 - 10.0j
    fe = RFFrontend(z_tx=[z_t], z_rx=[z_r], r0=50.0)
    assert fe.n_tx == 1 and fe.n_rx == 1 and fe.n == 2
    np.testing.assert_allclose(
        fe.g_rf, [(z_t - 50.0) / (z_t + 50.0), (z_r - 50.0) / (z_r + 50.0)], rtol=1e-15
    )
    sq = math.sqrt(50.0)
    np.testing.assert_allclose(fe.k_tx, [sq / (z_t + 50.0)], rtol=1e-15)
    np.testing.assert_allclose(fe.k_rx, [sq / (z_r + 50.0)], rtol=1e-15)
    np.testing.assert_allclose(fe.z_rx * fe.k_rx, [sq * z_r / (z_r + 50.0)], rtol=1e-15)
    np.testing.assert_allclose(fe.k_out, [z_r / sq], rtol=1e-15)
    # available power of a 2 V source behind 30+40j ohms
    assert fe.available_power([2.0]) == pytest.approx(4.0 / 120.0, rel=1e-14)
    np.testing.assert_allclose(
        fe.conjugate_match_tuning(),
        [[(np.conj(z_t) - 50.0) / (np.conj(z_t) + 50.0)]],
        rtol=1e-15,
    )


def test_frontend_validation():
    with pytest.raises(ModelError):
        RFFrontend(z_tx=[-5.0], z_rx=[], r0=50.0)
    with pytest.raises(ModelError):
        RFFrontend(z_tx=[50.0], z_rx=[-1.0 + 0.0j], r0=50.0)
    with pytest.raises(ModelError):
        RFFrontend(z_tx=[50.0], z_rx=[], r0=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ModelError, match="finite"):
            RFFrontend(z_tx=[50.0], z_rx=[], r0=bad)
    # one impedance per chain: a nested list is no frontend
    for z_tx, z_rx in (([[50.0, 60.0]], []), ([50.0], [[50.0], [60.0]])):
        with pytest.raises(ModelError, match="1-D"):
            RFFrontend(z_tx=z_tx, z_rx=z_rx, r0=50.0)
    # purely reactive receive loads are allowed
    fe = RFFrontend(z_tx=[50.0], z_rx=[5.0j], r0=50.0)
    assert fe.n_rx == 1
    # and no receive chains at all is a valid transmit-only frontend
    fe = RFFrontend(z_tx=[50.0, 50.0], z_rx=np.zeros(0), r0=50.0)
    assert fe.n_rx == 0 and fe.k_out.shape == (0,) and fe.g_rf.shape == (2,)



def test_frontend_rejects_non_finite_impedances():
    for bad in (complex("nan"), complex(math.inf, 0.0), complex(50.0, math.nan)):
        with pytest.raises(ModelError, match="finite"):
            RFFrontend(z_tx=[50.0, bad], z_rx=[], r0=50.0)
        with pytest.raises(ModelError, match="finite"):
            RFFrontend(z_tx=[50.0], z_rx=[bad], r0=50.0)


# ---------------------------------------------------------------------------
# touchstone


def test_touchstone_two_port_disk_order():
    text = (
        "! measured S-parameters\n"
        "# GHz S RI R 50\n"
        "1.0  0.1 0.2  0.3 0.4  0.5 0.6  0.7 0.8 ! trailing comment\n"
    )
    data = parse_touchstone(text)
    assert data.n_ports == 2
    m = data.matrices[0]
    # v1 two-port records run S11 S21 S12 S22
    assert m[0, 0] == 0.1 + 0.2j
    assert m[1, 0] == 0.3 + 0.4j
    assert m[0, 1] == 0.5 + 0.6j
    assert m[1, 1] == 0.7 + 0.8j
    assert data.frequencies_hz[0] == 1e9


def test_touchstone_option_line_defaults_and_case():
    data = parse_touchstone("# hz s ri r 25\n2.0e6 0.5 0.0\n")
    assert data.frequency_unit == "hz" and data.reference == 25.0
    assert data.frequencies_hz[0] == 2.0e6
    # empty option entries fall back to GHz / S / MA / 50
    data = parse_touchstone("1.0 0.5 10.0\n")
    assert data.format == "ma" and data.frequency_unit == "ghz"
    assert data.reference == 50.0


def test_touchstone_rejections():
    with pytest.raises(ModelError, match="version 2"):
        parse_touchstone("[Version] 2.0\n# GHz S RI R 50\n1.0 0.0 0.0\n")
    with pytest.raises(ModelError, match="multiple option"):
        parse_touchstone("# GHz S RI R 50\n# GHz S RI R 50\n1.0 0.0 0.0\n")
    with pytest.raises(ModelError, match="only S-parameter"):
        parse_touchstone("# GHz Y RI R 50\n1.0 0.0 0.0\n")
    with pytest.raises(ModelError, match="non-numeric"):
        parse_touchstone("# GHz S RI R 50\n1.0 abc 0.0\n")
    with pytest.raises(ModelError, match="do not match any supported"):
        parse_touchstone("# GHz S RI R 50\n1.0 0.0 0.0 1.0\n")
    with pytest.raises(ModelError, match="do not match an 3-port"):
        parse_touchstone("# GHz S RI R 50\n1.0 0.0 0.0\n", n_ports=3)
    with pytest.raises(ModelError, match="no data lines"):
        parse_touchstone("# GHz S RI R 50\n")
    cases = [
        ("# GHz S RI R abc\n1.0 0.5 0.0\n", "line 1: option R must be a number"),
        ("# GHz S RI R nan\n1.0 0.5 0.0\n", "line 1: option R must be finite"),
        ("# GHz S RI R 0\n1.0 0.5 0.0\n", "reference resistance 0.0 must be positive"),
        ("# GHz S RI R 50\n1.0 0.5 0.0\n2.0 nan 0.0\n", "line 3: non-numeric token 'nan'"),
        ("# GHz S RI R 50\ninf 0.5 0.0\n", "frequencies must be finite"),
        ("# GHz S RI R 50\ninf 0.5 0.0\ninf 0.5 0.0\n", "frequencies must be finite"),
        ("# GHz S RI R 50\n1.0 inf 0.0\n", "S-parameter data must be finite"),
        ("# GHz S DB R 50\n1.0 -20.0 inf\n", "S-parameter data must be finite"),
        ("# GHz S RI R 50\n1.0 infe5 0.0\n", "line 2: non-numeric token 'infe5'"),
        ("# GHz S RI R 50\n1.0 0.5 -infE2\n", "line 2: non-numeric token '-infE2'"),
    ]
    for text, match in cases:
        with pytest.raises(ModelError, match=match):
            parse_touchstone(text)
    with pytest.raises(ModelError, match="0-port"):
        parse_touchstone("1.0 0.5 0.0\n", n_ports=0)


@pytest.mark.parametrize("fmt, bad", [("RI", "x"), ("DB", "-3.0.1")])
def test_touchstone_bad_token_after_many_integers_fails_fast(fmt, bad):
    # integer tokens of several digits: a token pattern with more than one parse
    # of "10" would backtrack through ~2^60 splits before the bad token fails
    line = " ".join(["10"] * 30 + ["120", "-35"] * 15 + [bad])
    start = time.perf_counter()
    with pytest.raises(ModelError, match=f"line 2: non-numeric token {re.escape(repr(bad))}"):
        parse_touchstone(f"# GHz S {fmt} R 50\n{line}\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("fmt", ["ri", "ma", "db"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_touchstone_write_parse_bit_exact(fmt, n):
    rng = np.random.default_rng(100 * n + len(fmt))
    mats = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    mats *= 0.5
    data = TouchstoneData.from_matrices([1e9, 2e9, 3.3e9], mats, format=fmt)
    text = touchstone_to_text(data)
    back = parse_touchstone(text)
    assert back.n_ports == n and back.format == fmt
    np.testing.assert_array_equal(back.frequencies, data.frequencies)
    np.testing.assert_array_equal(back.columns, data.columns)
    np.testing.assert_array_equal(back.matrices, data.matrices)
    # the writer is a fixed point on parsed data
    assert touchstone_to_text(back) == text


def test_touchstone_ri_matrices_bit_exact():
    rng = np.random.default_rng(42)
    mats = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    data = TouchstoneData.from_matrices([1e9, 2e9], mats, format="ri")
    back = parse_touchstone(touchstone_to_text(data))
    np.testing.assert_array_equal(back.matrices, mats)


def test_touchstone_db_zero_magnitude():
    mats = np.array([[[0.0 + 0.0j, 0.5], [0.25j, 0.0]]])
    data = TouchstoneData.from_matrices([1e9], mats, format="db")
    text = touchstone_to_text(data)
    assert "-inf" in text
    back = parse_touchstone(text)
    np.testing.assert_array_equal(back.matrices, data.matrices)
    assert back.matrices[0, 0, 0] == 0.0


def test_touchstone_three_port_wrapping_and_inference():
    rng = np.random.default_rng(9)
    mats = 0.3 * (rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)))
    text = touchstone_to_text(TouchstoneData.from_matrices([1e9, 2e9], mats, format="ri"))
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    # one line per matrix row, frequency only on the first
    assert [len(l.split()) for l in lines] == [7, 6, 6, 7, 6, 6]
    back = parse_touchstone(text)
    assert back.n_ports == 3
    np.testing.assert_allclose(back.matrices, mats, rtol=1e-15)


def test_touchstone_five_port_rows_wrap_after_four_entries():
    mats = np.arange(50, dtype=float).reshape(2, 5, 5) * (1.0 + 0.5j)
    text = touchstone_to_text(TouchstoneData.from_matrices([1e9, 2e9], mats, format="ri"))
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    # each matrix row: four entries, then one on its own line; frequency on the first
    assert [len(l.split()) for l in lines] == 2 * [9, 2, 8, 2, 8, 2, 8, 2, 8, 2]
    assert lines[:2] == ["1.0 0.0 0.0 1.0 0.5 2.0 1.0 3.0 1.5", "4.0 2.0"]
    back = parse_touchstone(text)
    assert back.n_ports == 5
    np.testing.assert_array_equal(back.matrices, mats)


def test_touchstone_port_count_is_checked_against_the_data_first(tmp_path):
    # a 100000-port record holds 2e10 numbers: the one-line file is refused
    # before the layout of such a record is built
    path = tmp_path / "huge.s100000p"
    path.write_text("# GHz S RI R 50\n1.0 0.5 0.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match="do not match an 100000-port layout"):
            read_touchstone(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_touchstone_file_io_and_extension_hint(tmp_path):
    rng = np.random.default_rng(21)
    mats = 0.4 * (rng.standard_normal((1, 2, 2)) + 1j * rng.standard_normal((1, 2, 2)))
    data = TouchstoneData.from_matrices([5.4e9], mats, format="ma")
    path = tmp_path / "network.s2p"
    write_touchstone(data, str(path))
    back = read_touchstone(str(path))
    assert back.n_ports == 2
    np.testing.assert_array_equal(back.columns, data.columns)


def test_touchstone_validation():
    with pytest.raises(ModelError, match="strictly increasing"):
        TouchstoneData.from_matrices([2e9, 1e9], np.zeros((2, 1, 1), dtype=complex))
    with pytest.raises(ModelError, match="unknown format"):
        TouchstoneData.from_matrices([1e9], np.zeros((1, 1, 1), dtype=complex), format="xx")
    with pytest.raises(ModelError, match="unknown frequency unit 'thz'"):
        TouchstoneData.from_matrices([1e9], np.zeros((1, 1, 1)), frequency_unit="thz")


@pytest.mark.parametrize(
    "frequencies, matrices, message",
    [
        (["x"], np.eye(2), "frequencies_hz must be a number, got 'x'"),
        ([math.nan], np.eye(2), "frequencies_hz must be finite, got nan"),
        (1e9, np.eye(2), "frequencies_hz must be numbers, got 1000000000.0"),
        ([1e9], [["a", 1], [1, 1]], "matrices must be complex numbers, got [['a', 1], [1, 1]]"),
        ([1e9], [[math.inf, 0.0], [0.0, 1.0]], "matrices must be finite"),
        ([1e9], [1.0, 2.0], "matrices must be square, got (2,)"),
        ([1e9], np.zeros((1, 2, 3)), "matrices must be square, got (1, 2, 3)"),
    ],
)
def test_touchstone_from_matrices_names_a_malformed_field(frequencies, matrices, message):
    with pytest.raises(ModelError) as err:
        TouchstoneData.from_matrices(frequencies, matrices)
    assert str(err.value) == message
