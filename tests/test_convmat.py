import numpy as np
import pytest

from ssanc.convmat import build_conv_matrix, build_q, next_fast_len, per_channel, unit_pulse


def conv_direct(h, x):
    """Brute-force O(n^2) full linear convolution, the independent oracle."""
    out = np.zeros(len(h) + len(x) - 1)
    for i, hv in enumerate(h):
        for j, xv in enumerate(x):
            out[i + j] += hv * xv
    return out


def test_single_tap_gives_identity():
    G = build_conv_matrix([1.0], 3)
    assert G.shape == (3, 3)
    np.testing.assert_array_equal(G, np.eye(3))


def test_shape_matches_filter_and_input_lengths():
    Lg, Lw = 7, 5
    h = np.zeros(Lg)
    h[0] = 1.0
    G = build_conv_matrix(h, Lw)
    assert G.shape == (Lg + Lw - 1, Lw)
    assert G.shape[0] == len(h) + G.shape[1] - 1


def test_banded_toeplitz_entries():
    h = np.array([1.0, 2.0, 3.0])
    G = build_conv_matrix(h, 4)
    for i in range(G.shape[0]):
        for j in range(G.shape[1]):
            expected = h[i - j] if 0 <= i - j < len(h) else 0.0
            assert G[i, j] == expected


def test_matvec_equals_direct_convolution():
    rng = np.random.default_rng(7)
    h = rng.standard_normal(4)
    x = rng.standard_normal(5)
    got = build_conv_matrix(h, 5) @ x
    np.testing.assert_allclose(got, conv_direct(h, x), atol=1e-12)


def test_matvec_oracle_many_random_sizes():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lh = int(rng.integers(1, 64))
        lx = int(rng.integers(1, 64))
        h = rng.standard_normal(lh)
        x = rng.standard_normal(lx)
        got = build_conv_matrix(h, lx) @ x
        assert np.max(np.abs(got - conv_direct(h, x))) <= 1e-10


def test_rejects_empty_inputs():
    with pytest.raises(ValueError):
        build_conv_matrix([], 3)
    with pytest.raises(ValueError):
        build_conv_matrix([1.0], 0)


@pytest.mark.parametrize("K", [1, 4])
@pytest.mark.parametrize("cols", [None, 3], ids=["1d", "2d"])
def test_per_channel_matches_kron(K, cols):
    rng = np.random.default_rng(K)
    G = build_conv_matrix(rng.standard_normal(4), 5)  # 8x5
    full = np.kron(np.eye(K + 1), G)
    tail = () if cols is None else (cols,)
    X = rng.standard_normal(((K + 1) * G.shape[1], *tail))
    Y = rng.standard_normal(((K + 1) * G.shape[0], *tail))
    np.testing.assert_allclose(per_channel(G, X), full @ X, atol=1e-12)
    np.testing.assert_allclose(per_channel(G.T, Y), full.T @ Y, atol=1e-12)
    assert per_channel(G, X).shape == full.shape[:1] + tail


def test_next_fast_len_matches_scipy():
    import scipy.fft

    sizes = range(1, 20001)
    assert [next_fast_len(n) for n in sizes] == [scipy.fft.next_fast_len(n, real=True) for n in sizes]


def test_unit_pulse_basic():
    np.testing.assert_array_equal(unit_pulse(0, 4), [1.0, 0.0, 0.0, 0.0])
    v = unit_pulse(16, 280)
    assert v[16] == 1.0 and np.sum(np.abs(v)) == 1.0


def test_unit_pulse_rejects_out_of_range():
    with pytest.raises(ValueError):
        unit_pulse(4, 4)
    with pytest.raises(ValueError):
        unit_pulse(-1, 4)


def test_unit_pulse_shifts_under_convolution():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(20)
    for d in (0, 1, 5):
        shifted = np.convolve(unit_pulse(d, 8), x)
        np.testing.assert_allclose(shifted[d : d + len(x)], x, atol=1e-15)
        assert not shifted[:d].any()


def test_unit_pulse_zero_delay_is_convolution_identity():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(12)
    np.testing.assert_array_equal(np.convolve(unit_pulse(0, 1), x), x)


def test_build_q_small():
    q = build_q(1, 2)
    np.testing.assert_array_equal(q, [0.0, 0.0, 1.0, 0.0])
    assert q.shape == ((1 + 1) * 2,)


def test_build_q_full_scale_layout():
    K, L = 4, 559
    q = build_q(K, L)
    assert q.shape == (2795,)
    assert q[K * L] == 1.0
    assert np.sum(np.abs(q)) == 1.0


def test_q_selects_last_block_first_entry():
    rng = np.random.default_rng(19)
    K, L = 3, 5
    q = build_q(K, L)
    x = rng.standard_normal((K + 1) * L)
    assert q @ x == pytest.approx(x[K * L], abs=1e-15)


def test_build_q_rejects_bad_args():
    with pytest.raises(ValueError):
        build_q(0, 3)
    with pytest.raises(ValueError):
        build_q(2, 0)
