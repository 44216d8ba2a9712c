import numpy as np
import pytest

from ssanc.convmat import (
    Blocks, build_conv_matrix, build_q, lagged_products, next_fast_len, overlap_blocks, per_channel,
)
from ssanc.solver import _filtered_correlations, _stack_products


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


def lagged_direct(a, b, L):
    """p[i, k, j] = sum_{n=L-1}^{N-1} a_i(n) b_k(n-j), one dot product per lag: the oracle."""
    N = a.shape[1]
    return np.stack([a[:, L - 1 :] @ b[:, L - 1 - j : N - j].T for j in range(L)], axis=-1)


LAGGED_CASES = {
    # (L, N, blocks of Blocks(N, L - 1)): L = 4 gives 4096-point blocks of
    # hop 4093; the names count the N - L + 1 terms of the frame sum over
    # n = L-1 .. N-1, the blocks the N terms from rest, 16 per chunk
    "one-term-short-of-hop": (4, 4093 + 2, 2),
    "terms-equal-hop": (4, 4093 + 3, 2),
    "one-term-over-hop": (4, 4093 + 4, 2),
    "N-is-hop": (4, 4093, 1),
    "N-is-2-hops": (4, 2 * 4093, 2),
    "N-is-hop-minus-1": (4, 4093 - 1, 1),
    "N-is-hop-plus-1": (4, 4093 + 1, 2),
    "several-blocks": (17, 5 * 4080 + 123, 6),
    "second-chunk": (9, 17 * 4088 + 5, 18),
    "L-1": (1, 3 * 4096 + 7, 4),
    "L-is-N": (40, 40, 1),
    "L-is-N-minus-1": (40, 41, 1),
    "L-near-short-block": (300, 330, 1),
    "L-near-long-block": (1500, 3 * 4501, 3),  # 6000-point blocks, hop 4501
}


@pytest.mark.parametrize("L, N, blocks", LAGGED_CASES.values(), ids=LAGGED_CASES.keys())
def test_lagged_products_matches_direct_sum(L, N, blocks):
    """The first rows of the frame sums over the fully excited frames
    n = L-1 .. N-1, ``_filtered_correlations``'s S at g = [1] times the
    N - L + 1 frames, are the full-range correlations less the head."""
    assert Blocks(N, L - 1).count == blocks  # the case reaches the layout it names
    x = np.random.default_rng(L * 7919 + N).standard_normal((2, N))
    want = lagged_direct(x, x, L)
    got = _filtered_correlations(*_stack_products(x, L), np.ones(1), L)[0].reshape(2, L, 2, L)[:, 0] * (N - L + 1)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("L, N", [case[:2] for case in LAGGED_CASES.values()], ids=LAGGED_CASES.keys())
def test_lagged_products_with_history_sums_from_rest(L, N):
    """The sum runs over every n, reading samples before n = 0 as zero:
    the plain sum over stacks prefixed by L - 1 zeros."""
    rng = np.random.default_rng(L * 7919 + N + 1)
    a = rng.standard_normal((2, N))
    b = rng.standard_normal((3, N))
    rest = np.zeros((3, L - 1))
    for x, y in ((a, b), (b, a), (a, a)):
        want = lagged_direct(np.hstack([rest[: len(x)], x]), np.hstack([rest[: len(y)], y]), L)
        got = lagged_products(x, y, L)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_lagged_products_rejects_bad_L():
    x = np.ones((1, 8))
    for L in (0, 9):
        with pytest.raises(ValueError, match="L"):
            lagged_products(x, x, L)


def test_lagged_products_memory_does_not_grow_with_N(traced_peak):
    """One (3, 960000) call, as for the input autocorrelation of a 60 s
    recording, peaks under twice its input's bytes; one full-length
    transform per channel pair would take several times that."""
    x = np.random.default_rng(0).standard_normal((3, 960000))
    _, peak = traced_peak(lambda: lagged_products(x, x, 95))
    assert peak < 2 * x.nbytes


BLOCK_CASES = {
    # (M, N, blocks): M = 3 gives 4096-point blocks of hop 4093, 16 per chunk
    "M-is-0": (0, 3 * 4096 + 5, 4),
    "N-shorter-than-a-block": (10, 100, 1),
    "N-is-hop-minus-1": (3, 4093 - 1, 1),
    "N-is-hop": (3, 4093, 1),
    "N-is-hop-plus-1": (3, 4093 + 1, 2),
    "second-chunk": (8, 17 * 4088 + 5, 18),
}


@pytest.mark.parametrize("M, N, count", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
def test_blocks_convolve_like_np_convolve(M, N, count):
    """Each chunk's ``put`` of the block spectra times an (M+1)-tap filter's
    writes its samples of the convolution from rest, cut at N."""
    rng = np.random.default_rng(M * 7919 + N)
    h = rng.standard_normal(M + 1)
    x = rng.standard_normal((2, N))
    blocks = Blocks(N, M)
    assert blocks.count == count  # the case reaches the layout it names
    H = np.fft.rfft(h, blocks.nfft)
    got = np.empty((2, N))
    for chunk in blocks.chunks:
        X = blocks.spectra(x, chunk)
        for c in range(2):
            blocks.put(got[c], chunk, X[c] * H)
    for c in range(2):
        want = np.convolve(h, x[c])[:N]
        assert np.max(np.abs(got[c] - want)) <= 1e-12 * np.max(np.abs(want))


def test_blocks_layout_allocates_nothing_per_sample():
    """The layout of 10^13 samples is built at once: chunks are listed only when asked for."""
    blocks = Blocks(10**13, 100)
    assert blocks.nfft == 4096 and blocks.hop == 3996
    assert (blocks.count - 1) * blocks.hop < 10**13 <= blocks.count * blocks.hop


def test_overlap_blocks_zero_pads_outside_the_signal():
    x = np.arange(1.0, 11.0)[None, :]  # 1 .. 10
    inside = overlap_blocks(x, 2, 3, 4, 2)
    np.testing.assert_array_equal(inside[0], [[3, 4, 5, 6], [5, 6, 7, 8], [7, 8, 9, 10]])
    assert np.shares_memory(inside, x)
    edges = overlap_blocks(x, -2, 4, 5, 3)
    np.testing.assert_array_equal(
        edges[0], [[0, 0, 1, 2, 3], [2, 3, 4, 5, 6], [5, 6, 7, 8, 9], [8, 9, 10, 0, 0]]
    )
