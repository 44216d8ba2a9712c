"""Dense convolution-matrix algebra.

Lower-banded Toeplitz builders, block-diagonal stacking for multichannel
filters, the unit-pulse / selection vectors the filter designer is
built on, and the structural frame products behind the autocorrelation
and ReIR estimates.  The matrices are plain float64 and dense on
purpose: the problem sizes stay small enough that exactness and clarity
win.  The frame products are the exception, because their frame
matrices have N rows: they are formed from FFT cross-correlations and
the Toeplitz structure of the frames instead (the covariance method of
linear prediction), which is exact up to rounding.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg


@dataclass(frozen=True, eq=False)
class ConvMatrix:
    """Dense Toeplitz matrix realizing full linear convolution.

    ``data @ x`` equals ``conv(coeffs, x)`` for any ``x`` of length
    ``cols``.  Entry (i, j) is ``coeffs[i - j]`` when 0 <= i - j <
    len(coeffs), else 0, so ``rows = len(coeffs) + cols - 1``.
    """

    coeffs: np.ndarray
    rows: int
    cols: int
    data: np.ndarray

    def __matmul__(self, x):
        return self.data @ x


@dataclass(frozen=True, eq=False)
class StackedVector:
    """A vector made of equal-length per-channel blocks, stored (n_blocks, block_len)."""

    blocks: np.ndarray

    @property
    def block_len(self) -> int:
        return self.blocks.shape[1]

    @property
    def flat(self) -> np.ndarray:
        return self.blocks.ravel()


def build_conv_matrix(h, input_len: int) -> ConvMatrix:
    """Full-convolution matrix of the taps ``h`` for inputs of length ``input_len``."""
    h = np.asarray(h, dtype=float).ravel()
    if h.size < 1:
        raise ValueError("filter taps must be non-empty")
    if input_len < 1:
        raise ValueError(f"input_len must be >= 1, got {input_len}")
    col = np.concatenate([h, np.zeros(input_len - 1)])
    row = np.concatenate([h[:1], np.zeros(input_len - 1)])
    data = scipy.linalg.toeplitz(col, row)
    return ConvMatrix(coeffs=h.copy(), rows=data.shape[0], cols=input_len, data=data)


def block_diag_secondary(G: ConvMatrix, K: int) -> np.ndarray:
    """K+1 copies of ``G`` on the diagonal: one block per filter channel."""
    if K < 1:
        raise ValueError(f"K must be >= 1 (at least one reference microphone), got {K}")
    return scipy.linalg.block_diag(*([G.data] * (K + 1)))


def unit_pulse(delta: int, length: int) -> np.ndarray:
    """Vector of ``length`` zeros with a single 1 at index ``delta``."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if not 0 <= delta < length:
        raise ValueError(f"pulse delay {delta} outside [0, {length})")
    v = np.zeros(length)
    v[delta] = 1.0
    return v


def build_q(K: int, L: int) -> StackedVector:
    """Selection vector picking the current primary sample out of the stacked input.

    K zero blocks followed by ``unit_pulse(0, L)``: the dot product with
    a stacked input vector returns the first entry of its last block.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    blocks = np.zeros((K + 1, L))
    blocks[K, 0] = 1.0
    return StackedVector(blocks=blocks)


def lagged_products(a: np.ndarray, b: np.ndarray, L: int) -> np.ndarray:
    """Windowed cross-correlations over the fully excited frames.

    For (A, N) and (B, N) channel stacks returns the (A, B, L) array
    ``p[i, k, j] = sum_{n=L-1}^{N-1} a_i(n) b_k(n-j)``.  Both signals are
    fully inside their support for every term, so the sums are the
    'valid' part of a circular FFT correlation of length >= N.
    """
    N = a.shape[-1]
    nfft = scipy.fft.next_fast_len(N, real=True)
    fb = scipy.fft.rfft(b, nfft)
    fa = scipy.fft.rfft(a[:, L - 1 :], nfft).conj()
    return np.stack([scipy.fft.irfft(fb * f, nfft)[:, L - 1 :: -1] for f in fa])


def frame_products(channels: np.ndarray, L: int) -> np.ndarray:
    """``sum_n x(n) x(n)'`` over the fully excited frames n = L-1 .. N-1.

    x(n) stacks, channel by channel, the history [c(n), ..., c(n-L+1)]
    of the (C, N) array ``channels``; the result is indexed
    ``R[a, i, b, j] = sum_n c_a(n-i) c_b(n-j)`` (reshape to (C*L, C*L)
    for the matrix).  The first row and column of every block come from
    ``lagged_products``; the rest follows along the diagonals from

        R[a, i+1, b, j+1] = R[a, i, b, j] + c_a(L-2-i) c_b(L-2-j)
                                         - c_a(N-1-i) c_b(N-1-j)

    which adds the frame entering at the head and drops the one leaving
    at the tail.  Costs O(C^2 (N log N + L^2)) instead of O(N (C L)^2).
    Mirrored entries are computed by the same operations on the same
    operands, so the matrix is exactly symmetric.
    """
    C, N = channels.shape
    first = lagged_products(channels, channels, L)
    # R[a, 0, b, 0] is read from both p[a, b, 0] and p[b, a, 0]; use one value
    first[:, :, 0] = (first[:, :, 0] + first[:, :, 0].T) / 2.0
    R = np.empty((C, L, C, L))
    R[:, 0] = first
    R[:, :, :, 0] = first.transpose(1, 2, 0)  # R[a, i, b, 0] = R[b, 0, a, i]
    head = channels[:, : L - 1][:, ::-1]  # c(L-2-m), m = 0 .. L-2
    tail = channels[:, N - L + 1 :][:, ::-1]  # c(N-1-m)
    for i in range(1, L):
        R[:, i, :, 1:] = (
            R[:, i - 1, :, :-1]
            + np.multiply.outer(head[:, i - 1], head)
            - np.multiply.outer(tail[:, i - 1], tail)
        )
    return R
