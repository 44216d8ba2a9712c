"""Dense convolution-matrix algebra and the one overlap-save layout.

Lower-banded Toeplitz builders, their per-channel application to
stacked multichannel vectors, the selection vector the filter designer
is built on, the blocked in-place Cholesky factorization and triangular
substitution the ReIR fit and the design both solve by, and the
pieces the frame sums of ``solver`` and ``reir`` are assembled from.
The matrices are plain float64 and dense on purpose: the problem sizes
stay small enough that exactness and clarity win.  Frame matrices are
the exception, because they have N rows: a frame sum (the covariance
method of linear prediction) is never formed from them but from
blockwise FFT cross-correlations (``lagged_products``), the products
of the frames at a window's edges (``edge_products``) and the Toeplitz
recursion along the diagonals (``frames_from_first_rows``), which is
exact up to rounding.  Every long FIR convolution and correlation of
the package, the render, the simulation, the sweep's error signal and
the lag correlations alike, runs on one overlap-save layout,
``Blocks``: blocks of a few thousand samples, which stay in cache and
keep the temporaries independent of the signal length.  Everything
here is numpy alone; the FFTs use the 5-smooth sizes of
``next_fast_len``.
"""

import numpy as np


def build_conv_matrix(h, input_len: int) -> np.ndarray:
    """Full-convolution matrix of the taps ``h`` for inputs of length ``input_len``.

    Returns the dense (len(h) + input_len - 1, input_len) Toeplitz array
    G with ``G[i, j] = h[i - j]`` when 0 <= i - j < len(h), else 0, so
    ``G @ x`` equals ``np.convolve(h, x)``.
    """
    h = np.asarray(h, dtype=float).ravel()
    if h.size < 1:
        raise ValueError("filter taps must be non-empty")
    if input_len < 1:
        raise ValueError(f"input_len must be >= 1, got {input_len}")
    # row i of the windows over [0]*(n-1) + h + [0]*(n-1), reversed, is h[i - j]
    padded = np.concatenate([np.zeros(input_len - 1), h, np.zeros(input_len - 1)])
    return np.lib.stride_tricks.sliding_window_view(padded, input_len)[:, ::-1].copy()


def next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: the sizes for which a real FFT is fastest."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def per_channel(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``G`` applied to each of the C channel blocks stacked along the first axis of ``X``.

    For X of shape (C * G.shape[1], ...) returns the (C * G.shape[0], ...)
    array ``np.kron(np.eye(C), G) @ X``, without forming that
    block-diagonal matrix.
    """
    C = X.shape[0] // G.shape[1]
    return (G @ X.reshape(C, G.shape[1], -1)).reshape(C * G.shape[0], *X.shape[1:])


def build_q(K: int, L: int) -> np.ndarray:
    """Selection vector picking the current primary sample out of the stacked input.

    The flat (K+1)*L vector of K zero blocks followed by an L-sample
    unit pulse at lag 0: its dot product with a stacked input vector
    returns the first entry of the last block.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    q = np.zeros((K + 1) * L)
    q[K * L] = 1.0
    return q


_TRIANGULAR_BLOCK = 128  # rows per diagonal block of ``_cholesky`` and ``_substitute``


def _cholesky(A: np.ndarray) -> np.ndarray:
    """A <- its lower Cholesky factor Lc, A = Lc Lc', in place, for a symmetric
    positive-definite A of which only the lower triangle is read; returns A.

    Left-looking blocked Cholesky (Golub & Van Loan, Matrix Computations,
    4.2) on ``_TRIANGULAR_BLOCK``-row blocks: each block column takes one
    GEMM update from the columns already done, ``np.linalg.cholesky`` of
    its diagonal block, which is the definiteness check, and one
    ``np.linalg.solve`` with that block for the panel below; the block row
    above the diagonal is zeroed.  Unlike ``np.linalg.cholesky`` of the
    whole, it makes no copy of A.  Raises ``np.linalg.LinAlgError`` if A
    is not positive definite or not finite.
    """
    n = A.shape[0]
    for i in range(0, n, _TRIANGULAR_BLOCK):
        j = min(i + _TRIANGULAR_BLOCK, n)
        A[i:, i:j] -= A[i:, :i] @ A[i:j, :i].T
        A[i:j, i:j] = np.linalg.cholesky(A[i:j, i:j])
        A[j:, i:j] = np.linalg.solve(A[i:j, i:j], A[j:, i:j].T).T
        A[i:j, j:] = 0.0
    # LAPACK passes a NaN pivot, but any non-finite entry reaches the diagonal
    if not np.all(np.isfinite(A.diagonal())):
        raise np.linalg.LinAlgError("Matrix is not finite")
    return A


def _substitute(Lc: np.ndarray, B: np.ndarray, transpose: bool = False) -> np.ndarray:
    """B <- Lc^-1 B, or Lc^-T B if ``transpose``, in place, for a lower-triangular
    Lc (``_cholesky``) and a (n, m) B; returns B.

    Blocked substitution (Golub & Van Loan, Matrix Computations, 3.1 and
    4.2): each block of ``_TRIANGULAR_BLOCK`` rows takes one GEMM update
    from the rows already solved and one ``np.linalg.solve`` with its
    diagonal block.  Column j of the result reads only column j of B.
    """
    n = Lc.shape[0]
    starts = range(0, n, _TRIANGULAR_BLOCK)
    for i in reversed(starts) if transpose else starts:
        j = min(i + _TRIANGULAR_BLOCK, n)
        if transpose:
            B[i:j] -= Lc[j:, i:j].T @ B[j:]
            B[i:j] = np.linalg.solve(Lc[i:j, i:j].T, B[i:j])
        else:
            B[i:j] -= Lc[i:j, :i] @ B[:i]
            B[i:j] = np.linalg.solve(Lc[i:j, i:j], B[i:j])
    return B


def overlap_blocks(x: np.ndarray, start: int, count: int, size: int, hop: int) -> np.ndarray:
    """The (C, count, size) blocks ``x[:, start + i*hop : start + i*hop + size]``, i < count.

    Samples outside the N columns of the (C, N) array ``x`` read as
    zero.  Blocks that lie inside ``x`` are a strided view of it;
    otherwise only the span the blocks cover is copied.
    """
    C, N = x.shape
    stop = start + (count - 1) * hop + size
    if start < 0 or stop > N:
        span = np.zeros((C, stop - start))
        lo, hi = max(start, 0), min(stop, N)
        span[:, lo - start : hi - start] = x[:, lo:hi]
    else:
        span = x[:, start:stop]
    return np.lib.stride_tricks.sliding_window_view(span, size, axis=1)[:, ::hop]


# samples per channel transformed at a time through a ``Blocks`` layout:
# bounds the temporaries of every overlap-save pass to a few MB whatever
# the signal length
_BLOCK_CHUNK = 1 << 16


class Blocks:
    """The overlap-save layout of N-sample signals through filters of ``memory`` samples.

    Signals are cut into ``count`` blocks of ``nfft`` samples, ``hop`` =
    nfft - M apart, that overlap by the memory M, the filter's length
    less one; the first block starts M samples before n = 0, which read
    as zero, so a filter meets the signal from rest.  Of each filtered
    block's inverse transform the first M samples, the circular wrap,
    are dropped.  At least 4 M per block keeps that wrap under a
    quarter, and blocks of 4096 samples stay in cache (two to three
    times faster than one transform of the whole signal); a signal
    shorter than one block is a single transform.  Blocks are taken,
    filtered and inverted ``chunks`` of ``per_chunk`` blocks, about
    ``_BLOCK_CHUNK`` samples, at a time, straight into the output.
    Nothing held grows with N.
    """

    def __init__(self, N: int, memory: int):
        self.N, self.M = N, memory
        self.nfft = next_fast_len(min(max(4096, 4 * memory), N + memory))
        self.hop = self.nfft - memory
        self.count = -(-N // self.hop)
        self.per_chunk = max(1, min(_BLOCK_CHUNK // self.nfft, self.count))

    @property
    def chunks(self) -> list[slice]:
        """The slices of block indices transformed together, in order; listed on each
        access, so ``sweep._memory_need`` can lay out signals it then refuses."""
        return [slice(b, min(b + self.per_chunk, self.count)) for b in range(0, self.count, self.per_chunk)]

    def spectra(self, x: np.ndarray, chunk: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The spectra of the chunk's blocks of the (C, N) stack x, written to out if given."""
        start, count = chunk.start * self.hop - self.M, chunk.stop - chunk.start
        return np.fft.rfft(overlap_blocks(x, start, count, self.nfft, self.hop), out=out)

    def all_spectra(self, x: np.ndarray) -> np.ndarray:
        """The spectra of all blocks of x, transformed a chunk at a time straight into one array."""
        X = np.empty((x.shape[0], self.count, self.nfft // 2 + 1), dtype=complex)
        for chunk in self.chunks:
            self.spectra(x, chunk, X[:, chunk])
        return X

    def put(self, out: np.ndarray, chunk: slice, Y: np.ndarray) -> None:
        """Write the samples of the chunk's blocks whose spectra are Y into the N-sample out,
        each block straight into its hop (a view of out): no copy of the chunk is made."""
        start, stop = chunk.start * self.hop, min(chunk.stop * self.hop, self.N)
        y = np.fft.irfft(Y, self.nfft)[:, self.M :]
        whole = (stop - start) // self.hop  # the blocks that end inside out
        out[start : start + whole * self.hop].reshape(whole, self.hop)[...] = y[:whole]
        if start + whole * self.hop < stop:
            out[start + whole * self.hop : stop] = y[whole, : stop - start - whole * self.hop]


def lagged_products(a: np.ndarray, b: np.ndarray, L: int) -> np.ndarray:
    """Full-range cross-correlations of signals that a filter meets from rest.

    For (A, N) and (B, N) channel stacks returns the (A, B, L) array
    ``p[i, k, j] = sum_{n=0}^{N-1} a_i(n) b_k(n-j)``, the samples before
    n = 0 read as zero.  The sum is cut into the blocks of
    ``Blocks(N, L - 1)``: each ``hop`` terms of ``a`` are paired with
    the nfft = hop + L - 1 samples of ``b`` they reach, and lags
    0 .. L-1 of that pair are the head of a circular correlation that
    never wraps.  The cross-spectra of all blocks are summed, for every
    channel pair, and transformed back once: the result is exact up to
    rounding, not a Welch estimate.  Blocks are transformed a chunk at
    a time, so the temporaries do not grow with N.
    """
    N = a.shape[-1]
    if not 1 <= L <= N:
        raise ValueError(f"need 1 <= L <= N, got L={L} for N={N}")
    blocks = Blocks(N, L - 1)
    cross = np.zeros((a.shape[0], b.shape[0], blocks.nfft // 2 + 1), dtype=complex)
    for chunk in blocks.chunks:
        terms = overlap_blocks(a, chunk.start * blocks.hop, chunk.stop - chunk.start, blocks.hop, blocks.hop)
        fa = np.fft.rfft(terms, blocks.nfft)
        cross += np.einsum("akf,bkf->abf", np.conj(fa, out=fa), blocks.spectra(b, chunk))
    return np.fft.irfft(cross, blocks.nfft)[:, :, L - 1 :: -1]


class _FilteredEnergy:
    """Lag products of one (C, N) stack through C-channel FIR responses, from its
    lag correlations taken once.

    Responses h_ac of at most T taps give the signals y_a(n) =
    sum_c (h_ac * x_c)(n) for n = 0 .. N-1, from rest, as a simulation
    does.  Over all n, their products c_ab(j) = sum_n y_a(n) y_b(n-j)
    are quadratic in the responses over the stack's full-range lag
    correlations r_cd(k) = sum_n x_c(n) x_d(n-k), |k| < P
    (``lagged_products``; lags past N read as zero), which are taken
    once, here; the products past N that the cut drops read only the
    stack's last P - 1 samples.  Both are evaluated on an nfft >= 2P - 1
    point grid from the responses' spectra, so a caller that forms its
    responses as spectra on that grid passes them as they are.  Nothing
    held or computed per response grows with N.
    """

    def __init__(self, x: np.ndarray, P: int):
        C, N = x.shape
        self.P, self.N = P, N
        self.nfft = next_fast_len(2 * P - 1)
        r = np.zeros((C, C, P))
        r[:, :, : min(P, N)] = lagged_products(x, x, min(P, N))
        R = np.fft.rfft(r, self.nfft)
        # the spectrum of r_cd over lags -P < k < P: negative lags are r_dc(-k)
        self._spectrum = R + R.transpose(1, 0, 2).conj() - r[:, :, :1]
        # the first P - 1 samples and the last, led by zeros where the stack is shorter
        last = min(P - 1, N)
        ends = np.zeros((2, C, P - 1))
        ends[0, :, :last] = x[:, :last]
        ends[1, :, P - 1 - last :] = x[:, N - last :]
        self._ends = np.fft.rfft(ends, self.nfft)

    def __call__(self, H: np.ndarray) -> np.ndarray:
        """Energy of the first N samples of sum_c taps_c * x_c for (..., C, nfft // 2 + 1)
        spectra H, the ``nfft``-point rfft of taps of at most P samples, one per
        filter of the leading axes: its products at lag 0."""
        c = self.products(H.reshape(-1, *H.shape[-2:]), 1)[0]
        return np.diagonal(c[..., 0]).reshape(H.shape[:-2])

    def products(self, H: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The inputs of ``solver._filtered_correlations`` for the signals
        y_a(n) = sum_c (h_ac * x_c)(n), n < N, from rest, of the (A, C, nfft // 2 + 1)
        spectra H of responses of at most P - L + 1 taps, for N >= L: their lag
        products c_ab(j) = sum_{n<N} y_a(n) y_b(n-j), j < L, their first and last
        L - 1 samples, and N.

        Over all n, c_ab is the inverse transform of H_a r H_b', which does not
        wrap on this grid for j < L; the products past N that the cut drops,
        and the samples at both ends, are those of the first and last P - 1
        samples of the stack through the responses.
        """
        full = np.fft.irfft(np.einsum("asf,stf,btf->abf", H, self._spectrum, H.conj()), self.nfft)[..., :L]
        head, tail = np.fft.irfft(np.einsum("acf,ecf->eaf", H, self._ends), self.nfft)
        tail = tail[:, self.P - L : 2 * self.P - L - 1]  # y(n) for N - L < n < N + P - L
        return full - edge_products(tail, tail, L - 1, L), head[:, : L - 1], tail[:, : L - 1], self.N


def frames_from_first_rows(first: np.ndarray, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """The frame products ``R[a, i, b, j] = sum_{n=n0}^{n1} c_a(n-i) c_b(n-j)`` of
    L-sample frames from their first rows ``first[a, b, j] = R[a, 0, b, j]``.

    ``head`` holds the L - 1 samples c(n0-1), ..., c(n0-L+1) before the
    first frame and ``tail`` the L - 1 samples c(n1), ..., c(n1-L+2)
    ending the last, both newest first, one row per channel.  The rest
    of R follows along the diagonals from

        R[a, i+1, b, j+1] = R[a, i, b, j] + c_a(n0-1-i) c_b(n0-1-j)
                                         - c_a(n1-i) c_b(n1-j)

    which adds the frame entering at the head and drops the one leaving
    at the tail.  Mirrored entries are computed by the same operations
    on the same operands, so the matrix is exactly symmetric; ``first``
    is made symmetric at lag 0 in place.
    """
    C, _, L = first.shape
    # R[a, 0, b, 0] is read from both first[a, b, 0] and first[b, a, 0]; use one value
    first[:, :, 0] = (first[:, :, 0] + first[:, :, 0].T) / 2.0
    R = np.empty((C, L, C, L))
    R[:, 0] = first
    R[:, :, :, 0] = first.transpose(1, 2, 0)  # R[a, i, b, 0] = R[b, 0, a, i]
    for i in range(1, L):
        R[:, i, :, 1:] = (
            R[:, i - 1, :, :-1]
            + np.multiply.outer(head[:, i - 1], head)
            - np.multiply.outer(tail[:, i - 1], tail)
        )
    return R


def edge_products(a: np.ndarray, b: np.ndarray, first: int, L: int) -> np.ndarray:
    """The (A, B, L) sums of a_i(n) b_k(n-j) over n = first .. len-1, j < L, b zero before n = 0.

    The products of the few frames at a window's edges, which the
    full-range correlations of ``lagged_products`` count and a frame sum
    over the window does not.
    """
    # frames[k, n, j] = b_k(n - j); the zero past the end keeps an empty b windowable
    frames = np.lib.stride_tricks.sliding_window_view(np.pad(b, ((0, 0), (L - 1, 1))), L, axis=1)
    return np.einsum("in,knj->ikj", a[:, first:], frames[:, first : b.shape[1], ::-1])
