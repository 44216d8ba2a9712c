"""Relative impulse responses of the desired source, and the spectral-weighting prototype.

A relative impulse response (ReIR) maps the desired-source component at
the spatial reference microphone to its component at another
microphone.  ReIRs are estimated here as the least-squares fixed point
of the usual adaptive identification problem: the desired source's
response to white noise is regressed channel by channel onto the
reference channel's tap history.  That response is never rendered: the
regression reads it only through second-order statistics, which follow
from the noise's autocorrelation and the scene's speech responses.
"""

import math
from dataclasses import dataclass

import numpy as np

from ssanc.convmat import _cholesky, _substitute, edge_products, frames_from_first_rows, lagged_products
from ssanc.scene import Scene

# window floats the ReIR fit's first rows read per product (8 MB)
_WINDOW_FLOATS = 1 << 20


@dataclass(frozen=True, eq=False)
class ReIRSet:
    """Causal ReIRs of the desired source, one row per microphone (error mic last).

    Row spatial_ref is fitted like the others and lands about 1e-8 off
    a unit pulse (the ridge bias); the design uses the exact pulse for
    it (``solver._constraint_vector``).  residuals holds the per-channel
    relative RMS fit error of the estimation, when available.
    """

    h: np.ndarray
    spatial_ref: int
    residuals: np.ndarray | None = None

    @property
    def Lh(self) -> int:
        return self.h.shape[1]


def estimate_reirs(scene: Scene, source, Lh: int, reg: float | None = None) -> ReIRSet:
    """Least-squares ReIR estimates from the scene's speech responses to a white ``source``.

    With s_k the rendering of the N-sample source through the speech
    response a_k, cut to N samples (``render_mics``), and s_ref that of
    the spatial reference ``scene.spatial_ref``, solves per channel k
    the ridge problem

        min_h  sum_n (s_k(n) - (h * s_ref)(n))^2 + reg * ||h||^2

    over the fully-excited frames n = Lh-1 .. N-1.  ``reg`` defaults to
    1e-8 times the mean diagonal of the normal matrix, which is enough
    to keep the solve stable under white-noise excitation without
    visibly biasing the taps.

    No s_k is formed.  With c the source's autocorrelation over all n
    (``lagged_products``; lags past N are zero) and kappa_k the
    cross-correlation of a_k and a_ref, s_k(n) s_ref(n-j) sums over
    every n, the samples cut at N included, to sum_m kappa_k(m) c(j-m).
    The products before n = Lh-1 and from n = N on are subtracted; they
    come from the first Lh and the last Lir + Lh - 1 source samples, Lir
    the longest response.  That gives the right-hand sides and the first
    row of the normal matrix, whose rest follows along its diagonals
    (``frames_from_first_rows``).  The relative residual of channel k is
    the frame energy of the residual filter d_k = a_k - h_k * a_ref on
    the source over that of a_k, each taken the same way, and not
    ||s_k||^2 - 2 h'b + h'Rh, which cancels catastrophically at the
    1e-8 residuals of a pulse.
    """
    if Lh < 1:
        raise ValueError(f"Lh must be >= 1, got {Lh}")
    w = np.asarray(source, dtype=float).ravel()
    N = w.shape[0]
    if N < 4 * Lh:
        raise ValueError(f"need N >> Lh; got N={N} for Lh={Lh}")

    Lir = max(a.shape[0] for a in scene.ir_speech)
    P = Lir + Lh - 1  # the lags of c the products reach
    irs = np.zeros((scene.K + 1, Lir))
    for row, a in zip(irs, scene.ir_speech):
        row[: a.shape[0]] = a
    a_ref = irs[scene.spatial_ref]
    c = np.zeros(P)
    c[: min(P, N)] = lagged_products(w[None], w[None], min(P, N))[0, 0]
    tail_source = np.concatenate([np.zeros(max(P - N, 0)), w[max(N - P, 0) :]])

    def edges(filters):
        """The filters' responses to the source at n < Lh - 1 and at n >= N - Lh + 1, to their end."""
        head = np.array([np.convolve(f, w[:Lh])[: Lh - 1] for f in filters])
        tail = np.array([np.convolve(f, tail_source)[Lir:] for f in filters])
        return head, tail

    def frame_energies(filters):
        """sum_n (f * source)(n)^2 over the frames n = Lh-1 .. N-1, per row f of filters."""
        width = filters.shape[1]
        rho = np.array([np.correlate(f, f, "full")[width - 1 :] for f in filters])
        full = 2.0 * (rho @ c[:width]) - rho[:, 0] * c[0]
        head, tail = edges(filters)
        # the tail's samples from n = N on; rounding alone can take the difference below 0
        return np.maximum(full - np.sum(head**2, axis=1) - np.sum(tail[:, Lh - 1 :] ** 2, axis=1), 0.0)

    # sum_m kappa_k(m) c(j-m), j < Lh, from windows over c at lags -(P-1) .. P-1;
    # the product copies the windows it reads, so it reads at most
    # _WINDOW_FLOATS of them at a time: Lh (2 Lir - 1) floats would be
    # 36 MB for 8000-tap responses
    kappa = np.array([np.correlate(a, a_ref, "full") for a in irs])
    lags = np.concatenate([c[:0:-1], c])
    windows = np.lib.stride_tricks.sliding_window_view(lags, 2 * Lir - 1)[Lh - 1 : 2 * Lh - 1]
    step = max(1, _WINDOW_FLOATS // windows.shape[1])
    head, tail = edges(irs)  # s_k(n) for n < Lh-1 and for n >= N-Lh+1
    first = (
        np.concatenate([kappa[:, ::-1] @ windows[j : j + step].T for j in range(0, Lh, step)], axis=1)
        - edge_products(head, head[scene.spatial_ref, None], 0, Lh)[:, 0]
        - edge_products(tail, tail[scene.spatial_ref, None], Lh - 1, Lh)[:, 0]
    )

    # normal equations of the regressor rows [s_ref(n), ..., s_ref(n-Lh+1)] over the frames
    ref_head, ref_tail = head[scene.spatial_ref, None, ::-1], tail[scene.spatial_ref, None, : Lh - 1][:, ::-1]
    R = frames_from_first_rows(first[None, None, scene.spatial_ref].copy(), ref_head, ref_tail)[0, :, 0]
    if reg is None:
        reg = 1e-8 * float(np.mean(np.diag(R)))
    R += reg * np.eye(Lh)
    try:
        Lr = _cholesky(R)  # R = Lr Lr' in R's place, the definiteness check and the solver
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular ReIR normal equations (reg={reg:g}); try increasing reg"
        ) from exc
    h = _substitute(Lr, _substitute(Lr, np.ascontiguousarray(first.T)), transpose=True).T

    residual = np.pad(irs, ((0, 0), (0, Lh - 1))) - np.array([np.convolve(h_k, a_ref) for h_k in h])
    residuals = np.sqrt(frame_energies(residual)) / np.maximum(np.sqrt(frame_energies(irs)), 1e-300)
    return ReIRSet(h=h, spatial_ref=scene.spatial_ref, residuals=residuals)


def design_min_phase_highpass(cutoff_hz: float, fs: float, length: int) -> np.ndarray:
    """Minimum-phase FIR high-pass with ``length`` taps.

    A linear-phase windowed-sinc prototype is converted to minimum
    phase homomorphically, then rescaled to the prototype's total
    energy, so the magnitude response tracks the prototype while the
    energy is concentrated at the front of the filter.  Note the
    prototype itself needs enough taps relative to fs/cutoff_hz to form
    a deep stopband; very short filters give a correspondingly shallow
    high-pass.  The taps equal those of scipy's ``firwin`` followed by
    its homomorphic ``minimum_phase(..., half=False)``, to rounding.
    """
    if not 0.0 < cutoff_hz < fs / 2.0:
        raise ValueError(f"cutoff {cutoff_hz} Hz outside (0, fs/2) for fs={fs}")
    if length < 8:
        raise ValueError(f"length must be >= 8, got {length}")

    # Hamming-windowed sinc high-pass on centred taps, unit gain at Nyquist
    m = length if length % 2 == 1 else length - 1
    n = np.arange(m) - (m - 1) / 2.0
    c = cutoff_hz / (fs / 2.0)
    proto = (np.sinc(n) - c * np.sinc(c * n)) * np.hamming(m)
    proto /= np.sum(proto * np.cos(np.pi * n))

    # homomorphic minimum phase: fold the real cepstrum of log|H| onto n >= 0,
    # on scipy's FFT size: the power of two giving a spectral deviation
    # 2 (m - 1) / nfft of at most 0.01
    nfft = 2 ** math.ceil(math.log2(2 * (m - 1) / 0.01))
    mag = np.abs(np.fft.rfft(proto, nfft))
    cep = np.fft.irfft(np.log(mag + 1e-7 * np.min(mag[mag > 0])), nfft)
    cep[1 : nfft // 2] *= 2.0
    cep[nfft // 2 :] = 0.0
    psi = np.fft.irfft(np.exp(np.fft.rfft(cep)), nfft)[:m]

    psi = psi * np.sqrt(np.sum(proto**2) / np.sum(psi**2))
    out = np.zeros(length)
    out[:m] = psi
    return out
