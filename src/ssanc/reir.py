"""Relative impulse responses of the desired source, and the spectral-weighting prototype.

A relative impulse response (ReIR) maps the desired-source component at
the spatial reference microphone to its component at another
microphone.  ReIRs are estimated here as the least-squares fixed point
of the usual adaptive identification problem: a white-noise
desired-only rendering is regressed channel by channel onto the
reference channel's tap history.
"""

import math
from dataclasses import dataclass

import numpy as np

from ssanc.convmat import frame_products, lagged_products
from ssanc.scene import MicSignals


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


def estimate_reirs(mics: MicSignals, spatial_ref: int, Lh: int, reg: float | None = None) -> ReIRSet:
    """Least-squares ReIR estimates from a desired-only white-noise rendering.

    Solves, per channel k of the speech stack ``mics.s``, the ridge problem

        min_h  sum_n (s_k(n) - (h * s_ref)(n))^2 + reg * ||h||^2

    over the fully-excited frames n >= Lh-1, with s_ref the row
    ``spatial_ref``.  ``reg`` defaults to 1e-8 times the mean diagonal
    of the normal matrix, which is enough to keep the solve stable
    under white-noise excitation without visibly biasing the taps.  The
    relative residual of each channel comes from one N-sample
    difference at a time.
    """
    if not 0 <= spatial_ref < mics.K:
        raise ValueError(f"spatial_ref {spatial_ref} outside reference range [0, {mics.K})")
    if Lh < 1:
        raise ValueError(f"Lh must be >= 1, got {Lh}")
    if mics.N < 4 * Lh:
        raise ValueError(f"need N >> Lh; got N={mics.N} for Lh={Lh}")
    if np.any(mics.v):
        raise ValueError("ReIR estimation requires a desired-only rendering (zero noise components)")

    ref = mics.s[spatial_ref]

    # normal equations of the regressor rows [ref(n), ..., ref(n-Lh+1)],
    # n = Lh-1 .. N-1, from the Toeplitz structure instead of the N x Lh rows
    R = frame_products(ref[None, :], Lh)[0, :, 0, :]
    if reg is None:
        reg = 1e-8 * float(np.mean(np.diag(R)))
    rhs = lagged_products(mics.s, ref[None, :], Lh)[:, 0, :].T
    R += reg * np.eye(Lh)
    try:
        np.linalg.cholesky(R)  # the definiteness check only
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular ReIR normal equations (reg={reg:g}); try increasing reg"
        ) from exc
    h = np.linalg.solve(R, rhs).T

    residuals = np.empty(mics.K + 1)
    for k, (target, h_k) in enumerate(zip(mics.s[:, Lh - 1 :], h)):
        err = target - np.convolve(ref, h_k, mode="valid")
        residuals[k] = np.sqrt(np.mean(err**2)) / max(np.sqrt(np.mean(target**2)), 1e-300)
    return ReIRSet(h=h, spatial_ref=spatial_ref, residuals=residuals)


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
