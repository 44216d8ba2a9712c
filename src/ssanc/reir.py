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

from ssanc.convmat import _cholesky, _FilteredEnergy, _substitute, edge_products, frames_from_first_rows
from ssanc.scene import Scene


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

    No s_k is formed.  Their lag products over the N samples and their
    first and last Lh - 1 samples follow from the source's
    autocorrelation through the responses, in one ``lagged_products``
    pass (``convmat._FilteredEnergy``, over lags that responses of
    Lir + Lh - 1 taps reach, Lir the longest).  Less the products before
    n = Lh-1 they give the right-hand sides and the first row of the
    normal matrix, whose rest follows along its diagonals
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

    irs, ref = scene.h[0], scene.spatial_ref  # the speech responses, Lir taps each
    energy = _FilteredEnergy(w[None], irs.shape[1] + 2 * Lh - 2)

    def frame_products(filters):
        """The products over the frames n = Lh-1 .. N-1 of the filters' responses to
        the source, f_a(n) f_b(n-j) for j < Lh, and their first and last Lh - 1 samples."""
        c, head, tail, _ = energy.products(np.fft.rfft(filters, energy.nfft)[:, None], Lh)
        return c - edge_products(head, head, 0, Lh), head, tail

    # the normal equations of the regressor rows [s_ref(n), ..., s_ref(n-Lh+1)] over the frames
    c, head, tail = frame_products(irs)
    R = frames_from_first_rows(c[None, None, ref, ref].copy(), head[ref, None, ::-1], tail[ref, None, ::-1])[0, :, 0]
    if reg is None:
        reg = 1e-8 * float(np.mean(np.diag(R)))
    R += reg * np.eye(Lh)
    try:
        Lr = _cholesky(R)  # R = Lr Lr' in R's place, the definiteness check and the solver
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular ReIR normal equations (reg={reg:g}); try increasing reg"
        ) from exc
    h = _substitute(Lr, _substitute(Lr, np.ascontiguousarray(c[:, ref].T)), transpose=True).T

    residual = np.pad(irs, ((0, 0), (0, Lh - 1))) - np.array([np.convolve(h_k, irs[ref]) for h_k in h])
    # the frame energies of d_k and of a_k; rounding alone can take one below 0
    energies = [np.maximum(np.diagonal(products[..., 0]), 0.0) for products in (frame_products(residual)[0], c)]
    residuals = np.sqrt(energies[0]) / np.maximum(np.sqrt(energies[1]), 1e-300)
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
