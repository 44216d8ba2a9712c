"""Relative impulse responses of the desired source, and the spectral-weighting prototype.

A relative impulse response (ReIR) maps the desired-source component at
the spatial reference microphone to its component at another
microphone.  ReIRs are estimated here as the least-squares fixed point
of the usual adaptive identification problem: a white-noise
desired-only rendering is regressed channel by channel onto the
reference channel's tap history.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.signal

from ssanc import wavio
from ssanc.convmat import frame_products, lagged_products
from ssanc.scene import MicSignals


@dataclass(frozen=True, eq=False)
class ReIRSet:
    """Causal ReIRs of the desired source, one row per microphone (error mic last).

    Row spatial_ref is the identity by construction (a microphone's
    ReIR to itself is a unit pulse).  residuals holds the per-channel
    relative RMS fit error of the estimation, when available.
    """

    h: np.ndarray
    spatial_ref: int
    residuals: np.ndarray | None = None

    @property
    def Lh(self) -> int:
        return self.h.shape[1]

    @property
    def channels(self) -> int:
        return self.h.shape[0]


def estimate_reirs(mics: MicSignals, spatial_ref: int, Lh: int, reg: float | None = None) -> ReIRSet:
    """Least-squares ReIR estimates from a desired-only white-noise rendering.

    Solves, per channel k, the ridge problem

        min_h  sum_n (x_k(n) - (h * x_ref)(n))^2 + reg * ||h||^2

    over the fully-excited frames n >= Lh-1.  ``reg`` defaults to
    1e-8 times the mean diagonal of the normal matrix, which is enough
    to keep the solve stable under white-noise excitation without
    visibly biasing the taps.
    """
    if not 0 <= spatial_ref < mics.K:
        raise ValueError(f"spatial_ref {spatial_ref} outside reference range [0, {mics.K})")
    if Lh < 1:
        raise ValueError(f"Lh must be >= 1, got {Lh}")
    if mics.N < 4 * Lh:
        raise ValueError(f"need N >> Lh; got N={mics.N} for Lh={Lh}")
    if np.any(mics.x_v) or np.any(mics.p_v):
        raise ValueError("ReIR estimation requires a desired-only rendering (zero noise components)")

    ref = mics.x_s[spatial_ref]
    targets = np.vstack([mics.x_s, mics.p_s[None, :]])

    # normal equations of the regressor rows [ref(n), ..., ref(n-Lh+1)],
    # n = Lh-1 .. N-1, from the Toeplitz structure instead of the N x Lh rows
    R = frame_products(ref[None, :], Lh)[0, :, 0, :]
    if reg is None:
        reg = 1e-8 * float(np.mean(np.diag(R)))
    rhs = lagged_products(targets, ref[None, :], Lh)[:, 0, :].T
    try:
        cho = scipy.linalg.cho_factor(R + reg * np.eye(Lh))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular ReIR normal equations (reg={reg:g}); try increasing reg"
        ) from exc
    h = scipy.linalg.cho_solve(cho, rhs).T

    targets = targets[:, Lh - 1 :]
    fit = np.vstack([np.convolve(ref, h_k, mode="valid") for h_k in h])
    denom = np.sqrt(np.mean(targets**2, axis=1))
    residuals = np.sqrt(np.mean((targets - fit) ** 2, axis=1)) / np.maximum(denom, 1e-300)
    return ReIRSet(h=h, spatial_ref=spatial_ref, residuals=residuals)


def design_min_phase_highpass(cutoff_hz: float, fs: float, length: int) -> np.ndarray:
    """Minimum-phase FIR high-pass with ``length`` taps.

    A linear-phase windowed-sinc prototype is converted to minimum
    phase homomorphically, then rescaled to the prototype's total
    energy, so the magnitude response tracks the prototype while the
    energy is concentrated at the front of the filter.  Note the
    prototype itself needs enough taps relative to fs/cutoff_hz to form
    a deep stopband; very short filters give a correspondingly shallow
    high-pass.
    """
    if not 0.0 < cutoff_hz < fs / 2.0:
        raise ValueError(f"cutoff {cutoff_hz} Hz outside (0, fs/2) for fs={fs}")
    if length < 8:
        raise ValueError(f"length must be >= 8, got {length}")

    m = length if length % 2 == 1 else length - 1
    proto = scipy.signal.firwin(m, cutoff_hz, pass_zero=False, fs=fs)
    psi = scipy.signal.minimum_phase(proto, method="homomorphic", half=False)
    psi = psi * np.sqrt(np.sum(proto**2) / np.sum(psi**2))
    out = np.zeros(length)
    out[: psi.shape[0]] = psi
    return out


def save_reirs_json(reirs: ReIRSet, path) -> None:
    payload = {
        "spatial_ref": int(reirs.spatial_ref),
        "Lh": int(reirs.Lh),
        "h": [list(map(float, row)) for row in reirs.h],
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_reirs_json(path) -> ReIRSet:
    payload = json.loads(Path(path).read_text())
    return ReIRSet(h=np.asarray(payload["h"], dtype=float), spatial_ref=int(payload["spatial_ref"]))


def save_reirs_wav(reirs: ReIRSet, path, fs: int) -> None:
    """Export as a multichannel float64 WAV, one channel per microphone."""
    wavio.write_wav(path, fs, reirs.h.T)


def load_reirs_wav(path, spatial_ref: int) -> ReIRSet:
    _, data = wavio.read_wav(path)
    if data.ndim == 1:
        data = data[:, None]
    return ReIRSet(h=data.T.copy(), spatial_ref=spatial_ref)
