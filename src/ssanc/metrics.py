"""Evaluation metrics: noise reduction, speech distortion, control effort, quality proxy.

The quality proxy is a frame-wise log-spectral distance, standing in
for standardized perceptual scores (which need the ITU reference
implementation and are out of scope here).  Its values are NOT
comparable to MOS scales; lower is better, 0 dB means identical
spectra.
"""

from dataclasses import dataclass, field

import numpy as np

from ssanc.scene import MicSignals
from ssanc.simulate import RunResult

SDI_FLOOR_DB = -120.0
# default quality_proxy frame: the shortest signal a run can be scored on
QUALITY_FRAME = 512
# voiced frames transformed per batch by quality_proxy: bounds its
# temporaries to a few MB whatever the signal length
_QUALITY_BLOCK = 256


@dataclass(frozen=True)
class MetricBundle:
    """One configuration's metrics; ``flags`` records any clamped/degenerate values."""

    nr_db: float
    sdi_db: float
    effort: float
    quality_db: float
    snr_in_db: float
    snr_out_db: float
    flags: tuple[str, ...] = field(default_factory=tuple)


def noise_reduction(p_v, e_v) -> float:
    """Energy ratio of the noise component before/after control, in dB."""
    p_v = np.asarray(p_v, dtype=float)
    e_v = np.asarray(e_v, dtype=float)
    if p_v.shape != e_v.shape:
        raise ValueError("p_v and e_v must have equal length")
    num = float(np.vdot(p_v, p_v))
    den = float(np.vdot(e_v, e_v))
    if den <= 0.0:
        return float("inf")
    return 10.0 * np.log10(num / den)


def speech_distortion_index(t, e_s) -> float:
    """Residual energy of (target - achieved speech) relative to the target, in dB.

    Clamped at -120 dB so an exact match stays numeric.
    """
    t = np.asarray(t, dtype=float)
    e_s = np.asarray(e_s, dtype=float)
    if t.shape != e_s.shape:
        raise ValueError("t and e_s must have equal length")
    denom = float(np.vdot(t, t))
    if denom <= 0.0:
        raise ValueError("target signal has zero energy")
    d = t - e_s
    num = float(np.vdot(d, d))
    if num <= 0.0:
        return SDI_FLOOR_DB
    return max(10.0 * np.log10(num / denom), SDI_FLOOR_DB)


def control_effort(y) -> float:
    """Total energy of the loudspeaker drive signal."""
    y = np.asarray(y, dtype=float)
    return float(np.vdot(y, y))


def quality_proxy(t, u, frame: int = QUALITY_FRAME, hop: int = 256) -> float:
    """Mean log-spectral distance between reference t and signal u, in dB.

    Frames of t whose energy is within 40 dB of the loudest frame count
    as voiced; per voiced frame the RMS difference of the log-magnitude
    spectra is taken and the frame values are averaged.  Bins are
    floored relative to the frame's spectral peak so near-zero bins do
    not dominate.
    """
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    if t.shape != u.shape:
        raise ValueError("t and u must have equal length")
    if frame < 8 or hop < 1:
        raise ValueError("need frame >= 8 and hop >= 1")
    if t.shape[0] < frame:
        raise ValueError(f"signal length {t.shape[0]} shorter than one frame ({frame})")

    window = np.hanning(frame)
    t_frames = np.lib.stride_tricks.sliding_window_view(t, frame)[::hop]
    u_frames = np.lib.stride_tricks.sliding_window_view(u, frame)[::hop]
    energies = np.sum(t_frames**2, axis=1)
    peak = float(np.max(energies))
    if peak <= 0.0:
        raise ValueError("all-silent reference signal")
    voiced = np.flatnonzero(energies >= peak * 1e-4)  # 40 dB below the loudest frame

    dists = []
    for start in range(0, voiced.shape[0], _QUALITY_BLOCK):
        rows = voiced[start : start + _QUALITY_BLOCK]
        T = np.abs(np.fft.rfft(window * t_frames[rows], axis=1))
        U = np.abs(np.fft.rfft(window * u_frames[rows], axis=1))
        floor = np.maximum(np.max(T, axis=1, keepdims=True), 1e-300) * 1e-7
        d = 20.0 * np.log10(np.maximum(U, floor) / np.maximum(T, floor))
        dists.append(np.sqrt(np.mean(d**2, axis=1)))
    return float(np.mean(np.concatenate(dists)))


def evaluate_run(result: RunResult, mics: MicSignals) -> MetricBundle:
    """Full metric bundle for one simulation run against its input signals."""
    flags = []

    nr = noise_reduction(mics.p_v, result.e_v)
    if not np.isfinite(nr):
        flags.append("nr_infinite")
    sdi = speech_distortion_index(result.t, result.e_s)
    if sdi <= SDI_FLOOR_DB:
        flags.append("sdi_clamped")
    quality = quality_proxy(result.t, result.e)

    def ratio_db(num, den):
        n = float(np.vdot(num, num))
        d = float(np.vdot(den, den))
        if d <= 0.0 or n <= 0.0:
            return float("inf") if d <= 0.0 else float("-inf")
        return 10.0 * np.log10(n / d)

    snr_in = ratio_db(mics.p_s, mics.p_v)
    snr_out = ratio_db(result.e_s, result.e_v)
    if not (np.isfinite(snr_in) and np.isfinite(snr_out)):
        flags.append("snr_infinite")

    return MetricBundle(
        nr_db=nr,
        sdi_db=sdi,
        effort=control_effort(result.y),
        quality_db=quality,
        snr_in_db=snr_in,
        snr_out_db=snr_out,
        flags=tuple(flags),
    )
