"""Apply a designed control filter to microphone signals.

The simulation assumes the primary-signal estimate is perfect (the
acoustic feedback of the loudspeaker into the estimate is exactly
removed), which makes the whole pipeline a feed-forward chain of
convolutions, evaluated blockwise in the frequency domain.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ssanc import wavio
from ssanc.convmat import block_fft_len, overlap_blocks
from ssanc.scene import MicSignals
from ssanc.solver import target_mic


@dataclass(frozen=True, eq=False)
class RunResult:
    """Signals produced by one simulation run.

    e_s / e_v are the speech and noise components of the error signal,
    obtained by running the identical linear pipeline on the speech-only
    and noise-only inputs; e is their sum by construction.  t is the
    realized target, the delayed desired component at the target
    microphone, which the metrics score e_s and e against.
    """

    y: np.ndarray
    e: np.ndarray
    e_s: np.ndarray
    e_v: np.ndarray
    t: np.ndarray


def _delay(x: np.ndarray, d: int) -> np.ndarray:
    if d == 0:
        return x.copy()
    out = np.zeros_like(x)
    out[d:] = x[:-d]
    return out


def realize_target(mics: MicSignals, target_kind: str, delta: int, spatial_ref: int) -> np.ndarray:
    """The target signal: the desired component at the target microphone, delayed by delta.

    The target microphone is ``solver.target_mic(target_kind,
    spatial_ref)``, the row the design's constraint vector reads.
    Spectral weighting applies to the design constraint only; the
    target used for distortion scoring is the plain delayed component.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if not 0 <= spatial_ref < mics.K:
        raise ValueError(f"spatial_ref {spatial_ref} outside [0, {mics.K})")
    return _delay(mics.s[target_mic(target_kind, spatial_ref)], delta)


class _Blocks:
    """Overlap-save layout of the chain w * g on N-sample signals.

    Signals are cut into blocks of ``nfft`` samples that overlap by
    M = Lw + Lg - 2 (the memory of w * g).  A filter then costs the
    transforms of its K+1 channels against the block spectra of a stack
    and one inverse transform per signal, whose first M samples are
    circular wrap and are dropped.  Blocks of a few thousand samples
    stay in cache, which makes them two to three times faster than one
    transform of the whole signal.
    """

    def __init__(self, N: int, g, Lw: int):
        g = np.asarray(g, dtype=float).ravel()
        self.N = N
        self.Lw = Lw
        self.M = Lw + g.shape[0] - 2
        self.nfft = block_fft_len(self.M, N)
        self.hop = self.nfft - self.M
        self.G = np.fft.rfft(g, self.nfft)

    def _spectra(self, channels: np.ndarray) -> np.ndarray:
        """(C, blocks, bins) spectra of the overlapping blocks of C channels."""
        blocks = -(-channels.shape[1] // self.hop)
        return np.fft.rfft(overlap_blocks(channels, -self.M, blocks, self.nfft, self.hop), axis=-1)

    def _spectrum(self, w: np.ndarray, channels: int) -> np.ndarray:
        """The nfft-point spectrum of a (channels, Lw) filter, checked for its shape."""
        if w.shape != (channels, self.Lw):
            raise ValueError(f"filter has shape {w.shape}, expected {(channels, self.Lw)}")
        return np.fft.rfft(w, self.nfft)

    def _signal(self, Y: np.ndarray) -> np.ndarray:
        """The N-sample signal whose block spectra are Y."""
        blocks = np.fft.irfft(Y, self.nfft, axis=-1)
        return blocks[:, self.M :].reshape(-1)[: self.N]


class _FeedForward(_Blocks):
    """Input spectra of one set of microphone signals, ready to run any number of filters.

    The speech and noise stacks ``mics.s`` and ``mics.v``, (K+1, N)
    each, are cut as they are into overlap-save blocks, and every
    block's spectrum is taken once, here.  A filter then costs the
    transforms of its K+1 channels and three inverse transforms of the
    blocks: y, and e_s and e_v through g.
    """

    def __init__(self, mics: MicSignals, g, Lw: int):
        super().__init__(mics.N, g, Lw)
        self.mics = mics
        self.S = self._spectra(mics.s)
        self.V = self._spectra(mics.v)

    def run(self, w: np.ndarray, target_kind: str, delta: int, spatial_ref: int) -> RunResult:
        """Simulate one (K+1, Lw) filter and realize the target it was designed for."""
        W = self._spectrum(w, self.mics.K + 1)
        Y_s = np.einsum("kb,knb->nb", W, self.S)
        Y_v = np.einsum("kb,knb->nb", W, self.V)
        y = self._signal(Y_s + Y_v)
        Y_s *= self.G
        Y_v *= self.G
        e_s = self.mics.p_s + self._signal(Y_s)
        e_v = self.mics.p_v + self._signal(Y_v)
        t = realize_target(self.mics, target_kind, delta, spatial_ref)
        return RunResult(y=y, e=e_s + e_v, e_s=e_s, e_v=e_v, t=t)


class _ErrorSignal(_Blocks):
    """The error signal e = x_K + g * (w * x) of any filter, and nothing else.

    Holds the block spectra of the observed stack x = s + v alone, half
    of what ``_FeedForward`` holds, and spends one inverse transform per
    filter.  A sweep needs e only for the quality proxy: it scores
    NR, SDI and effort from lag correlations (``metrics._FormScores``).
    """

    def __init__(self, x: np.ndarray, g, Lw: int):
        super().__init__(x.shape[1], g, Lw)
        self.p = x[-1]
        self.X = self._spectra(x)

    def __call__(self, w: np.ndarray) -> np.ndarray:
        """The N-sample error signal of one (K+1, Lw) filter."""
        Y = np.einsum("kb,knb->nb", self._spectrum(w, self.X.shape[0]), self.X)
        Y *= self.G
        return self.p + self._signal(Y)


def apply_control(
    w: np.ndarray, mics: MicSignals, g, target_kind: str, delta: int, spatial_ref: int
) -> RunResult:
    """Feed-forward simulation of a (K+1, Lw) filter with a perfect primary-signal estimate.

    y is the loudspeaker drive (control filter applied to the reference
    signals and the primary signal), e = p + g*y the resulting error
    signal, and t the target of ``realize_target(mics, target_kind,
    delta, spatial_ref)``.  This is one run of the kernel a sweep
    reuses for all of its filters.
    """
    return _FeedForward(mics, g, w.shape[-1]).run(w, target_kind, delta, spatial_ref)


def export_run_wavs(result: RunResult, directory, fs: int) -> None:
    """Write y, e, e_s, e_v and the target t as float64 WAVs for inspection."""
    directory = Path(directory)
    for name in ("y", "e", "e_s", "e_v", "t"):
        wavio.write_wav(directory / f"{name}.wav", fs, getattr(result, name))
