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
    return _delayed(mics.s[target_mic(target_kind, spatial_ref)], delta)


def _delayed(x: np.ndarray, delta: int) -> np.ndarray:
    """x delayed by delta >= 0 samples from rest, cut to its own length."""
    t = np.zeros_like(x)
    t[delta:] = x[: max(x.shape[0] - delta, 0)]
    return t


class _Blocks:
    """Overlap-save block spectra of one (C, N) stack x, ready to run any number of filters.

    The stack is cut into blocks of ``nfft`` samples that overlap by
    M = Lw + Lg - 2 (the memory of w * g), and every block's spectrum is
    taken once, here.  A (C, Lw) filter then costs the transforms of its
    C channels and one inverse transform per signal, whose first M
    samples are circular wrap and are dropped.  Blocks of a few thousand
    samples stay in cache, which makes them two to three times faster
    than one transform of the whole signal.
    """

    def __init__(self, x: np.ndarray, g, Lw: int):
        g = np.asarray(g, dtype=float).ravel()
        self.N = x.shape[1]
        self.Lw = Lw
        self.M = Lw + g.shape[0] - 2
        self.nfft = block_fft_len(self.M, self.N)
        hop = self.nfft - self.M
        self.G = np.fft.rfft(g, self.nfft)
        self.p = x[-1]
        self.X = np.fft.rfft(overlap_blocks(x, -self.M, -(-self.N // hop), self.nfft, hop), axis=-1)

    def drive(self, w: np.ndarray) -> np.ndarray:
        """The block spectra of w * x for a (C, Lw) filter w, checked for its shape."""
        if w.shape != (self.X.shape[0], self.Lw):
            raise ValueError(f"filter has shape {w.shape}, expected {(self.X.shape[0], self.Lw)}")
        return np.einsum("kb,knb->nb", np.fft.rfft(w, self.nfft), self.X)

    def signal(self, Y: np.ndarray) -> np.ndarray:
        """The N-sample signal whose block spectra are Y."""
        blocks = np.fft.irfft(Y, self.nfft, axis=-1)
        return blocks[:, self.M :].reshape(-1)[: self.N]

    def error(self, Y: np.ndarray) -> np.ndarray:
        """The error signal x_K + g * y of a drive y whose block spectra Y are those of
        ``drive``, x_K the stack's last row; Y is overwritten."""
        Y *= self.G
        e = self.signal(Y)
        e += self.p
        return e


def apply_control(
    w: np.ndarray, mics: MicSignals, g, target_kind: str, delta: int, spatial_ref: int
) -> RunResult:
    """Feed-forward simulation of a (K+1, Lw) filter with a perfect primary-signal estimate.

    y is the loudspeaker drive (control filter applied to the reference
    signals and the primary signal), e = p + g*y the resulting error
    signal, and t the target of ``realize_target(mics, target_kind,
    delta, spatial_ref)``.  The speech and noise stacks each run
    through ``_Blocks``, whose ``error(drive(w))`` a sweep takes for
    every filter.
    """
    speech, noise = (_Blocks(stack, g, w.shape[-1]) for stack in (mics.s, mics.v))
    Y_s, Y_v = speech.drive(w), noise.drive(w)
    y = speech.signal(Y_s + Y_v)
    e_s, e_v = speech.error(Y_s), noise.error(Y_v)
    t = realize_target(mics, target_kind, delta, spatial_ref)
    return RunResult(y=y, e=e_s + e_v, e_s=e_s, e_v=e_v, t=t)


def export_run_wavs(result: RunResult, directory, fs: int) -> None:
    """Write y, e, e_s, e_v and the target t as float64 WAVs for inspection."""
    directory = Path(directory)
    for name in ("y", "e", "e_s", "e_v", "t"):
        wavio.write_wav(directory / f"{name}.wav", fs, getattr(result, name))
