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
from ssanc.convmat import _BLOCK_CHUNK, block_fft_len, overlap_blocks
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
    x = mics.s[target_mic(target_kind, spatial_ref)]
    t = np.zeros_like(x)
    t[delta:] = x[: max(x.shape[0] - delta, 0)]
    return t


class _Blocks:
    """Overlap-save blocks of N-sample signals for (C, Lw) filters followed by the path g.

    Signals are cut into blocks of ``nfft`` samples that overlap by
    M = Lw + Lg - 2 (the memory of w * g), the circular wrap dropped from
    each filtered block.  Blocks of a few thousand samples stay in cache
    (two to three times faster than one transform of the whole signal)
    and are taken, filtered and inverted ``chunks`` of
    ``convmat._BLOCK_CHUNK`` samples at a time, straight into the output.
    """

    def __init__(self, N: int, g, Lw: int):
        g = np.asarray(g, dtype=float).ravel()
        self.N = N
        self.M = Lw + g.shape[0] - 2
        self.nfft = block_fft_len(self.M, N)
        self.hop = self.nfft - self.M
        self.G = np.fft.rfft(g, self.nfft)
        count, chunk = -(-N // self.hop), max(1, _BLOCK_CHUNK // self.nfft)
        self.chunks = [slice(block, min(block + chunk, count)) for block in range(0, count, chunk)]

    def spectra(self, x: np.ndarray, chunk: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The spectra of the chunk's blocks of the (C, N) stack x, written to out if given."""
        start, count = chunk.start * self.hop - self.M, chunk.stop - chunk.start
        return np.fft.rfft(overlap_blocks(x, start, count, self.nfft, self.hop), out=out)

    def all_spectra(self, x: np.ndarray) -> np.ndarray:
        """The spectra of all blocks of x, transformed a chunk at a time straight into one array."""
        X = np.empty((x.shape[0], self.chunks[-1].stop, self.nfft // 2 + 1), dtype=complex)
        for chunk in self.chunks:
            self.spectra(x, chunk, X[:, chunk])
        return X

    def put(self, out: np.ndarray, chunk: slice, Y: np.ndarray) -> None:
        """Write the samples of the chunk's blocks whose spectra are Y into the N-sample out."""
        start, stop = chunk.start * self.hop, min(chunk.stop * self.hop, self.N)
        out[start:stop] = np.fft.irfft(Y, self.nfft)[:, self.M :].reshape(-1)[: stop - start]

    def error(self, w: np.ndarray, X: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The error signal p + g * (w * x) of a filter w on the stack x of ``all_spectra`` X."""
        W = np.fft.rfft(w, self.nfft)
        e = np.empty(self.N)
        for chunk in self.chunks:
            self.put(e, chunk, np.einsum("kb,knb->nb", W, X[:, chunk]) * self.G)
        e += p
        return e


def apply_control(
    w: np.ndarray, mics: MicSignals, g, target_kind: str, delta: int, spatial_ref: int
) -> RunResult:
    """Feed-forward simulation of a (K+1, Lw) filter with a perfect primary-signal estimate.

    y is the loudspeaker drive (control filter applied to the reference
    signals and the primary signal), e = p + g*y the resulting error
    signal, and t the target of ``realize_target(mics, target_kind,
    delta, spatial_ref)``.  The speech and noise stacks run through
    ``_Blocks`` a chunk at a time; no whole-signal spectrum is kept.
    """
    if w.shape[0] != mics.K + 1:
        raise ValueError(f"filter has shape {w.shape}, expected {(mics.K + 1, w.shape[1])}")
    blocks = _Blocks(mics.N, g, w.shape[-1])
    W = np.fft.rfft(w, blocks.nfft)
    y, e_s, e_v = (np.empty(mics.N) for _ in range(3))
    for chunk in blocks.chunks:
        Y_s, Y_v = (np.einsum("kb,knb->nb", W, blocks.spectra(stack, chunk)) for stack in (mics.s, mics.v))
        blocks.put(y, chunk, Y_s + Y_v)
        blocks.put(e_s, chunk, Y_s * blocks.G)
        blocks.put(e_v, chunk, Y_v * blocks.G)
    e_s += mics.p_s
    e_v += mics.p_v
    t = realize_target(mics, target_kind, delta, spatial_ref)
    return RunResult(y=y, e=e_s + e_v, e_s=e_s, e_v=e_v, t=t)


def export_run_wavs(result: RunResult, directory, fs: int) -> None:
    """Write y, e, e_s, e_v and the target t as float64 WAVs for inspection."""
    directory = Path(directory)
    for name in ("y", "e", "e_s", "e_v", "t"):
        wavio.write_wav(directory / f"{name}.wav", fs, getattr(result, name))
