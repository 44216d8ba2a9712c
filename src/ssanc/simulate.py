"""Apply a designed control filter to the scene's sources.

The simulation assumes the primary-signal estimate is perfect (the
acoustic feedback of the loudspeaker into the estimate is exactly
removed), which makes the whole pipeline a feed-forward chain of
convolutions, evaluated blockwise in the frequency domain.
``simulate_sources``, which ``ssanc simulate`` runs, forms a run's
signals from the two sources through the responses the filter gives
the drive and the error microphone, and renders no microphone stack.
``apply_control`` and ``realize_target`` run the same chain on rendered
(K+1, N) stacks (``scene.render_mics``); they stay as the tests' oracle
and for the benchmark's traced pass.
"""

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ssanc import wavio
from ssanc.convmat import Blocks
from ssanc.scene import MicSignals, Scene, _led_speech_row, _responses
from ssanc.solver import target_mic


@dataclass(frozen=True, eq=False)
class RunResult:
    """Signals produced by one simulation run.

    e_s / e_v are the speech and noise components of the error signal,
    obtained by running the identical linear pipeline on the speech-only
    and noise-only inputs; e, their sum, is formed on its first read and
    kept.  t is the realized target, the delayed desired component at the
    target microphone, which the metrics score e_s and e against.
    """

    y: np.ndarray
    e_s: np.ndarray
    e_v: np.ndarray
    t: np.ndarray

    @cached_property
    def e(self) -> np.ndarray:
        return self.e_s + self.e_v


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


def apply_control(
    w: np.ndarray, mics: MicSignals, g, target_kind: str, delta: int, spatial_ref: int
) -> RunResult:
    """Feed-forward simulation of a (K+1, Lw) filter on rendered stacks, with a perfect
    primary-signal estimate: the oracle of ``simulate_sources``.

    y is the loudspeaker drive (control filter applied to the reference
    signals and the primary signal), e = p + g*y the resulting error
    signal, and t the target of ``realize_target(mics, target_kind,
    delta, spatial_ref)``.  The speech and noise stacks run through the
    ``convmat.Blocks`` layout of w * g a chunk at a time; no
    whole-signal spectrum is kept.
    """
    if w.shape[0] != mics.K + 1:
        raise ValueError(f"filter has shape {w.shape}, expected {(mics.K + 1, w.shape[1])}")
    g = np.asarray(g, dtype=float).ravel()
    blocks = Blocks(mics.N, w.shape[-1] + g.shape[0] - 2)
    W, G = np.fft.rfft(w, blocks.nfft), np.fft.rfft(g, blocks.nfft)
    y, e_s, e_v = (np.empty(mics.N) for _ in range(3))
    for chunk in blocks.chunks:
        Y_s, Y_v = (np.einsum("kb,knb->nb", W, blocks.spectra(stack, chunk)) for stack in (mics.s, mics.v))
        blocks.put(y, chunk, Y_s + Y_v)
        blocks.put(e_s, chunk, Y_s * G)
        blocks.put(e_v, chunk, Y_v * G)
    e_s += mics.p_s
    e_v += mics.p_v
    t = realize_target(mics, target_kind, delta, spatial_ref)
    return RunResult(y=y, e_s=e_s, e_v=e_v, t=t)


def simulate_sources(w: np.ndarray, sources: np.ndarray, scene: Scene, target_kind: str, delta: int) -> RunResult:
    """The run of a (K+1, Lw) filter w on the (2, N) stack of the scene's speech and
    of its noise at the SNR gain, without a microphone stack.

    Each source reaches the drive and the error microphone through one
    response: with h_k the scene's responses of a source at microphone k,

        d = sum_k w_k * h_k,     f = g * d + h_K,

    so y = d_s * speech + d_v * noise, e_s = f_s * speech and
    e_v = f_v * noise, as ``apply_control`` gives them from the rendered
    stacks up to rounding.  d and f are formed as spectra on the
    ``convmat.Blocks`` layout of f, and both sources run through it one
    chunk of block spectra at a time, straight into the three signals.
    t is the target microphone's speech row (``solver.target_mic``) led
    by delta zeros, rendered as ``render_mics`` renders it, bit for bit
    (``scene._led_speech_row``, as a sweep renders its targets).
    """
    if w.shape[0] != scene.K + 1:
        raise ValueError(f"filter has shape {w.shape}, expected {(scene.K + 1, w.shape[1])}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    N = sources.shape[1]
    h = _responses(scene)
    t = _led_speech_row(scene, sources[0], target_mic(target_kind, scene.spatial_ref), delta)[:N]
    blocks = Blocks(N, w.shape[-1] + scene.g.shape[0] + h.shape[-1] - 3)  # f's taps, less one
    H = np.fft.rfft(h, blocks.nfft)
    D = np.einsum("kf,skf->sf", np.fft.rfft(w, blocks.nfft), H)
    F = D * np.fft.rfft(scene.g, blocks.nfft) + H[:, -1]
    y, e_s, e_v = (np.empty(N) for _ in range(3))
    for chunk in blocks.chunks:
        X = blocks.spectra(sources, chunk)
        blocks.put(y, chunk, np.einsum("sf,snf->nf", D, X))
        blocks.put(e_s, chunk, F[0] * X[0])
        blocks.put(e_v, chunk, F[1] * X[1])
    return RunResult(y=y, e_s=e_s, e_v=e_v, t=t)


def export_run_wavs(result: RunResult, directory, fs: int) -> None:
    """Write y, e, e_s, e_v and the target t as float64 WAVs for inspection."""
    directory = Path(directory)
    for name in ("y", "e", "e_s", "e_v", "t"):
        wavio.write_wav(directory / f"{name}.wav", fs, getattr(result, name))
