"""Apply a designed control filter to microphone signals.

The default mode assumes the primary-signal estimate is perfect (the
acoustic feedback of the loudspeaker into the estimate is exactly
removed), which makes the whole pipeline a feed-forward chain of
convolutions, evaluated blockwise in the frequency domain.
``closed_loop_sim`` additionally models an imperfect secondary-path
estimate, which closes a feedback loop; it is a diagnostic, not part
of the evaluation pipeline.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft

from ssanc.scene import MicSignals
from ssanc.solver import ControlFilter


@dataclass(frozen=True, eq=False)
class RunResult:
    """Signals produced by one simulation run.

    e_s / e_v are the speech and noise components of the error signal,
    obtained by running the identical linear pipeline on the speech-only
    and noise-only inputs; e is their sum by construction.  t is the
    realized target signal when a target configuration was given.
    """

    y: np.ndarray
    e: np.ndarray
    e_s: np.ndarray
    e_v: np.ndarray
    p_hat: np.ndarray
    t: np.ndarray | None = None


def _delay(x: np.ndarray, d: int) -> np.ndarray:
    if d == 0:
        return x.copy()
    out = np.zeros_like(x)
    out[d:] = x[:-d]
    return out


def realize_target(mics: MicSignals, target_kind: str, delta: int, spatial_ref: int) -> np.ndarray:
    """The target signal for a given configuration: a delayed desired component.

    Spectral weighting applies to the design constraint only; the
    target used for distortion scoring is the plain delayed component.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if target_kind == "error_mic":
        return _delay(mics.p_s, delta)
    if target_kind == "reference_mic":
        if not 0 <= spatial_ref < mics.K:
            raise ValueError(f"spatial_ref {spatial_ref} outside [0, {mics.K})")
        return _delay(mics.x_s[spatial_ref], delta)
    raise ValueError(f"unknown target_kind {target_kind!r}")


def _drive(w: np.ndarray, refs: np.ndarray, primary: np.ndarray, N: int) -> np.ndarray:
    y = np.zeros(N)
    for k in range(refs.shape[0]):
        y += np.convolve(w[k], refs[k])[:N]
    y += np.convolve(w[-1], primary)[:N]
    return y


class _FeedForward:
    """Input spectra of one set of microphone signals, ready to run any number of filters.

    The feed-forward chain is evaluated by overlap-save: the speech and
    noise inputs are cut into blocks of ``nfft`` samples that overlap by
    M = Lw + Lg - 2 (the memory of w * g), and every block's spectrum is
    taken once, here.  A filter then costs the transforms of its K+1
    channels and three inverse transforms of the blocks (y, and e_s and
    e_v through g), whose first M samples are circular wrap and are
    dropped.  Blocks of a few thousand samples stay in cache, which
    makes them two to three times faster than one transform of the
    whole signal.
    """

    def __init__(self, mics: MicSignals, g, Lw: int):
        g = np.asarray(g, dtype=float).ravel()
        self.mics = mics
        self.Lw = Lw
        self.M = Lw + g.shape[0] - 2
        # at least 4 M per block keeps the discarded overlap under a quarter;
        # a signal shorter than one block is a single transform
        self.nfft = scipy.fft.next_fast_len(min(max(4096, 4 * self.M), mics.N + self.M), real=True)
        self.hop = self.nfft - self.M
        self.S = self._spectra(np.vstack([mics.x_s, mics.p_s[None, :]]))
        self.V = self._spectra(np.vstack([mics.x_v, mics.p_v[None, :]]))
        self.G = np.fft.rfft(g, self.nfft)
        self.p = mics.p

    def _spectra(self, channels: np.ndarray) -> np.ndarray:
        """(C, blocks, bins) spectra of the overlapping blocks of C channels."""
        C, N = channels.shape
        blocks = -(-N // self.hop)
        padded = np.zeros((C, self.M + blocks * self.hop))
        padded[:, self.M : self.M + N] = channels
        frames = np.lib.stride_tricks.sliding_window_view(padded, self.nfft, axis=1)
        return np.fft.rfft(frames[:, :: self.hop], axis=-1)

    def _signal(self, Y: np.ndarray) -> np.ndarray:
        """The N-sample signal whose block spectra are Y."""
        blocks = np.fft.irfft(Y, self.nfft, axis=-1)
        return blocks[:, self.M :].reshape(-1)[: self.mics.N]

    def run(
        self, w: ControlFilter, target_kind: str | None = None, delta: int = 0, spatial_ref: int = 0
    ) -> RunResult:
        """Simulate one filter; the result shares its ``p_hat`` array with every other run."""
        if w.K != self.mics.K:
            raise ValueError(f"filter has {w.K} reference channels, signals have {self.mics.K}")
        if w.Lw != self.Lw:
            raise ValueError(f"filter has {w.Lw} taps per channel, expected {self.Lw}")
        W = np.fft.rfft(w.w, self.nfft)
        Y_s = np.einsum("kb,knb->nb", W, self.S)
        Y_v = np.einsum("kb,knb->nb", W, self.V)
        y = self._signal(Y_s + Y_v)
        Y_s *= self.G
        Y_v *= self.G
        e_s = self.mics.p_s + self._signal(Y_s)
        e_v = self.mics.p_v + self._signal(Y_v)

        t = None
        if target_kind is not None:
            t = realize_target(self.mics, target_kind, delta, spatial_ref)
        return RunResult(y=y, e=e_s + e_v, e_s=e_s, e_v=e_v, p_hat=self.p, t=t)


def apply_control(
    w: ControlFilter,
    mics: MicSignals,
    g,
    target_kind: str | None = None,
    delta: int = 0,
    spatial_ref: int = 0,
) -> RunResult:
    """Feed-forward simulation with a perfect primary-signal estimate.

    y is the loudspeaker drive (control filter applied to the reference
    signals and the primary signal), e = p + g*y the resulting error
    signal.  Passing a target configuration fills in the realized
    target t.  This is one run of the kernel a sweep reuses for all of
    its filters.
    """
    return _FeedForward(mics, g, w.Lw).run(w, target_kind, delta, spatial_ref)


def _closed_loop_component(w, refs, primary, g, g_hat, N):
    # y = c + (w_last * (g - g_hat)) * y  with zero instantaneous term,
    # i.e. a pure IIR driven by the feed-forward part c
    import scipy.signal  # deferred: costs most of the package's import time

    c = _drive(w, refs, primary, N)
    d = np.zeros(max(g.shape[0], g_hat.shape[0]))
    d[: g.shape[0]] += g
    d[: g_hat.shape[0]] -= g_hat
    a_full = np.convolve(w[-1], d)
    den = np.concatenate([[1.0], -a_full[1:]])
    y = scipy.signal.lfilter([1.0], den, c)
    e = primary + np.convolve(g, y)[:N]
    p_hat = e - np.convolve(g_hat, y)[:N]
    return y, e, p_hat


def closed_loop_sim(w: ControlFilter, mics: MicSignals, g, g_hat) -> RunResult:
    """Sample-recursive simulation with an estimated secondary path.

    The primary-signal estimate is reconstructed from the error signal
    and g_hat, so an estimation mismatch feeds back into the filter
    input.  Both paths must have one sample of latency (first tap 0),
    otherwise the loop would be delay-free and uncomputable.  With
    g_hat = g this reduces exactly to ``apply_control``.
    """
    g = np.asarray(g, dtype=float).ravel()
    g_hat = np.asarray(g_hat, dtype=float).ravel()
    if g.shape[0] and g[0] != 0.0:
        raise ValueError("secondary path must have >= 1 sample latency (g[0] = 0)")
    if g_hat.shape[0] and g_hat[0] != 0.0:
        raise ValueError("secondary-path estimate must have >= 1 sample latency (g_hat[0] = 0)")
    if w.K != mics.K:
        raise ValueError(f"filter has {w.K} reference channels, signals have {mics.K}")
    N = mics.N

    y_s, e_s, ph_s = _closed_loop_component(w.w, mics.x_s, mics.p_s, g, g_hat, N)
    y_v, e_v, ph_v = _closed_loop_component(w.w, mics.x_v, mics.p_v, g, g_hat, N)
    return RunResult(y=y_s + y_v, e=e_s + e_v, e_s=e_s, e_v=e_v, p_hat=ph_s + ph_v)


def export_run_wavs(result: RunResult, directory, fs: int) -> None:
    """Write y, e, e_s, e_v (and t if present) as float64 WAVs for inspection."""
    from pathlib import Path

    from ssanc import wavio

    directory = Path(directory)
    for name in ("y", "e", "e_s", "e_v"):
        wavio.write_wav(directory / f"{name}.wav", fs, getattr(result, name))
    if result.t is not None:
        wavio.write_wav(directory / "t.wav", fs, result.t)
