"""Evaluation metrics: noise reduction, speech distortion, control effort, quality proxy.

``evaluate_run`` scores the signals of one simulation run; ``_RowScores``,
which ``ssanc sweep`` and ``ssanc simulate`` both score by, returns the
same bundle for any filter without them, from the two sources alone:
NR, SDI and effort are energies of the sources through the responses
the filter gives the drive and the error microphone, quadratic forms
over the sources' lag correlations taken once
(``convmat._FilteredEnergy``), and only the error signal is simulated,
for the quality proxy.  Its ``run`` simulates the drive and the error
signal's two components by the same overlap-save loop.

The quality proxy is a frame-wise log-spectral distance, standing in
for standardized perceptual scores (which need the ITU reference
implementation and are out of scope here).  Its values are NOT
comparable to MOS scales; lower is better, 0 dB means identical
spectra.
"""

from dataclasses import dataclass

import numpy as np

from ssanc.convmat import Blocks, _FilteredEnergy
from ssanc.scene import MicSignals, Scene, _convolved
from ssanc.simulate import RunResult

SDI_FLOOR_DB = -120.0
# quality_proxy frame, the shortest signal a run can be scored on, and hop
QUALITY_FRAME = 512
_QUALITY_HOP = 256
# frames per quality_proxy batch: its temporaries, at most 512 KB at any signal length, stay under the
# mmap threshold glibc reaches once a 5 s signal's arrays are freed, so sweep rows reuse heap pages
_QUALITY_BLOCK = 128


@dataclass(frozen=True)
class MetricBundle:
    """One configuration's metrics, the four a sweep row reports."""

    nr_db: float
    sdi_db: float
    effort: float
    quality_db: float


def _nr_db(before: float, after: float) -> float:
    """NR from the noise energies before and after control; inf when none is left."""
    if after <= 0.0:
        return float("inf")
    return 10.0 * np.log10(before / after)


def _sdi_db(residual: float, target: float) -> float:
    """SDI from the energies of (target - achieved speech) and of the target."""
    if target <= 0.0:
        raise ValueError("target signal has zero energy")
    if residual <= 0.0:
        return SDI_FLOOR_DB
    return max(10.0 * np.log10(residual / target), SDI_FLOOR_DB)


def noise_reduction(p_v, e_v) -> float:
    """Energy ratio of the noise component before/after control, in dB."""
    p_v = np.asarray(p_v, dtype=float)
    e_v = np.asarray(e_v, dtype=float)
    if p_v.shape != e_v.shape:
        raise ValueError("p_v and e_v must have equal length")
    return _nr_db(float(np.vdot(p_v, p_v)), float(np.vdot(e_v, e_v)))


def speech_distortion_index(t, e_s) -> float:
    """Residual energy of (target - achieved speech) relative to the target, in dB.

    Clamped at -120 dB so an exact match stays numeric.
    """
    t = np.asarray(t, dtype=float)
    e_s = np.asarray(e_s, dtype=float)
    if t.shape != e_s.shape:
        raise ValueError("t and e_s must have equal length")
    d = t - e_s
    return _sdi_db(float(np.vdot(d, d)), float(np.vdot(t, t)))


def control_effort(y) -> float:
    """Total energy of the loudspeaker drive signal."""
    y = np.asarray(y, dtype=float)
    return float(np.vdot(y, y))


def quality_proxy(t, u) -> float:
    """Mean log-spectral distance between reference t and signal u, in dB.

    t and u are cut into frames of QUALITY_FRAME samples, _QUALITY_HOP
    apart.  Frames of t whose energy is within 40 dB of the loudest
    frame count as voiced; per voiced frame the RMS difference of the
    log-magnitude spectra is taken and the frame values are averaged.
    Bins are floored relative to the frame's spectral peak so near-zero
    bins do not dominate.
    """
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    if t.shape != u.shape:
        raise ValueError("t and u must have equal length")
    if t.shape[0] < QUALITY_FRAME:
        raise ValueError(f"signal length {t.shape[0]} shorter than one frame ({QUALITY_FRAME})")

    window = np.hanning(QUALITY_FRAME)
    t_frames = np.lib.stride_tricks.sliding_window_view(t, QUALITY_FRAME)[::_QUALITY_HOP]
    u_frames = np.lib.stride_tricks.sliding_window_view(u, QUALITY_FRAME)[::_QUALITY_HOP]
    energies = np.concatenate([
        np.sum(t_frames[start : start + _QUALITY_BLOCK] ** 2, axis=1)
        for start in range(0, t_frames.shape[0], _QUALITY_BLOCK)
    ])
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
    """NR, SDI, effort and quality proxy of one simulation run against its input signals."""
    return MetricBundle(
        nr_db=noise_reduction(mics.p_v, result.e_v),
        sdi_db=speech_distortion_index(result.t, result.e_s),
        effort=control_effort(result.y),
        quality_db=quality_proxy(result.t, result.e),
    )


def _lag_span(scene: Scene, L: int, last_delta: int) -> int:
    """The lags P of the sources' ``_FilteredEnergy`` that a design of L-sample frames and
    the scores of its filters up to last_delta both read: those of a microphone's
    response over one frame and of f, L + Lir - 1, or of the target's response delayed
    by last_delta, last_delta + Lir, for Lir the scene's longest response."""
    return scene.h.shape[-1] - 1 + max(L, last_delta + 1)


class _RowScores:
    """The four metrics of any (K+1, Lw) filter and delay, and its run, from the two sources alone.

    The error microphone hears each source through one overall response.
    With ``sources`` the (2, N) stack of the speech and of the noise, h_k
    the scene's responses of a source at microphone k (the noise's at its
    SNR gain) and a filter w, u = q + g * w (the primary sample plus the
    secondary path applied to every channel), that response is

        f = sum_k u_k * h_k = g * d + h_K,     d = sum_k w_k * h_k

    per source.  So e_v is f_v on the noise, t - e_s is (a_mic delayed
    by delta, less f_s) on the speech, with a_mic the speech response of
    the target microphone ``mic``, and the drive y is [d_s, d_v] on both
    sources.  These three are energies of ``energy``, the sources'
    ``_FilteredEnergy``, whose lags (``_lag_span``) span the longest
    filter: f, of L + Lir - 1 taps for Lir the longest response, or a_mic
    delayed by ``last_delta``; the design took its statistics from the
    same correlations.  d and f are formed as spectra on its grid, from the responses'
    spectra taken once, so no filter is convolved with a response and a
    delay costs a few transforms of that grid, however long the
    responses.  The residual's spectrum cancels before it is squared, so
    an SDI near its rounding floor keeps its digits.  Signals are
    simulated (``signals``) from the sources' block spectra in the
    ``convmat.Blocks`` layout of f, taken once: the error signal alone
    for a row's quality proxy, and y, e_s and e_v for a run (``run``).
    Each delay's target is a view of one copy of the target microphone's
    speech row, rendered as ``render_mics`` renders it and led by
    last_delta zeros.  NR divides ``noise_energy``, that of
    the error microphone's noise, h_K on the noise, by e_v's.
    """

    def __init__(self, energy: _FilteredEnergy, sources: np.ndarray, scene: Scene, Lw: int, last_delta: int, mic: int):
        N = sources.shape[1]
        g = np.asarray(scene.g, dtype=float).ravel()
        self.taps = Lw + g.shape[0] + scene.h.shape[-1] - 2  # those of f
        self.energy = energy
        self.H = np.fft.rfft(scene.h, self.energy.nfft)
        self.G = np.fft.rfft(g, self.energy.nfft)
        self.blocks = Blocks(N, self.taps - 1)
        self.X = self.blocks.all_spectra(sources)
        self.mic, self.last_delta = mic, last_delta
        self.noise_energy = float(energy(np.stack([np.zeros_like(self.G), self.H[1, -1]])))
        self.target = np.zeros(last_delta + N)
        _convolved(scene.h[0, mic, None], sources[0], out=self.target[None, last_delta:])

    def responses(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The spectra of d and f of filter w on the energy's grid, a row per source:
        its drive's and its error signal's responses."""
        # a sweep calls this on its worker threads, where no call may hand
        # work to OpenBLAS's own threads (a matrix product would), which
        # compete with the pool's: the sum over channels is an einsum
        D = np.einsum("kf,skf->sf", np.fft.rfft(w, self.energy.nfft), self.H)
        return D, D * self.G + self.H[:, -1]

    def signals(self, F: np.ndarray) -> np.ndarray:
        """The (m, N) signals sum_s f_s * source_s of the (m, 2, bins) spectra F of
        two-source responses of at most f's taps on the energy's grid (``responses``),
        from the sources' block spectra, one signal of one chunk at a time."""
        F = np.fft.rfft(np.fft.irfft(F, self.energy.nfft)[..., : self.taps], self.blocks.nfft)
        out = np.empty((F.shape[0], self.blocks.N))
        for chunk in self.blocks.chunks:
            for row, spectra in zip(out, F):
                self.blocks.put(row, chunk, np.einsum("sb,snb->nb", spectra, self.X[:, chunk]))
        return out

    def _target(self, delta: int) -> np.ndarray:
        """The target microphone's speech delayed by delta, a view of ``target``."""
        return self.target[self.last_delta - delta :][: self.blocks.N]

    def run(self, w: np.ndarray, delta: int) -> RunResult:
        """The simulation run of filter w at delay delta: y = d on both sources,
        e_s = f_s on the speech, e_v = f_v on the noise, and the target t."""
        D, F = self.responses(w)
        zero = np.zeros_like(F[0])
        y, e_s, e_v = self.signals(np.stack([D, [F[0], zero], [zero, F[1]]]))
        return RunResult(y=y, e_s=e_s, e_v=e_v, t=self._target(delta))

    def __call__(self, w: np.ndarray, delta: int) -> MetricBundle:
        """The metrics of filter w whose target is the target microphone's speech delayed by delta."""
        t = self._target(delta)
        D, F = self.responses(w)
        nfft = self.energy.nfft
        # the delay as a phase, its angle reduced to one turn so it keeps its digits
        shift = np.exp(-2j * np.pi / nfft * (delta * np.arange(F.shape[1]) % nfft))
        spectra = np.zeros((3, 2, F.shape[1]), dtype=complex)
        spectra[0, 1] = F[1]  # e_v: f_v on the noise
        spectra[1, 0] = self.H[0, self.mic] * shift - F[0]  # t - e_s: a_mic delayed, less f_s, on the speech
        spectra[2] = D  # y: d on both sources
        noise, residual, effort = self.energy(spectra)
        return MetricBundle(
            nr_db=_nr_db(self.noise_energy, float(noise)),
            sdi_db=_sdi_db(float(residual), float(np.einsum("i,i", t, t))),
            effort=float(effort),
            quality_db=quality_proxy(t, self.signals(F[None])[0]),
        )
