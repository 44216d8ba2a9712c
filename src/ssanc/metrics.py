"""Evaluation metrics: noise reduction, speech distortion, control effort, quality proxy.

``evaluate_run`` scores the signals of one simulation run; a sweep's
``_RowScores`` returns the same bundle for any filter without them:
NR, SDI and effort are quadratic forms in the taps over lag
correlations taken once (``_FilteredEnergy``), and only the error
signal is simulated, for the quality proxy.

The quality proxy is a frame-wise log-spectral distance, standing in
for standardized perceptual scores (which need the ITU reference
implementation and are out of scope here).  Its values are NOT
comparable to MOS scales; lower is better, 0 dB means identical
spectra.
"""

from dataclasses import dataclass

import numpy as np

from ssanc.convmat import Blocks, lagged_products, next_fast_len
from ssanc.scene import MicSignals
from ssanc.simulate import RunResult

SDI_FLOOR_DB = -120.0
# quality_proxy frame, the shortest signal a run can be scored on, and hop
QUALITY_FRAME = 512
_QUALITY_HOP = 256
# frames summed or transformed per batch by quality_proxy: bounds its
# temporaries to a few MB whatever the signal length
_QUALITY_BLOCK = 256


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


class _FilteredEnergy:
    """Energies of one (C, N) stack through C-channel FIR filters of at most P taps.

    Filter taps h, (C, T) with T <= P, give z(n) = sum_c (h_c * x_c)(n)
    for n = 0 .. N-1, from rest, as a simulation does.  Its energy is a
    quadratic form in h over the stack's full-range lag correlations
    r_ab(k) = sum_n x_a(n) x_b(n-k), k < P (``lagged_products``), which
    are taken once, here:

        sum_{n<N} z(n)^2 = sum_ab sum_k r_ab(k) rho_ab(k) - sum_{n>=N} z(n)^2

    with rho_ab(k) = sum_i h_a(i) h_b(i+k) over lags of both signs.  The
    first term is the energy of the full convolution; the second, of
    the T - 1 samples past N that the cut drops, reads only the last
    P - 1 samples of the stack.  Both are evaluated on an nfft >= 2P - 1
    point grid, where the lag sum is, by Parseval, a Hermitian form in
    the spectra of the taps.  Nothing held or computed per filter grows
    with N.
    """

    def __init__(self, x: np.ndarray, P: int):
        N = x.shape[1]
        self.P = P
        self.nfft = next_fast_len(2 * P - 1)
        r = lagged_products(x, x, P)
        R = np.fft.rfft(r, self.nfft)
        # the spectrum of r_ab over lags -P < k < P: negative lags are r_ba(-k)
        form = R + R.transpose(1, 0, 2).conj() - r[:, :, :1]
        # one-sided bins stand for their mirror images too, and Parseval divides by nfft
        weight = np.full(form.shape[-1], 2.0 / self.nfft)
        weight[0] = 1.0 / self.nfft
        if self.nfft % 2 == 0:
            weight[-1] = 1.0 / self.nfft  # the Nyquist bin has no mirror image
        self._form = form * weight
        self._tail = np.fft.rfft(x[:, N - P + 1 :], self.nfft)

    def __call__(self, taps: np.ndarray) -> float:
        """Energy of the first N samples of sum_c taps_c * x_c for (C, T <= P) taps."""
        H = np.fft.rfft(taps, self.nfft)
        full = np.vdot(H, np.einsum("abf,af->bf", self._form, H)).real
        tail = np.fft.irfft(np.einsum("cf,cf->f", H, self._tail), self.nfft)[self.P - 1 : 2 * self.P - 2]
        return float(full - np.vdot(tail, tail))


class _RowScores:
    """The four metrics of any (K+1, Lw) filter and delay, from correlations and spectra taken once.

    For a filter w the response of the error microphone to the stacked
    inputs is u = q + g * w (the primary sample plus the secondary path
    applied to every channel), so e_v is u on the noise stack; t - e_s
    is (sel - u) on the speech stack, with sel the unit pulse at the
    target microphone ``mic`` and lag delta; and the drive y is w on the
    observed stack x = s + v.  The speech and noise correlations span
    ``lags`` >= max(L, delta + 1) lags, those of x Lw.  Each delay's
    target is a view of one zero-led copy of the target microphone's
    speech row.  ``take_spectra`` then replaces x by its block spectra
    in the ``convmat.Blocks`` layout of w * g, the input of ``error``,
    and its last row.
    """

    def __init__(self, mics: MicSignals, g, Lw: int, lags: int, mic: int):
        self.x = mics.s + mics.v
        self.speech = _FilteredEnergy(mics.s, lags)
        self.noise = _FilteredEnergy(mics.v, lags)
        self.drive = _FilteredEnergy(self.x, Lw)
        self.g = np.asarray(g, dtype=float).ravel()
        self.blocks = Blocks(mics.N, Lw + self.g.shape[0] - 2)
        self.G = np.fft.rfft(self.g, self.blocks.nfft)
        self.mic = mic
        self.target = np.concatenate([np.zeros(lags - 1), mics.s[mic]])
        self.noise_in = float(np.vdot(mics.p_v, mics.p_v))

    def take_spectra(self) -> None:
        """Replace x by its block spectra X and its last row p: a sweep frees s and v first."""
        self.X, self.p = self.blocks.all_spectra(self.x), self.x[-1].copy()
        self.x = None

    def error(self, w: np.ndarray) -> np.ndarray:
        """The error signal p + g * (w * x) of filter w, from the block spectra of x."""
        W = np.fft.rfft(w, self.blocks.nfft)
        e = np.empty(self.blocks.N)
        for chunk in self.blocks.chunks:
            self.blocks.put(e, chunk, np.einsum("kb,knb->nb", W, self.X[:, chunk]) * self.G)
        e += self.p
        return e

    def __call__(self, w: np.ndarray, delta: int) -> MetricBundle:
        """The metrics of filter w whose target is the target microphone's speech delayed by delta."""
        # a sweep calls this on its worker threads, where no call may hand
        # work to OpenBLAS's own threads (a matrix product or a dot product
        # of N samples would), which compete with the pool's: u comes from
        # np.convolve per channel and the target energy from einsum
        t = self.target[self.speech.P - 1 - delta :][: self.blocks.N]
        u = np.array([np.convolve(w_c, self.g) for w_c in w])
        u[-1, 0] += 1.0
        sel = np.zeros((u.shape[0], self.speech.P))
        sel[:, : u.shape[1]] = -u
        sel[self.mic, delta] += 1.0
        return MetricBundle(
            nr_db=_nr_db(self.noise_in, self.noise(u)),
            sdi_db=_sdi_db(self.speech(sel), float(np.einsum("i,i", t, t))),
            effort=self.drive(w),
            quality_db=quality_proxy(t, self.error(w)),
        )
