from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ssanc.metrics import (
    SDI_FLOOR_DB,
    MetricBundle,
    _FilteredEnergy,
    _lag_span,
    _RowScores,
    control_effort,
    evaluate_run,
    noise_reduction,
    quality_proxy,
    speech_distortion_index,
)
from ssanc.scene import MicSignals, Scene, render_mics
from ssanc.simulate import RunResult


def test_noise_reduction_identity_is_zero_db():
    v = np.random.default_rng(0).standard_normal(100)
    assert noise_reduction(v, v) == pytest.approx(0.0, abs=1e-12)


def test_noise_reduction_halving_is_six_db():
    v = np.random.default_rng(1).standard_normal(100)
    assert noise_reduction(v, v / 2) == pytest.approx(20 * np.log10(2), abs=1e-9)
    assert noise_reduction(v, v / 2) == pytest.approx(6.0206, abs=1e-3)


def test_noise_reduction_scaling_law():
    v = np.random.default_rng(2).standard_normal(64)
    for c in (0.1, 0.5, 2.0):
        assert noise_reduction(v, c * v) == pytest.approx(-20 * np.log10(c), abs=1e-9)


def test_noise_reduction_zero_energy_flagged_infinite():
    v = np.ones(10)
    assert noise_reduction(v, np.zeros(10)) == float("inf")


def test_noise_reduction_invariant_to_joint_scaling():
    rng = np.random.default_rng(3)
    p, e = rng.standard_normal(50), rng.standard_normal(50)
    assert noise_reduction(10 * p, 10 * e) == pytest.approx(noise_reduction(p, e), abs=1e-12)


def test_sdi_exact_match_clamps():
    t = np.random.default_rng(4).standard_normal(30)
    assert speech_distortion_index(t, t.copy()) == SDI_FLOOR_DB


def test_sdi_zero_output_is_zero_db():
    t = np.random.default_rng(5).standard_normal(30)
    assert speech_distortion_index(t, np.zeros(30)) == pytest.approx(0.0, abs=1e-12)


def test_sdi_ten_percent_overshoot_is_minus_twenty_db():
    t = np.random.default_rng(6).standard_normal(200)
    assert speech_distortion_index(t, 1.1 * t) == pytest.approx(-20.0, abs=1e-9)


def test_sdi_scale_sensitivity_closed_form():
    t = np.random.default_rng(7).standard_normal(100)
    for c in (0.5, 0.9, 1.2):
        expected = 10 * np.log10((1 - c) ** 2)
        assert speech_distortion_index(t, c * t) == pytest.approx(expected, abs=1e-9)


def test_sdi_rejects_silent_target():
    with pytest.raises(ValueError):
        speech_distortion_index(np.zeros(10), np.ones(10))


def test_control_effort_closed_forms():
    assert control_effort(np.zeros(5)) == 0.0
    assert control_effort([1.0, 1.0, 1.0]) == 3.0


def test_quality_proxy_identity_is_zero():
    t = np.random.default_rng(8).standard_normal(4096)
    assert quality_proxy(t, t.copy()) == 0.0


def test_quality_proxy_constant_gain_offset():
    t = np.random.default_rng(9).standard_normal(4096)
    assert quality_proxy(t, 2.0 * t) == pytest.approx(20 * np.log10(2), abs=1e-9)


def test_quality_proxy_monotone_in_noise_level():
    rng = np.random.default_rng(10)
    t = rng.standard_normal(4096)
    d = rng.standard_normal(4096)
    weak = quality_proxy(t, t + 0.01 * d)
    strong = quality_proxy(t, t + 0.5 * d)
    assert strong > weak > 0.0


def test_quality_proxy_invariant_to_joint_scaling():
    rng = np.random.default_rng(11)
    t = rng.standard_normal(4096)
    u = t + 0.1 * rng.standard_normal(4096)
    assert quality_proxy(3 * t, 3 * u) == pytest.approx(quality_proxy(t, u), abs=1e-9)


def test_quality_proxy_skips_silent_frames():
    rng = np.random.default_rng(12)
    t = np.zeros(4096)
    t[2048:] = rng.standard_normal(2048)
    u = t + 0.1 * rng.standard_normal(4096)
    val = quality_proxy(t, u)
    assert np.isfinite(val)
    with pytest.raises(ValueError, match="silent"):
        quality_proxy(np.zeros(1024), np.ones(1024))


def quality_proxy_loop(t, u, frame=512, hop=256):
    """Frame-by-frame reference for ``quality_proxy``."""
    window = np.hanning(frame)
    starts = range(0, t.shape[0] - frame + 1, hop)
    energies = np.array([float(np.sum(t[s : s + frame] ** 2)) for s in starts])
    voiced = energies >= float(np.max(energies)) * 1e-4
    dists = []
    for s, keep in zip(starts, voiced):
        if keep:
            T = np.abs(np.fft.rfft(window * t[s : s + frame]))
            U = np.abs(np.fft.rfft(window * u[s : s + frame]))
            floor = max(float(np.max(T)), 1e-300) * 1e-7
            d = 20.0 * np.log10(np.maximum(U, floor) / np.maximum(T, floor))
            dists.append(float(np.sqrt(np.mean(d**2))))
    return float(np.mean(dists))


@pytest.mark.parametrize("case", ["unvoiced_frames", "one_frame", "u_equals_t", "many_blocks"])
def test_quality_proxy_matches_frame_loop(case):
    rng = np.random.default_rng(14)
    n = {"unvoiced_frames": 20000, "one_frame": 512, "u_equals_t": 6000, "many_blocks": 80000}[case]
    # speech-like bursts: blocks of 100 samples whose gains span over 60 dB
    t = rng.standard_normal(n) * np.repeat(rng.uniform(0.0, 1.0, n // 100 + 1) ** 6, 100)[:n]
    if case == "unvoiced_frames":
        t[3000:9000] *= 1e-4
    u = t.copy() if case == "u_equals_t" else t + 0.05 * rng.standard_normal(n)
    expected = quality_proxy_loop(t, u)
    assert quality_proxy(t, u) == pytest.approx(expected, rel=1e-12, abs=1e-12)
    if case == "u_equals_t":
        assert quality_proxy(t, u) == 0.0


def test_quality_proxy_validates_args():
    with pytest.raises(ValueError):
        quality_proxy(np.ones(10), np.ones(10))
    with pytest.raises(ValueError):
        quality_proxy(np.ones(100), np.ones(99))


def test_evaluate_run_bundles_everything():
    rng = np.random.default_rng(13)
    n = 4096
    x_s, x_v = rng.standard_normal((2, n)), rng.standard_normal((2, n))
    p_s, p_v = rng.standard_normal(n), rng.standard_normal(n)
    mics = MicSignals(s=np.vstack([x_s, p_s]), v=np.vstack([x_v, p_v]))
    t = mics.p_s.copy()
    run = RunResult(
        y=0.5 * rng.standard_normal(n),
        e_s=mics.p_s.copy(),
        e_v=0.5 * mics.p_v,
        t=t,
    )
    mb = evaluate_run(run, mics)
    assert isinstance(mb, MetricBundle)
    assert mb.nr_db == pytest.approx(20 * np.log10(2), abs=1e-9)
    assert mb.sdi_db == SDI_FLOOR_DB
    assert mb.effort == pytest.approx(control_effort(run.y))
    assert mb.quality_db == quality_proxy(run.t, run.e) and mb.quality_db > 0.0


def test_energy_sums_match_elementwise_reference():
    """The metrics take energies as dot products; the elementwise sums of
    squares they replace agree to rounding on a 60 s signal."""
    rng = np.random.default_rng(17)
    p, e, y = (rng.standard_normal(960000) for _ in range(3))
    t = p + 0.1 * e
    assert noise_reduction(p, e) == pytest.approx(10 * np.log10(np.sum(p**2) / np.sum(e**2)), rel=1e-12)
    assert speech_distortion_index(t, p) == pytest.approx(
        10 * np.log10(np.sum((t - p) ** 2) / np.sum(t**2)), rel=1e-12
    )
    assert control_effort(y) == pytest.approx(np.sum(y**2), rel=1e-12)
    assert control_effort(y.reshape(600, 1600)) == control_effort(y)


@settings(max_examples=60, deadline=None)
@given(
    C=st.integers(1, 4),
    P=st.integers(1, 48),
    extra=st.integers(0, 9000),
    taps=st.integers(1, 48),
    pulse=st.booleans(),
    silent=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(C=3, P=1, extra=0, taps=1, pulse=False, silent=4, seed=0)
@example(C=2, P=48, extra=8100, taps=48, pulse=True, silent=1, seed=1)
@example(C=1, P=20, extra=5, taps=1, pulse=False, silent=0, seed=2)
def test_filtered_energy_matches_explicit_convolution(C, P, extra, taps, pulse, silent, seed):
    """The energy of sum_c h_c * x_c cut to N samples, for T = 1 .. P taps
    (a selector pulse at delta = P - 1 when ``pulse``) and a silent channel,
    is that of the explicit np.convolve; N spans one to three blocks.
    ``silent`` >= C leaves every channel sounding."""
    T = min(taps, P)
    N = P + extra
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((C, N))
    if silent < C:
        x[silent] = 0.0
    h = rng.standard_normal((C, T))
    if pulse:
        h = np.hstack([h, np.zeros((C, P - T))])
        h[0, P - 1] += 1.0
    z = sum(np.convolve(h[c], x[c])[:N] for c in range(C))
    want = float(np.vdot(z, z))
    scale = float(np.sum(x**2) * np.sum(h**2))
    energy = _FilteredEnergy(x, P)
    got = energy(np.fft.rfft(h, energy.nfft))
    assert abs(got - want) <= 1e-10 * (want if want > 1e-10 * scale else scale)


def test_filtered_energy_reads_lags_past_the_signal_as_zero():
    """Filters longer than the signal (P > N) still score: the lags past N,
    which no product reaches, read as zero, and the energy is that of the
    explicit np.convolve cut to N samples."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 50))
    h = rng.standard_normal((3, 2, 80))
    energy = _FilteredEnergy(x, 80)
    got = energy(np.fft.rfft(h, energy.nfft))
    for energy, taps in zip(got, h):
        z = sum(np.convolve(taps[c], x[c])[:50] for c in range(2))
        assert energy == pytest.approx(float(np.vdot(z, z)), rel=1e-10)


def test_row_scores_keep_the_metric_semantics():
    """The zero filter leaves e = p: 0 dB NR, SDI at its floor for the
    undelayed error-mic target, no effort, and the quality proxy of p
    against that target; silent noise gives inf NR, and a silent target
    raises as speech_distortion_index does."""
    rng = np.random.default_rng(3)
    h = rng.standard_normal((2, 3, 4))  # the speech's, then the noise's, responses at three microphones
    scene = Scene(h=h, g=np.array([0.0, 1.0, 0.5]), fs=16000, spatial_ref=0)
    sources = rng.standard_normal((2, 1024))
    mics = render_mics(scene, *sources)
    w = np.zeros((3, 5))

    def scores(sources, scene, mic):
        """The scores of 5-tap filters up to delay 6, from the sources' correlations over the lags they read."""
        return _RowScores(_FilteredEnergy(sources, _lag_span(scene, 7, 6)), sources, scene, 5, 6, mic)

    score = scores(sources, scene, -1)
    row = score(w, 0)
    assert isinstance(row, MetricBundle)
    assert row.nr_db == pytest.approx(0.0, abs=1e-9)
    assert row.sdi_db == SDI_FLOOR_DB
    assert row.effort == 0.0
    assert row.quality_db == pytest.approx(quality_proxy(mics.p_s, mics.p_s + mics.p_v), rel=1e-12)
    quiet = scores(np.stack([sources[0], np.zeros(1024)]), scene, -1)
    assert quiet(w, 0).nr_db == float("inf")
    h = h.copy()
    h[0, 0] = 0.0  # the speech response at microphone 0, the target
    silent = replace(scene, h=h)
    with pytest.raises(ValueError, match="zero energy"):
        scores(sources, silent, 0)(w, 0)
