from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ssanc.metrics import QUALITY_FRAME
from ssanc.reir import ReIRSet, design_min_phase_highpass, estimate_reirs
from ssanc.scene import Scene, render_mics, synth_scene
from ssanc.signals import white_noise


def pure_delay_scene(seed=0):
    # spatial ref (mic 0) has the smallest speech delay
    return synth_scene(
        K=3,
        speech_delays=[2, 5, 9, 6],
        noise_delays=[4, 1, 3, 2],
        gains=[(1.0, 0.5), (0.8, 1.0), (0.5, 0.7), (0.6, 0.9)],
        sec_delay=1,
        sec_ir_len=8,
        fs=16000,
        seed=seed,
    )


def estimate_from_scene(scene, Lh=24, n=20000, seed=1, reg=None):
    return estimate_reirs(scene, white_noise(n, seed), Lh, reg=reg)


def test_pure_delay_scene_recovers_gain_and_delay():
    scene = pure_delay_scene()
    reirs = estimate_from_scene(scene)
    gains = [1.0, 0.8, 0.5, 0.6]
    delays = [2, 5, 9, 6]
    for k in range(4):
        expected = (gains[k] / gains[0]) * np.eye(1, reirs.Lh, delays[k] - delays[0])[0]
        assert np.linalg.norm(reirs.h[k] - expected) <= 1e-6


def test_self_reir_is_identity():
    scene = pure_delay_scene(seed=2)
    reirs = estimate_from_scene(scene, seed=3)
    np.testing.assert_allclose(
        reirs.h[scene.spatial_ref], np.eye(1, reirs.Lh)[0], atol=1e-8
    )


def test_reirs_reconstruct_error_mic_speech():
    scene = pure_delay_scene(seed=4)
    white = white_noise(20000, 5)
    mics = render_mics(scene, white)
    reirs = estimate_reirs(scene, white, 24)
    recon = np.convolve(reirs.h[-1], mics.s[scene.spatial_ref])[: mics.N]
    rel = np.linalg.norm(recon - mics.p_s) / np.linalg.norm(mics.p_s)
    assert 20 * np.log10(rel) <= -40.0


def test_residuals_reported_per_channel():
    scene = pure_delay_scene(seed=6)
    reirs = estimate_from_scene(scene, seed=7)
    assert reirs.residuals is not None
    assert reirs.residuals.shape == (4,)
    assert np.all(reirs.residuals < 1e-5)


def explicit_frames_reirs(mics, spatial_ref, Lh):
    """Ridge regression on the explicit N x Lh regressor rows (the reference form)."""
    ref = mics.s[spatial_ref]
    frames = np.lib.stride_tricks.sliding_window_view(ref, Lh)[:, ::-1]
    targets = mics.s[:, Lh - 1 :]
    R = frames.T @ frames
    reg = 1e-8 * float(np.mean(np.diag(R)))
    cho = scipy.linalg.cho_factor(R + reg * np.eye(Lh))
    h = scipy.linalg.cho_solve(cho, frames.T @ targets.T).T
    fit = frames @ h.T
    denom = np.sqrt(np.mean(targets**2, axis=1))
    residuals = np.sqrt(np.mean((targets.T - fit) ** 2, axis=0)) / denom
    return h, residuals


def test_structural_estimate_matches_explicit_frames_on_reverberant_scene():
    scene = synth_scene(
        K=3,
        speech_delays=[2, 5, 9, 6],
        noise_delays=[4, 1, 3, 2],
        gains=[(1.0, 0.5), (0.8, 1.0), (0.5, 0.7), (0.6, 0.9)],
        sec_delay=1,
        sec_ir_len=8,
        fs=16000,
        seed=0,
        tail_amp=0.3,
        tail_decay=12.0,
    )
    white = white_noise(20000, 1)
    mics = render_mics(scene, white)
    reirs = estimate_reirs(scene, white, 24)
    h, residuals = explicit_frames_reirs(mics, scene.spatial_ref, 24)
    others = np.arange(4) != scene.spatial_ref
    assert np.all((residuals[others] > 0.25) & (residuals[others] < 0.5))
    assert np.max(np.abs(reirs.h - h)) <= 1e-10 * np.max(np.abs(h))
    np.testing.assert_allclose(reirs.residuals, residuals, rtol=0, atol=1e-10)


def test_rejects_a_source_too_short_for_the_fit():
    scene = pure_delay_scene()
    with pytest.raises(ValueError, match="need N >> Lh"):
        estimate_reirs(scene, white_noise(63, 8), 16)


def test_rejects_bad_spatial_ref():
    scene = pure_delay_scene()
    with pytest.raises(ValueError, match="spatial_ref"):
        # the error channel is not a reference
        estimate_reirs(replace(scene, spatial_ref=3), white_noise(8000, 10), 16)


def test_silent_reference_channel_is_singular():
    scene = pure_delay_scene()
    h = scene.h.copy()
    h[0, scene.spatial_ref] = 0.0
    silent = replace(scene, h=h)
    with pytest.raises(np.linalg.LinAlgError, match="singular ReIR normal equations"):
        estimate_reirs(silent, white_noise(8000, 13), 16)


@st.composite
def fit_cases(draw):
    """A scene of K+1 speech responses of unequal lengths, Lh and a source length N
    from the shortest that ``sweep._check_signal_length`` admits: one quality
    frame, 4 Lh and one sample more than the longest response.  Responses as
    long as N reach lags of the source past its end (Lir + Lh - 1 > N)."""
    K = draw(st.integers(1, 4))
    Lh = draw(st.integers(1, 40))
    lengths = draw(st.lists(st.integers(1, 700), min_size=K + 1, max_size=K + 1))
    spatial_ref = draw(st.integers(0, K - 1))
    seed = draw(st.integers(0, 2**16))
    shortest = max(QUALITY_FRAME, 4 * Lh, max(lengths) + 1)
    N = draw(st.integers(shortest, shortest + 2000) | st.just(shortest))
    rng = np.random.default_rng(seed)
    irs = [rng.standard_normal(length) * np.exp(-np.arange(length) / 50.0) for length in lengths]
    # the reference's leading tap dominates, so its normal matrix stays well conditioned
    irs[spatial_ref][0] = 4.0 * np.sqrt(np.sum(irs[spatial_ref][1:] ** 2)) + 1.0
    h = np.zeros((K + 1, max(lengths)))
    for row, ir in zip(h, irs):
        row[: ir.shape[0]] = ir
    scene = Scene(h=np.stack([h, h]), g=np.ones(1), fs=16000, spatial_ref=spatial_ref)
    return scene, Lh, white_noise(N, seed)


@settings(max_examples=60, deadline=None)
@given(case=fit_cases())
def test_fit_matches_explicit_frames_on_any_scene(case):
    """The correlation-domain fit equals the ridge regression on the explicit
    frames of the rendering, for any K, response lengths, Lh and N."""
    scene, Lh, white = case
    reirs = estimate_reirs(scene, white, Lh)
    h, residuals = explicit_frames_reirs(render_mics(scene, white), scene.spatial_ref, Lh)
    assert np.max(np.abs(reirs.h - h)) <= 1e-10 * np.max(np.abs(h))
    np.testing.assert_allclose(reirs.residuals, residuals, rtol=0, atol=1e-10)


def test_estimation_deterministic():
    scene = pure_delay_scene(seed=11)
    a = estimate_from_scene(scene, seed=12)
    b = estimate_from_scene(scene, seed=12)
    np.testing.assert_array_equal(a.h, b.h)


# ---------------------------------------------------------------------------
# spectral-weighting prototype
# ---------------------------------------------------------------------------


def test_highpass_magnitude_at_desk_points():
    fs, cutoff = 16000.0, 120.0
    psi = design_min_phase_highpass(cutoff, fs, 559)
    nfft = 1 << 16
    freqs = np.fft.rfftfreq(nfft, 1.0 / fs)
    mag = np.abs(np.fft.rfft(psi, nfft))
    assert mag[0] <= 0.1  # at least 20 dB down at DC
    band = mag[freqs >= 180.0]
    assert band.min() >= 0.89 and band.max() <= 1.12


def test_highpass_tracks_prototype_above_transition():
    from scipy.signal import firwin

    fs, cutoff, length = 16000.0, 120.0, 281
    psi = design_min_phase_highpass(cutoff, fs, length)
    proto = firwin(length, cutoff, pass_zero=False, fs=fs)
    nfft = 1 << 16
    freqs = np.fft.rfftfreq(nfft, 1.0 / fs)
    mag_psi = np.abs(np.fft.rfft(psi, nfft))
    mag_proto = np.abs(np.fft.rfft(proto, nfft))
    sel = freqs >= 1.5 * cutoff
    dev_db = 20 * np.log10(mag_psi[sel] / mag_proto[sel])
    assert np.max(np.abs(dev_db)) <= 1.0


def test_highpass_energy_concentration():
    from scipy.signal import firwin

    fs, cutoff, length = 16000.0, 120.0, 280
    psi = design_min_phase_highpass(cutoff, fs, length)
    m = length - 1  # prototype length used for even requests
    proto = np.zeros(length)
    proto[:m] = firwin(m, cutoff, pass_zero=False, fs=fs)
    partial_min = np.cumsum(psi**2)
    partial_lin = np.cumsum(proto**2)
    assert np.all(partial_min + 1e-9 >= partial_lin)
    # and the min-phase version is massively front-loaded at short prefixes
    assert partial_min[8] > 100 * partial_lin[8]


@pytest.mark.parametrize("length", [15, 95, 280, 281, 559])
def test_highpass_matches_scipy_minimum_phase(length):
    # (m - 1) / 2 is odd for m = 15, 95, 279 and 559 and even for m = 281
    from scipy.signal import firwin, minimum_phase

    fs, cutoff = 16000.0, 120.0
    m = length if length % 2 == 1 else length - 1
    proto = firwin(m, cutoff, pass_zero=False, fs=fs)
    ref = minimum_phase(proto, method="homomorphic", half=False)
    ref = ref * np.sqrt(np.sum(proto**2) / np.sum(ref**2))
    psi = design_min_phase_highpass(cutoff, fs, length)
    np.testing.assert_allclose(psi[:m], ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
    assert np.all(psi[m:] == 0.0)


def test_highpass_rejects_bad_args():
    with pytest.raises(ValueError):
        design_min_phase_highpass(9000.0, 16000.0, 64)
    with pytest.raises(ValueError):
        design_min_phase_highpass(120.0, 16000.0, 4)


def test_identity_weighting_passes_through_builders():
    from ssanc.solver import build_constraint

    reirs = ReIRSet(h=np.eye(2, 6), spatial_ref=0)
    c = build_constraint(reirs, [1.0], "error_mic", 0, Lw=4, Lg=3)
    # unweighted error-mic target at delay 0: the error-mic ReIR itself, zero-padded
    np.testing.assert_array_equal(c.f, np.concatenate([reirs.h[-1], np.zeros(c.f.size - 6)]))
