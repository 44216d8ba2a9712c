import numpy as np
import pytest
import scipy.linalg

from ssanc.convmat import unit_pulse
from ssanc.reir import (
    ReIRSet,
    design_min_phase_highpass,
    estimate_reirs,
    load_reirs_json,
    load_reirs_wav,
    save_reirs_json,
    save_reirs_wav,
)
from ssanc.scene import render_mics, synth_scene
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
    mics = render_mics(scene, white_noise(n, seed))
    return estimate_reirs(mics, scene.spatial_ref, Lh, reg=reg)


def test_pure_delay_scene_recovers_gain_and_delay():
    scene = pure_delay_scene()
    reirs = estimate_from_scene(scene)
    gains = [1.0, 0.8, 0.5, 0.6]
    delays = [2, 5, 9, 6]
    for k in range(4):
        expected = (gains[k] / gains[0]) * unit_pulse(delays[k] - delays[0], reirs.Lh)
        assert np.linalg.norm(reirs.h[k] - expected) <= 1e-6


def test_self_reir_is_identity():
    scene = pure_delay_scene(seed=2)
    reirs = estimate_from_scene(scene, seed=3)
    np.testing.assert_allclose(
        reirs.h[scene.spatial_ref], unit_pulse(0, reirs.Lh), atol=1e-8
    )


def test_reirs_reconstruct_error_mic_speech():
    scene = pure_delay_scene(seed=4)
    mics = render_mics(scene, white_noise(20000, 5))
    reirs = estimate_reirs(mics, scene.spatial_ref, 24)
    recon = np.convolve(reirs.h[-1], mics.x_s[scene.spatial_ref])[: mics.N]
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
    ref = mics.x_s[spatial_ref]
    frames = np.lib.stride_tricks.sliding_window_view(ref, Lh)[:, ::-1]
    targets = np.vstack([mics.x_s, mics.p_s[None, :]])[:, Lh - 1 :]
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
    mics = render_mics(scene, white_noise(20000, 1))
    reirs = estimate_reirs(mics, scene.spatial_ref, 24)
    h, residuals = explicit_frames_reirs(mics, scene.spatial_ref, 24)
    others = np.arange(4) != scene.spatial_ref
    assert np.all((residuals[others] > 0.25) & (residuals[others] < 0.5))
    assert np.max(np.abs(reirs.h - h)) <= 1e-10 * np.max(np.abs(h))
    np.testing.assert_allclose(reirs.residuals, residuals, rtol=0, atol=1e-10)


def test_rejects_noisy_rendering():
    scene = pure_delay_scene()
    mics = render_mics(scene, white_noise(8000, 8), white_noise(8000, 9), snr_db=0.0)
    with pytest.raises(ValueError, match="desired-only"):
        estimate_reirs(mics, scene.spatial_ref, 16)


def test_rejects_bad_spatial_ref():
    scene = pure_delay_scene()
    mics = render_mics(scene, white_noise(8000, 10))
    with pytest.raises(ValueError, match="spatial_ref"):
        estimate_reirs(mics, 3, 16)  # error channel is not a reference


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


def test_highpass_rejects_bad_args():
    with pytest.raises(ValueError):
        design_min_phase_highpass(9000.0, 16000.0, 64)
    with pytest.raises(ValueError):
        design_min_phase_highpass(120.0, 16000.0, 4)


def test_identity_weighting_passes_through_builders():
    from ssanc.solver import build_constraint

    reirs = ReIRSet(h=np.eye(2, 6), spatial_ref=0)
    c = build_constraint(reirs, [1.0], "error_mic", 0, Lw=4, Lg=3)
    assert c.psi.shape == (1,)


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------


def test_reir_json_round_trip(tmp_path):
    reirs = ReIRSet(h=np.random.default_rng(0).standard_normal((3, 8)), spatial_ref=1)
    save_reirs_json(reirs, tmp_path / "h.json")
    back = load_reirs_json(tmp_path / "h.json")
    np.testing.assert_array_equal(back.h, reirs.h)
    assert back.spatial_ref == 1


def test_reir_wav_round_trip(tmp_path):
    reirs = ReIRSet(h=np.random.default_rng(1).standard_normal((3, 8)), spatial_ref=2)
    save_reirs_wav(reirs, tmp_path / "h.wav", fs=16000)
    back = load_reirs_wav(tmp_path / "h.wav", spatial_ref=2)
    np.testing.assert_array_equal(back.h, reirs.h)
