import numpy as np
import pytest

from ssanc.convmat import build_conv_matrix, build_q
from ssanc.reir import estimate_reirs
from ssanc.scene import MicSignals, render_mics, synth_scene
from ssanc.signals import white_noise
from ssanc.simulate import apply_control, realize_target
from ssanc.solver import (
    DesignParams,
    build_constraint,
    design_control_filter,
    estimate_autocorrelation,
    input_frames,
)


def random_mics(rng, K=2, n=60):
    x_s, x_v = rng.standard_normal((K, n)), rng.standard_normal((K, n))
    p_s, p_v = rng.standard_normal(n), rng.standard_normal(n)
    return MicSignals(s=np.vstack([x_s, p_s]), v=np.vstack([x_v, p_v]))


def random_filter(rng, K=2, Lw=5):
    return rng.standard_normal((K + 1, Lw))


def test_zero_filter_passes_primary_through():
    rng = np.random.default_rng(0)
    mics = random_mics(rng)
    w = np.zeros((3, 4))
    run = apply_control(w, mics, [0.0, 1.0], "error_mic", 0, 0)
    np.testing.assert_array_equal(run.y, np.zeros(mics.N))
    np.testing.assert_array_equal(run.e, mics.p_s + mics.p_v)
    np.testing.assert_array_equal(run.e_v, mics.p_v)
    with pytest.raises(ValueError, match="shape"):
        apply_control(np.zeros((2, 4)), mics, [0.0, 1.0], "error_mic", 0, 0)


def test_streaming_matches_dense_stacked_form():
    """e(n) must equal the inner product of (q + G w) with the stacked input frame."""
    rng = np.random.default_rng(1)
    K, Lw, Lg, n = 2, 5, 4, 50
    L = Lg + Lw - 1
    mics = random_mics(rng, K=K, n=n)
    w = random_filter(rng, K=K, Lw=Lw)
    g = rng.standard_normal(Lg)
    run = apply_control(w, mics, g, "error_mic", 0, 0)

    Gt = np.kron(np.eye(K + 1), build_conv_matrix(g, Lw))
    u = build_q(K, L) + Gt @ w.ravel()
    x = mics.s[:K] + mics.v[:K]
    p = mics.p_s + mics.p_v
    for t in range(n):
        frame = []
        for k in range(K):
            hist = [x[k, t - i] if t - i >= 0 else 0.0 for i in range(L)]
            frame.extend(hist)
        frame.extend([p[t - i] if t - i >= 0 else 0.0 for i in range(L)])
        expected = float(u @ np.array(frame))
        assert run.e[t] == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("n, Lw, Lg", [(10000, 5, 4), (9000, 1, 1), (5000, 300, 280), (700, 6, 3)])
def test_blockwise_run_matches_direct_convolution(n, Lw, Lg):
    """Across block boundaries, and for one short block, as np.convolve gives it."""
    rng = np.random.default_rng(14)
    mics = random_mics(rng, K=2, n=n)
    w = random_filter(rng, K=2, Lw=Lw)
    g = rng.standard_normal(Lg)
    run = apply_control(w, mics, g, "error_mic", 0, 0)

    def drive(refs, primary):
        return sum(np.convolve(w[k], refs[k])[:n] for k in range(2)) + np.convolve(w[2], primary)[:n]

    y_s, y_v = drive(mics.s[:2], mics.p_s), drive(mics.v[:2], mics.p_v)
    np.testing.assert_allclose(run.y, y_s + y_v, rtol=0, atol=1e-12 * np.max(np.abs(y_s + y_v)))
    for got, p, y in ((run.e_s, mics.p_s, y_s), (run.e_v, mics.p_v, y_v)):
        want = p + np.convolve(g, y)[:n]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_component_split_is_exact_and_linear():
    rng = np.random.default_rng(2)
    mics = random_mics(rng)
    w = random_filter(rng)
    g = rng.standard_normal(4)
    run = apply_control(w, mics, g, "error_mic", 0, 0)
    np.testing.assert_array_equal(run.e, run.e_s + run.e_v)

    speech_only = MicSignals(s=mics.s, v=np.zeros_like(mics.v))
    noise_only = MicSignals(s=np.zeros_like(mics.s), v=mics.v)
    run_s = apply_control(w, speech_only, g, "error_mic", 0, 0)
    run_v = apply_control(w, noise_only, g, "error_mic", 0, 0)
    np.testing.assert_allclose(run.y, run_s.y + run_v.y, atol=1e-10)
    np.testing.assert_allclose(run.e, run_s.e + run_v.e, atol=1e-10)


def test_time_invariance():
    rng = np.random.default_rng(3)
    K, n, d = 1, 80, 7
    mics = random_mics(rng, K=K, n=n)
    w = random_filter(rng, K=K, Lw=4)
    g = rng.standard_normal(3)

    def delayed(a):
        out = np.zeros_like(a)
        out[..., d:] = a[..., :-d]
        return out

    mics_d = MicSignals(s=delayed(mics.s), v=delayed(mics.v))
    run = apply_control(w, mics, g, "error_mic", 0, 0)
    run_d = apply_control(w, mics_d, g, "error_mic", 0, 0)
    np.testing.assert_allclose(run_d.e[d:], run.e[: n - d], atol=1e-12)
    np.testing.assert_allclose(run_d.y[d:], run.y[: n - d], atol=1e-12)


def test_realize_target_kinds():
    rng = np.random.default_rng(4)
    mics = random_mics(rng, K=2, n=30)
    t_err = realize_target(mics, "error_mic", 3, 0)
    np.testing.assert_array_equal(t_err[3:], mics.p_s[:-3])
    assert not t_err[:3].any()
    t_ref = realize_target(mics, "reference_mic", 0, 1)
    np.testing.assert_array_equal(t_ref, mics.s[1])
    with pytest.raises(ValueError):
        realize_target(mics, "loudspeaker", 0, 0)


def test_zero_action_filter_leaves_speech_untouched():
    scene = synth_scene(
        K=2, speech_delays=[2, 3, 4], noise_delays=[4, 1, 3],
        gains=[(1.0, 0.7), (0.8, 1.0), (0.6, 0.8)],
        sec_delay=1, sec_ir_len=6, fs=16000, seed=0,
    )
    reirs = estimate_reirs(scene, white_noise(8000, 1), 8)
    mics = render_mics(scene, white_noise(8000, 2))  # desired only
    Lw, Lg = 8, 6
    L = Lg + Lw - 1
    phi_xx = estimate_autocorrelation(input_frames(mics, L))
    constraint = build_constraint(reirs, [1.0], "error_mic", 0, Lw, Lg)
    res = design_control_filter(phi_xx, scene.g, constraint, DesignParams(), scene.K, Lw)
    run = apply_control(res.filter, mics, scene.g, target_kind="error_mic", delta=0, spatial_ref=0)
    rel = np.linalg.norm(run.e - mics.p_s) / np.linalg.norm(mics.p_s)
    assert rel <= 1e-3


def test_export_run_wavs(tmp_path):
    rng = np.random.default_rng(13)
    mics = random_mics(rng, K=1, n=40)
    w = random_filter(rng, K=1, Lw=3)
    run = apply_control(w, mics, [0.0, 1.0], target_kind="error_mic", delta=0, spatial_ref=0)
    from ssanc.simulate import export_run_wavs

    export_run_wavs(run, tmp_path, fs=16000)
    for name in ("y", "e", "e_s", "e_v", "t"):
        assert (tmp_path / f"{name}.wav").exists()
