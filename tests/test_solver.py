import numpy as np
import pytest

from ssanc.convmat import build_conv_matrix, build_q, block_diag_secondary
from ssanc.reir import ReIRSet, estimate_reirs
from ssanc.scene import MicSignals, render_mics, synth_scene
from ssanc.signals import white_noise
from ssanc.solver import (
    Constraint,
    ConvergenceError,
    DesignParams,
    InfeasibleConstraintError,
    build_constraint,
    design_control_filter,
    estimate_autocorrelation,
    input_frames,
    kkt_oracle,
    largest_eigenvalue,
    stacked_frames,
)


def random_psd(dim, rng, extra=4):
    B = rng.standard_normal((dim, dim + extra))
    return B @ B.T / (dim + extra)


def random_instance(rng, K=None, Lw=None, Lg=None, Lh=None):
    """Random small design instance with a feasible equality constraint."""
    K = K or int(rng.integers(1, 3))
    Lw = Lw or int(rng.integers(3, 7))
    Lg = Lg or int(rng.integers(3, 7))
    Lh = Lh or int(rng.integers(3, 7))
    L = Lg + Lw - 1
    phi_xx = random_psd((K + 1) * L, rng)
    g = rng.standard_normal(Lg)
    reirs = ReIRSet(h=rng.standard_normal((K + 1, Lh)), spatial_ref=0)
    base = build_constraint(reirs, [1.0], "error_mic", 0, Lw, Lg)
    Gt = block_diag_secondary(build_conv_matrix(g, Lw), K)
    q = build_q(K, L).flat
    w0 = rng.standard_normal((K + 1) * Lw)
    feasible = Constraint(
        H=base.H, f=base.H.T @ (q + Gt @ w0), target_kind="error_mic", delta=0, psi=base.psi
    )
    return phi_xx, g, feasible, K, Lw, Gt, q


def objective(phi_xx, Gt, q, beta, w):
    u = q + Gt @ w
    return float(u @ phi_xx @ u + beta * w @ w)


# ---------------------------------------------------------------------------
# autocorrelation estimation
# ---------------------------------------------------------------------------


def test_autocorrelation_single_frame_is_outer_product():
    x = np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(estimate_autocorrelation(x[None, :]), np.outer(x, x), atol=1e-15)


def test_autocorrelation_white_noise_near_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(60000)
    frames = np.lib.stride_tricks.sliding_window_view(x, 8)
    phi = estimate_autocorrelation(np.array(frames))
    assert np.all(np.abs(np.diag(phi) - 1.0) < 0.1)
    off = phi - np.diag(np.diag(phi))
    assert np.max(np.abs(off)) < 0.1


def test_autocorrelation_symmetric_psd():
    rng = np.random.default_rng(1)
    frames = rng.standard_normal((50, 12))
    phi = estimate_autocorrelation(frames)
    np.testing.assert_array_equal(phi, phi.T)
    assert np.min(np.linalg.eigvalsh(phi)) >= -1e-12


def test_autocorrelation_accepts_chunks():
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((100, 6))
    whole = estimate_autocorrelation(frames)
    chunked = estimate_autocorrelation(iter([frames[:33], frames[33:70], frames[70:]]))
    np.testing.assert_allclose(chunked, whole, atol=1e-12)


def test_autocorrelation_rejects_inconsistent_lengths():
    with pytest.raises(ValueError, match="inconsistent"):
        estimate_autocorrelation(iter([np.ones((2, 4)), np.ones((2, 5))]))
    with pytest.raises(ValueError, match="at least one"):
        estimate_autocorrelation(iter([]))


def test_stacked_frames_layout_and_width():
    K, Lg, Lw = 4, 3, 3
    L = Lg + Lw - 1
    n = 40
    chans = [np.arange(n, dtype=float) + 100 * k for k in range(K + 1)]
    frames = np.vstack(list(stacked_frames(chans, L, block=7)))
    assert frames.shape == (n - L + 1, (K + 1) * L)
    # frame 0 corresponds to n = L-1; channel k block holds its reversed history
    np.testing.assert_array_equal(frames[0, :L], chans[0][L - 1 :: -1])
    np.testing.assert_array_equal(frames[0, K * L :], chans[K][L - 1 :: -1])
    np.testing.assert_array_equal(frames[5, :L], chans[0][L - 1 + 5 : 5 - 1 if 5 > 0 else None : -1])


def test_input_frames_uses_observed_mix():
    scene = synth_scene(
        K=1, speech_delays=[0, 1], noise_delays=[1, 0], gains=[(1, 1), (1, 1)],
        sec_delay=1, sec_ir_len=3, fs=16000, seed=0,
    )
    mics = render_mics(scene, white_noise(100, 1), white_noise(100, 2), snr_db=0.0)
    L = 4
    frames = np.vstack(list(input_frames(mics, L)))
    x0 = mics.x[0]
    np.testing.assert_array_equal(frames[0, :L], x0[L - 1 :: -1])
    np.testing.assert_array_equal(frames[0, L:], mics.p[L - 1 :: -1])


def random_mics(K, N, seed):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 10.0, size=(K, 1))
    return MicSignals(
        x_s=scale * rng.standard_normal((K, N)),
        x_v=rng.standard_normal((K, N)),
        p_s=rng.standard_normal(N),
        p_v=3.0 * rng.standard_normal(N),
    )


def assert_structural_matches_frames(K, L, N, seed):
    frames = input_frames(random_mics(K, N, seed), L)
    phi = estimate_autocorrelation(frames)
    oracle = estimate_autocorrelation(np.vstack(list(frames)))
    assert phi.shape == oracle.shape == ((K + 1) * L, (K + 1) * L)
    assert np.max(np.abs(phi - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    np.testing.assert_array_equal(phi, phi.T)


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("L", [1, 2, 5, 17])
@pytest.mark.parametrize("length", ["L", "L+1", "3L", "1000"])
def test_structural_autocorrelation_matches_frame_product(K, L, length):
    N = {"L": L, "L+1": L + 1, "3L": 3 * L, "1000": 1000}[length]
    assert_structural_matches_frames(K, L, N, seed=10 * K + L)


def test_structural_autocorrelation_at_paper_dimension():
    L = 280 + 280 - 1
    assert_structural_matches_frames(4, L, L + 200, seed=5)


def test_input_frames_rejects_short_signals():
    with pytest.raises(ValueError, match="shorter than frame history"):
        input_frames(random_mics(1, 4, 0), 5)


# ---------------------------------------------------------------------------
# constraint assembly
# ---------------------------------------------------------------------------


def test_constraint_dimensions():
    rng = np.random.default_rng(3)
    K, Lw, Lg, Lh = 2, 5, 4, 3
    L = Lg + Lw - 1
    reirs = ReIRSet(h=rng.standard_normal((K + 1, Lh)), spatial_ref=0)
    c = build_constraint(reirs, [1.0], "error_mic", 0, Lw, Lg)
    assert c.H.shape == ((K + 1) * L, Lh + L - 1)
    assert c.f.shape == (Lh + L - 1,)


def test_zero_action_constraint_is_satisfied_by_zero_filter():
    rng = np.random.default_rng(4)
    K, Lw, Lg, Lh = 2, 6, 4, 5
    L = Lg + Lw - 1
    reirs = ReIRSet(h=rng.standard_normal((K + 1, Lh)), spatial_ref=0)
    c = build_constraint(reirs, [1.0], "error_mic", 0, Lw, Lg)
    q = build_q(K, L).flat
    np.testing.assert_array_equal(c.H.T @ q, c.f)


def test_constraint_apply_matches_per_channel_convolutions():
    rng = np.random.default_rng(5)
    K, Lw, Lg, Lh = 3, 4, 3, 5
    L = Lg + Lw - 1
    reirs = ReIRSet(h=rng.standard_normal((K + 1, Lh)), spatial_ref=0)
    c = build_constraint(reirs, [1.0], "error_mic", 0, Lw, Lg)
    u = rng.standard_normal((K + 1) * L)
    expected = sum(np.convolve(reirs.h[k], u[k * L : (k + 1) * L]) for k in range(K + 1))
    np.testing.assert_allclose(c.H.T @ u, expected, atol=1e-12)


def test_reference_target_pulse_position_and_weighting():
    rng = np.random.default_rng(6)
    reirs = ReIRSet(h=rng.standard_normal((2, 6)), spatial_ref=0)
    c = build_constraint(reirs, [1.0], "reference_mic", 3, Lw=4, Lg=3)
    expected = np.zeros(6 + 6 - 1)
    expected[3] = 1.0
    np.testing.assert_array_equal(c.f, expected)
    psi = rng.standard_normal(4)
    cw = build_constraint(reirs, psi, "reference_mic", 3, Lw=4, Lg=3)
    np.testing.assert_allclose(cw.f[3:7], psi, atol=1e-15)


def test_reference_target_half_filter_length_convention():
    # the classic choice: delay = Lw/2 with paper-scale tap counts
    rng = np.random.default_rng(7)
    Lw = Lg = Lh = 280
    reirs = ReIRSet(h=rng.standard_normal((2, Lh)), spatial_ref=0)
    c = build_constraint(reirs, [1.0], "reference_mic", Lw // 2, Lw, Lg)
    assert c.f[140] == 1.0 and np.count_nonzero(c.f) == 1
    assert c.H.shape == (2 * 559, 838)


def test_error_target_delay_shifts_reir():
    rng = np.random.default_rng(8)
    reirs = ReIRSet(h=rng.standard_normal((2, 5)), spatial_ref=0)
    c = build_constraint(reirs, [1.0], "error_mic", 2, Lw=4, Lg=4)
    L = 4 + 4 - 1
    expected = np.zeros(5 + L - 1)
    expected[2:7] = reirs.h[-1]
    np.testing.assert_array_equal(c.f, expected)


def test_constraint_delay_bounds():
    rng = np.random.default_rng(9)
    reirs = ReIRSet(h=rng.standard_normal((2, 5)), spatial_ref=0)
    with pytest.raises(ValueError, match="delay"):
        build_constraint(reirs, [1.0], "reference_mic", 5, Lw=4, Lg=4)
    with pytest.raises(ValueError, match="delay"):
        build_constraint(reirs, [1.0], "error_mic", 7, Lw=4, Lg=4)  # L-1 = 6 is the bound
    build_constraint(reirs, [1.0], "error_mic", 6, Lw=4, Lg=4)  # boundary is valid
    with pytest.raises(ValueError, match="delay"):
        build_constraint(reirs, [1.0], "error_mic", -1, Lw=4, Lg=4)


def test_constraint_rejects_long_psi():
    reirs = ReIRSet(h=np.eye(2, 5), spatial_ref=0)
    with pytest.raises(ValueError, match="psi"):
        build_constraint(reirs, np.ones(8), "error_mic", 0, Lw=4, Lg=4)


# ---------------------------------------------------------------------------
# largest eigenvalue
# ---------------------------------------------------------------------------


def test_largest_eigenvalue_diagonal():
    assert largest_eigenvalue(np.diag([3.0, 1.0, 2.0])) == pytest.approx(3.0, abs=1e-8)


def test_largest_eigenvalue_matches_dense_solver():
    rng = np.random.default_rng(10)
    for _ in range(20):
        A = random_psd(20, rng)
        lam = largest_eigenvalue(A, tol=1e-12)
        lam_ref = float(np.linalg.eigvalsh(A)[-1])
        assert lam == pytest.approx(lam_ref, rel=1e-6)


def test_largest_eigenvalue_zero_matrix():
    assert largest_eigenvalue(np.zeros((4, 4))) == 0.0


def test_largest_eigenvalue_nonconvergence_carries_estimate():
    A = np.diag([1.0, 1.0 - 1e-12, 0.5])
    with pytest.raises(ConvergenceError) as err:
        largest_eigenvalue(A + 1e-13 * np.ones((3, 3)), tol=1e-16, max_iter=3)
    assert err.value.best_estimate > 0.0


def test_largest_eigenvalue_rejects_bad_input():
    with pytest.raises(ValueError):
        largest_eigenvalue(np.ones((2, 3)))
    with pytest.raises(ValueError):
        largest_eigenvalue(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# closed form vs KKT oracle
# ---------------------------------------------------------------------------


def test_design_matches_kkt_oracle_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(20):
        phi_xx, g, constraint, K, Lw, _, _ = random_instance(rng)
        res = design_control_filter(phi_xx, g, constraint, DesignParams(rho=0.0), K, Lw)
        oracle = kkt_oracle(phi_xx, g, constraint, res.beta, K, Lw)
        gap = np.linalg.norm(res.filter.stacked - oracle.stacked)
        assert gap <= 1e-8 * max(np.linalg.norm(oracle.stacked), 1e-12)
        assert res.constraint_residual <= 1e-8


def test_kkt_solution_beats_feasible_perturbations():
    rng = np.random.default_rng(12)
    phi_xx, g, constraint, K, Lw, Gt, q = random_instance(rng, K=2, Lw=4, Lg=3, Lh=3)
    beta = largest_eigenvalue(Gt.T @ phi_xx @ Gt) / 500.0
    w_star = kkt_oracle(phi_xx, g, constraint, beta, K, Lw).stacked
    j_star = objective(phi_xx, Gt, q, beta, w_star)

    C = constraint.H.T @ Gt
    import scipy.linalg

    Z = scipy.linalg.null_space(C)
    assert Z.shape[1] > 0
    for _ in range(100):
        dw = Z @ rng.standard_normal(Z.shape[1]) * 0.3
        assert j_star <= objective(phi_xx, Gt, q, beta, w_star + dw) + 1e-10


def test_kkt_unconstrained_limit_is_ridge_solution():
    rng = np.random.default_rng(13)
    K, Lw, Lg = 2, 4, 3
    L = Lg + Lw - 1
    phi_xx = random_psd((K + 1) * L, rng)
    g = rng.standard_normal(Lg)
    beta = 0.05
    w = kkt_oracle(phi_xx, g, None, beta, K, Lw).stacked
    Gt = block_diag_secondary(build_conv_matrix(g, Lw), K)
    q = build_q(K, L).flat
    ridge = np.linalg.solve(
        Gt.T @ phi_xx @ Gt + beta * np.eye((K + 1) * Lw), -Gt.T @ phi_xx @ q
    )
    np.testing.assert_allclose(w, ridge, atol=1e-10)


def test_kkt_zero_action_case():
    rng = np.random.default_rng(14)
    K, Lw, Lg, Lh = 1, 4, 3, 3
    L = Lg + Lw - 1
    phi_xx = random_psd((K + 1) * L, rng)
    g = rng.standard_normal(Lg)
    reirs = ReIRSet(h=rng.standard_normal((K + 1, Lh)), spatial_ref=0)
    constraint = build_constraint(reirs, [1.0], "error_mic", 0, Lw, Lg)
    # with f = H'q the feasible set contains w = 0, but the KKT minimizer
    # generally is not 0 unless the cost is constant on the feasible set;
    # here we only check the constraint itself holds at the solution
    w = kkt_oracle(phi_xx, g, constraint, 0.1, K, Lw).stacked
    C = constraint.H.T @ block_diag_secondary(build_conv_matrix(g, Lw), K)
    v = constraint.f - constraint.H.T @ build_q(K, L).flat
    assert np.linalg.norm(C @ w - v) <= 1e-8


def test_kkt_detects_infeasible_constraints():
    rng = np.random.default_rng(15)
    phi_xx, g, constraint, K, Lw, _, _ = random_instance(rng, K=1, Lw=4, Lg=4, Lh=4)
    bad = Constraint(
        H=constraint.H,
        f=constraint.f + rng.standard_normal(constraint.f.shape),
        target_kind=constraint.target_kind,
        delta=0,
        psi=constraint.psi,
    )
    with pytest.raises(InfeasibleConstraintError):
        kkt_oracle(phi_xx, g, bad, 0.1, K, Lw)


def test_design_params_validation():
    with pytest.raises(ValueError):
        DesignParams(beta=0.0)
    with pytest.raises(ValueError):
        DesignParams(rho=-1.0)
    with pytest.raises(ValueError):
        DesignParams(beta_div=0.0)


def test_design_rejects_mismatched_dimensions():
    rng = np.random.default_rng(16)
    phi_xx, g, constraint, K, Lw, _, _ = random_instance(rng, K=1, Lw=4, Lg=3, Lh=3)
    with pytest.raises(ValueError, match="phi_xx"):
        design_control_filter(phi_xx[:-1, :-1], g, constraint, DesignParams(), K, Lw)


# ---------------------------------------------------------------------------
# end-to-end design properties on synthetic scenes
# ---------------------------------------------------------------------------


def small_noisy_pipeline(seed=0, n=8000, Lw=8, Lg=6, Lh=8, snr_db=-5.0):
    scene = synth_scene(
        K=2, speech_delays=[2, 3, 4], noise_delays=[4, 1, 3],
        gains=[(1.0, 0.7), (0.8, 1.0), (0.6, 0.8)],
        sec_delay=1, sec_ir_len=Lg, fs=16000, seed=seed,
    )
    white = white_noise(n, seed + 100)
    reirs = estimate_reirs(render_mics(scene, white), scene.spatial_ref, Lh)
    speech = white_noise(n, seed + 200)
    noise = white_noise(n, seed + 300)
    mics = render_mics(scene, speech, noise, snr_db)
    L = Lg + Lw - 1
    phi_xx = estimate_autocorrelation(input_frames(mics, L))
    return scene, mics, reirs, phi_xx, Lw, Lg


def test_zero_action_design_on_desired_only_scene():
    scene, _, reirs, _, Lw, Lg = small_noisy_pipeline()
    # desired-only rendering: same scene, no noise source
    mics = render_mics(scene, white_noise(8000, 7))
    L = Lg + Lw - 1
    phi_xx = estimate_autocorrelation(input_frames(mics, L))
    constraint = build_constraint(reirs, [1.0], "error_mic", 0, Lw, Lg)
    res = design_control_filter(phi_xx, scene.g, constraint, DesignParams(rho=0.0), scene.K, Lw)
    q_norm = 1.0  # ||q||_2
    assert np.linalg.norm(res.filter.stacked, np.inf) <= 1e-6 * q_norm


def test_effort_nonincreasing_in_beta():
    from ssanc.simulate import apply_control

    scene, mics, reirs, phi_xx, Lw, Lg = small_noisy_pipeline(seed=1)
    constraint = build_constraint(reirs, [1.0], "error_mic", 0, Lw, Lg)
    efforts = []
    for beta in (1e-4, 1e-2, 1.0):
        res = design_control_filter(
            phi_xx, scene.g, constraint, DesignParams(beta=beta, rho=1e-8), scene.K, Lw
        )
        run = apply_control(res.filter, mics, scene.g)
        efforts.append(float(np.sum(run.y**2)))
    assert efforts[0] >= efforts[1] >= efforts[2]


def test_constraint_residual_reported_with_rho_rule():
    scene, mics, reirs, phi_xx, Lw, Lg = small_noisy_pipeline(seed=2)
    constraint = build_constraint(reirs, [1.0], "error_mic", 2, Lw, Lg)
    res = design_control_filter(phi_xx, scene.g, constraint, DesignParams(), scene.K, Lw)
    assert np.isfinite(res.constraint_residual)
    assert res.rho > 0.0 and res.beta > 0.0
    assert np.isfinite(res.predicted_error_power)


def test_design_scale_invariance_with_divisor_rules():
    from ssanc.scene import MicSignals

    scene, mics, reirs, phi_xx, Lw, Lg = small_noisy_pipeline(seed=3)
    constraint = build_constraint(reirs, [1.0], "error_mic", 1, Lw, Lg)
    res1 = design_control_filter(phi_xx, scene.g, constraint, DesignParams(), scene.K, Lw)

    scaled = MicSignals(x_s=10 * mics.x_s, x_v=10 * mics.x_v, p_s=10 * mics.p_s, p_v=10 * mics.p_v)
    L = Lg + Lw - 1
    phi_scaled = estimate_autocorrelation(input_frames(scaled, L))
    res2 = design_control_filter(phi_scaled, scene.g, constraint, DesignParams(), scene.K, Lw)

    num = np.linalg.norm(res2.filter.stacked - res1.filter.stacked)
    den = np.linalg.norm(res1.filter.stacked)
    assert num <= 1e-9 * den
    assert res2.beta == pytest.approx(100.0 * res1.beta, rel=1e-9)


def test_stacked_frame_width_at_full_scale_dimensions():
    # K = 4 reference mics with 280-tap secondary path and control filters
    K, Lg, Lw = 4, 280, 280
    L = Lg + Lw - 1
    chans = [np.zeros(L + 40) for _ in range(K + 1)]
    frames = next(stacked_frames(chans, L))
    assert frames.shape[1] == (K + 1) * L == 2795


def test_filter_wav_export(tmp_path):
    from ssanc import wavio
    from ssanc.solver import ControlFilter, save_filter_wav

    flt = ControlFilter(w=np.random.default_rng(0).standard_normal((3, 16)))
    save_filter_wav(flt, tmp_path / "w.wav", fs=16000)
    fs, data = wavio.read_wav(tmp_path / "w.wav")
    assert fs == 16000
    np.testing.assert_array_equal(data.T, flt.w)
