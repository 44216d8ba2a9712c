import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ssanc.convmat import _TRIANGULAR_BLOCK, _cholesky, _substitute, build_conv_matrix, build_q
from ssanc.reir import ReIRSet, estimate_reirs
from ssanc.scene import MicSignals, render_mics, synth_scene
from ssanc.signals import white_noise
from ssanc.solver import (
    Constraint,
    DesignContext,
    DesignParams,
    InfeasibleConstraintError,
    InputFrames,
    SingularSystemError,
    _DesignContext,
    _constraint_matrix,
    _constraint_vector,
    _filtered_correlations,
    _lanczos_max,
    _projected_constraint,
    _stack_products,
    build_constraint,
    design_control_filter,
    estimate_autocorrelation,
    input_frames,
    kkt_oracle,
)
from ssanc.sweep import SweepConfig, _prepare_design, prepare_scene


def stacked_frames(channels, L):
    """The (N - L + 1, C * L) frames x(n), n = L-1 .. N-1: each channel's last L samples, newest first."""
    return np.hstack([np.lib.stride_tricks.sliding_window_view(c, L)[:, ::-1] for c in channels])


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
    Gt = np.kron(np.eye(K + 1), build_conv_matrix(g, Lw))
    q = build_q(K, L)
    w0 = rng.standard_normal((K + 1) * Lw)
    feasible = Constraint(H=base.H, f=base.H.T @ (q + Gt @ w0))
    return phi_xx, g, feasible, K, Lw, Gt, q


def objective(phi_xx, Gt, q, beta, w):
    u = q + Gt @ w
    return float(u @ phi_xx @ u + beta * w @ w)


# ---------------------------------------------------------------------------
# autocorrelation estimation
# ---------------------------------------------------------------------------


def test_autocorrelation_white_noise_near_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(60000)
    phi = estimate_autocorrelation(InputFrames(x[None, :], 8))
    assert np.all(np.abs(np.diag(phi) - 1.0) < 0.1)
    off = phi - np.diag(np.diag(phi))
    assert np.max(np.abs(off)) < 0.1


def test_stacked_frames_layout_and_width():
    K, Lg, Lw = 4, 3, 3
    L = Lg + Lw - 1
    n = 40
    chans = [np.arange(n, dtype=float) + 100 * k for k in range(K + 1)]
    frames = stacked_frames(chans, L)
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
    f = input_frames(mics, L)
    frames = stacked_frames(f.channels, f.L)
    x0 = mics.s[0] + mics.v[0]
    np.testing.assert_array_equal(frames[0, :L], x0[L - 1 :: -1])
    np.testing.assert_array_equal(frames[0, L:], (mics.p_s + mics.p_v)[L - 1 :: -1])


def random_mics(K, N, seed):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 10.0, size=(K, 1))
    x_s, x_v = scale * rng.standard_normal((K, N)), rng.standard_normal((K, N))
    p_s, p_v = rng.standard_normal(N), 3.0 * rng.standard_normal(N)
    return MicSignals(s=np.vstack([x_s, p_s]), v=np.vstack([x_v, p_v]))


def assert_structural_matches_frames(K, L, N, seed):
    frames = input_frames(random_mics(K, N, seed), L)
    phi = estimate_autocorrelation(frames)
    X = stacked_frames(frames.channels, frames.L)
    oracle = X.T @ X / len(X)
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
# design statistics from the signals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("K, Lw, Lg, Lh, N", [
    (1, 1, 1, 1, 1), (1, 1, 1, 3, 40), (2, 1, 5, 3, 40), (2, 5, 1, 4, 40),
    (3, 6, 4, 5, 9), (2, 7, 9, 6, 400), (4, 12, 20, 8, 3000),
])
def test_signals_statistics_equal_the_projected_frame_product(K, Lw, Lg, Lh, N):
    """``DesignContext.from_correlations`` of the signals' ``_filtered_correlations``
    on random signals, down to one frame and to
    one-tap filters or paths: S, phi, power, A (``_projected_constraint``) and H'q
    equal the projections of the explicit frame product X'X / (N - L + 1) and of
    H by Gt = I (x) G."""
    rng = np.random.default_rng(100 * K + 10 * Lw + Lg)
    mics = random_mics(K, N, seed=N + Lg)
    g = rng.standard_normal(Lg)
    reirs = ReIRSet(h=rng.standard_normal((K + 1, Lh)), spatial_ref=0)
    S, phi, power = _filtered_correlations(*_stack_products(mics.s + mics.v, Lg + Lw - 1), g, Lw)
    ctx = DesignContext.from_correlations(S.copy(), phi, power, g, reirs, DesignParams(), Lw)  # it consumes S
    L = Lg + Lw - 1
    X = stacked_frames(mics.s + mics.v, L)
    phi_xx = X.T @ X / len(X)
    Gt = np.kron(np.eye(K + 1), build_conv_matrix(g, Lw))
    q = build_q(K, L)
    H = _constraint_matrix(reirs, L)
    dense = {
        "S": Gt.T @ phi_xx @ Gt, "phi": Gt.T @ (phi_xx @ q), "power": q @ phi_xx @ q,
        "A": Gt.T @ H, "Hq": H.T @ q,
    }
    built = {"S": S, "A": _projected_constraint(reirs, g, Lw)}
    for key, expected in dense.items():
        actual = built[key] if key in built else getattr(ctx, key)
        assert np.shape(actual) == np.shape(expected), key
        assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected)), key
    np.testing.assert_array_equal(S, S.T)


def test_signals_design_rejects_short_signals():
    mics = random_mics(1, 4, 0)
    with pytest.raises(ValueError, match="shorter than frame history"):
        _filtered_correlations(*_stack_products(mics.s + mics.v, 5), np.ones(3), 3)


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
    q = build_q(K, L)
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
# blocked Cholesky factorization and triangular substitution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, _TRIANGULAR_BLOCK - 1, _TRIANGULAR_BLOCK, _TRIANGULAR_BLOCK + 1, 300])
def test_cholesky_is_numpys_factor_in_place(n):
    """``_cholesky`` of a random SPD matrix, on either side of a block boundary,
    returns its argument overwritten with ``np.linalg.cholesky``'s factor to
    1e-13 of its scale, upper triangle zero, and never reads that triangle."""
    rng = np.random.default_rng(n)
    A = random_psd(n, rng, extra=n)
    expected = np.linalg.cholesky(A)
    A[np.triu_indices(n, 1)] = np.nan
    assert _cholesky(A) is A
    assert np.max(np.abs(A - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert not np.triu(A, 1).any()


@pytest.mark.parametrize("entry, value", [((150, 150), -1.0), ((200, 10), np.nan), ((5, 5), np.nan)],
                         ids=["indefinite-second-block", "nan-panel", "nan-diagonal"])
def test_cholesky_refuses_an_indefinite_or_non_finite_matrix(entry, value):
    """A matrix whose first block is definite but whose second is not, or with
    one NaN in its lower triangle, raises ``LinAlgError``."""
    rng = np.random.default_rng(28)
    n = 2 * _TRIANGULAR_BLOCK + 1
    A = random_psd(n, rng, extra=n)
    A[entry] = value
    with pytest.raises(np.linalg.LinAlgError):
        _cholesky(A)

BLOCK_EDGES = [1, _TRIANGULAR_BLOCK - 1, _TRIANGULAR_BLOCK, _TRIANGULAR_BLOCK + 1, 2 * _TRIANGULAR_BLOCK + 1]


@pytest.mark.parametrize("n", BLOCK_EDGES)
@pytest.mark.parametrize("transpose", [False, True], ids=["Lc", "Lc'"])
@pytest.mark.parametrize("m", [1, 9])
def test_substitution_equals_the_dense_solve(n, transpose, m):
    """``_substitute`` with the Cholesky factor Lc of a random SPD matrix, on
    either side of a block boundary, overwrites B with ``np.linalg.solve`` of Lc
    or Lc' to 1e-12 of its scale."""
    rng = np.random.default_rng(10 * n + 2 * m + transpose)
    Lc = np.linalg.cholesky(random_psd(n, rng, extra=n))
    B = rng.standard_normal((n, m))
    expected = np.linalg.solve(Lc.T if transpose else Lc, B)
    assert _substitute(Lc, B, transpose) is B
    assert np.max(np.abs(B - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("transpose", [False, True], ids=["Lc", "Lc'"])
def test_substitution_keeps_a_non_finite_column_in_its_column(transpose):
    """A NaN in one right-hand side spoils that column and leaves every other
    column's bits as they are without it."""
    rng = np.random.default_rng(26)
    n = 2 * _TRIANGULAR_BLOCK + 1
    Lc = np.linalg.cholesky(random_psd(n, rng, extra=n))
    B = rng.standard_normal((n, 5))
    clean = _substitute(Lc, B.copy(), transpose)
    B[n // 2, 2] = np.nan
    spoiled = _substitute(Lc, B, transpose)
    assert np.isnan(spoiled[:, 2]).any()
    np.testing.assert_array_equal(np.delete(spoiled, 2, axis=1), np.delete(clean, 2, axis=1))


# ---------------------------------------------------------------------------
# closed form vs KKT oracle
# ---------------------------------------------------------------------------


def test_design_matches_kkt_oracle_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(20):
        phi_xx, g, constraint, K, Lw, _, _ = random_instance(rng)
        res = design_control_filter(phi_xx, g, constraint, DesignParams(rho=0.0), K, Lw)
        oracle = kkt_oracle(phi_xx, g, constraint.H, constraint.f, res.beta, K, Lw)
        gap = np.linalg.norm(res.filter - oracle)
        assert gap <= 1e-8 * max(np.linalg.norm(oracle), 1e-12)
        assert res.constraint_residual <= 1e-8


def test_rho_rule_design_is_the_penalty_minimizer():
    """At rho > 0, by the default rule or set explicitly, the design is the minimizer of
    E{e^2} + beta ||w||^2 + ||H'(q + Gt w) - f||^2 / rho: the dense solve of
    (Gt' Phi_xx Gt + beta I + C'C / rho) w = C'(f - H'q) / rho - Gt' Phi_xx q, C = H'Gt."""
    rng = np.random.default_rng(25)
    worst = 0.0
    for _ in range(60):
        K = int(rng.integers(1, 4))
        Lw, Lg, Lh = (int(rng.integers(3, 9)) for _ in range(3))
        phi_xx, g, constraint, K, Lw, Gt, q = random_instance(rng, K, Lw, Lg, Lh)
        f = constraint.f + rng.standard_normal(constraint.f.shape)  # the penalty is active
        C = constraint.H.T @ Gt
        for params in (DesignParams(), DesignParams(rho=0.05)):
            res = _DesignContext(phi_xx, g, constraint.H, params, K, Lw).solve(f)
            assert res.rho > 0.0
            lhs = Gt.T @ phi_xx @ Gt + res.beta * np.eye(Gt.shape[1]) + C.T @ C / res.rho
            rhs = C.T @ (f - constraint.H.T @ q) / res.rho - Gt.T @ (phi_xx @ q)
            w = np.linalg.solve(lhs, rhs)
            worst = max(worst, np.linalg.norm(res.filter.ravel() - w) / np.linalg.norm(w))
    assert worst <= 1e-8


def dense_closed_form(S, A, phi, Hq, beta, rho, F):
    """The taps w = Phi_rr^-1 (A mu - phi) of each column f of F, with
    mu = (M0 + rho I)^-1 (f - H'q + A' Phi_rr^-1 phi), Phi_rr = S + beta I and
    M0 = A' Phi_rr^-1 A, by ``np.linalg.solve`` alone."""
    phi_rr = S + beta * np.eye(S.shape[0])
    X = np.linalg.solve(phi_rr, np.column_stack([A, phi]))
    inner = A.T @ X[:, :-1] + rho * np.eye(A.shape[1])
    mu = np.linalg.solve(inner, F - Hq[:, None] + (A.T @ X[:, -1])[:, None])
    return np.linalg.solve(phi_rr, A @ mu - phi[:, None])


def assert_closed_form_taps(ctx, S, A, phi, Hq, F):
    assert ctx.rho > 0.0
    expected = dense_closed_form(S, A, phi, Hq, ctx.beta, ctx.rho, F)
    for j, res in enumerate(ctx.solve(F)):
        w = expected[:, j]
        assert np.linalg.norm(res.filter.ravel() - w) <= 1e-10 * np.linalg.norm(w), j


def test_rho_rule_design_equals_the_dense_closed_form():
    """At rho > 0, by the rule or set explicitly, the taps of a batched solve on
    random instances equal the closed form by dense LU solves to 1e-10."""
    rng = np.random.default_rng(27)
    for _ in range(20):
        phi_xx, g, constraint, K, Lw, Gt, q = random_instance(rng)
        H = constraint.H
        F = np.column_stack([constraint.f, *rng.standard_normal((3, constraint.f.shape[0]))])
        for params in (DesignParams(), DesignParams(rho=0.05)):
            ctx = _DesignContext(phi_xx, g, H, params, K, Lw)
            assert_closed_form_taps(ctx, Gt.T @ phi_xx @ Gt, Gt.T @ H, Gt.T @ (phi_xx @ q), H.T @ q, F)


def test_paper_scale_design_equals_the_dense_closed_form():
    """The production design on paper_scale, at three delays, has the closed form's
    taps by dense LU solves of Phi_rr and M0 + rho I to 1e-10."""
    config = SweepConfig.from_json(Path(__file__).parents[1] / "configs" / "paper_scale.json")
    prep, ctx = _prepare_design(config, simulate=False)
    mics = prepare_scene(config, simulate=False).mics  # the stacks the design frees
    S, phi, _ = _filtered_correlations(*_stack_products(mics.s + mics.v, prep.L), prep.scene.g, config.Lw)
    A = _projected_constraint(prep.reirs, prep.scene.g, config.Lw)
    Hq = np.concatenate([prep.reirs.h[-1], np.zeros(prep.L - 1)])
    deltas = config.deltas()
    F = np.column_stack([
        _constraint_vector(prep.reirs, prep.psi, config.target_kind, d, prep.L)
        for d in (deltas[0], deltas[len(deltas) // 2], deltas[-1])
    ])
    assert_closed_form_taps(ctx, S, A, phi, Hq, F)


def test_paper_scale_design_factorizes_each_system_once(monkeypatch):
    """``_prepare_design`` and a batched solve on paper_scale make one blocked
    factorization (``_cholesky``) of the ReIR fit's normal matrix, one of
    Phi_rr and one of M0 + rho I, in that order, and no ``np.linalg`` call sees
    a matrix larger than one ``_TRIANGULAR_BLOCK``-row diagonal block: none of
    the three systems is LU-factorized or copied whole by LAPACK."""
    config = SweepConfig.from_json(Path(__file__).parents[1] / "configs" / "paper_scale.json")
    calls = []

    def recorded(name, fn):
        def call(a, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") in ("ssanc.reir", "ssanc.solver", "ssanc.convmat"):
                calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return call

    for name in ("cholesky", "solve", "eigh", "inv", "pinv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
    prep, ctx = _prepare_design(config, simulate=False)
    ctx.solve(np.column_stack([
        _constraint_vector(prep.reirs, prep.psi, config.target_kind, d, prep.L) for d in config.deltas()
    ]))
    Lh, n, flen = config.Lh, (prep.scene.K + 1) * config.Lw, config.Lh + prep.L - 1
    assert (Lh, n, flen) == (280, 1400, 838)

    def diagonal_blocks(size):
        return [(min(_TRIANGULAR_BLOCK, size - i),) * 2 for i in range(0, size, _TRIANGULAR_BLOCK)]

    expected = diagonal_blocks(Lh) + diagonal_blocks(n) + diagonal_blocks(flen)
    assert [shape for name, shape in calls if name == "cholesky"] == expected
    assert {name for name, _ in calls} == {"cholesky", "solve"}
    assert max(shape[0] for _, shape in calls) <= _TRIANGULAR_BLOCK


@pytest.mark.parametrize("rho", [None, 0.0], ids=["rho-rule", "rho-zero"])
def test_batched_solve_equals_one_solve_per_column(rho):
    rng = np.random.default_rng(21)
    phi_xx, g, constraint, K, Lw, Gt, q = random_instance(rng, K=2, Lw=5, Lg=4, Lh=6)
    ctx = _DesignContext(phi_xx, g, constraint.H, DesignParams(rho=rho), K, Lw)
    F = np.column_stack([constraint.f, *rng.standard_normal((4, constraint.f.shape[0]))])
    batched = ctx.solve(F)
    assert len(batched) == F.shape[1]
    for j, res in enumerate(batched):
        one = ctx.solve(F[:, j])
        np.testing.assert_allclose(res.filter, one.filter, rtol=0, atol=1e-12 * np.max(np.abs(one.filter)))
        assert res.constraint_residual == pytest.approx(one.constraint_residual, rel=1e-9, abs=1e-12)
        assert res.predicted_error_power == pytest.approx(one.predicted_error_power, rel=1e-12)
        assert (res.beta, res.rho) == (one.beta, one.rho)
    if rho == 0.0:
        assert batched[0].constraint_residual <= 1e-8  # column 0 is feasible


def test_batched_solve_fails_only_the_non_finite_column():
    rng = np.random.default_rng(22)
    phi_xx, g, constraint, K, Lw, _, _ = random_instance(rng)
    ctx = _DesignContext(phi_xx, g, constraint.H, DesignParams(), K, Lw)
    F = np.column_stack([constraint.f] * 3)
    F[0, 1] = np.nan
    first, bad, last = ctx.solve(F)
    assert isinstance(bad, SingularSystemError)
    np.testing.assert_array_equal(first.filter, last.filter)
    with pytest.raises(SingularSystemError, match="non-finite taps"):
        ctx.solve(F[:, 1])


def test_degenerate_covariance_has_no_positive_derived_beta():
    # Phi_xx = -I makes S = -Gt'Gt negative definite: the derived beta clips to 0
    rng = np.random.default_rng(23)
    phi_xx, g, constraint, K, Lw, _, _ = random_instance(rng)
    with pytest.raises(SingularSystemError, match="beta = 0 is not positive"):
        _DesignContext(-np.eye(phi_xx.shape[0]), g, constraint.H, DesignParams(), K, Lw)


def test_beta_below_minus_smallest_eigenvalue_cannot_factorize():
    # an indefinite Phi_xx: S = Gt' Phi_xx Gt has lambda_min <= -beta = -lambda_max / beta_div
    rng = np.random.default_rng(24)
    phi_xx, g, constraint, K, Lw, Gt, _ = random_instance(rng)
    indefinite = phi_xx - np.eye(phi_xx.shape[0]) * np.linalg.eigvalsh(phi_xx)[-1] / 2.0
    lam = np.linalg.eigvalsh(Gt.T @ indefinite @ Gt)
    assert lam[-1] > 0.0 and lam[0] <= -lam[-1] / DesignParams().beta_div
    with pytest.raises(SingularSystemError, match="cannot factorize Phi_rr"):
        _DesignContext(indefinite, g, constraint.H, DesignParams(), K, Lw)
    # the same divisor on the PSD covariance designs
    assert _DesignContext(phi_xx, g, constraint.H, DesignParams(), K, Lw).beta > 0.0


def test_inner_matrix_that_does_not_factorize_is_refused():
    # rho = 1e-300 lifts the rank-deficient inner matrix by less than its rounding
    phi_xx, g, constraint, K, Lw, _, _ = random_instance(np.random.default_rng(0))
    with pytest.raises(SingularSystemError, match="cannot factorize the inner constraint matrix"):
        _DesignContext(phi_xx, g, constraint.H, DesignParams(rho=1e-300), K, Lw)


def lanczos_case(name):
    rng = np.random.default_rng(31)
    if name.startswith("spd"):
        return random_psd(int(name[3:]), rng)
    if name == "negative-definite":  # S of the "beta = 0 is not positive" design
        _, _, _, _, _, Gt, _ = random_instance(np.random.default_rng(23))
        return -Gt.T @ Gt
    if name == "rank-1":
        u = rng.standard_normal(120)
        return np.outer(u, u)
    assert name == "clustered-top"  # lambda_2 / lambda_1 = 0.9999 over a spread tail
    Q = np.linalg.qr(rng.standard_normal((200, 200)))[0]
    return (Q * np.concatenate([[1.0, 0.9999], rng.uniform(0.0, 0.9, 198)])) @ Q.T


def assert_lanczos_top(M):
    """_lanczos_max(M) is eigvalsh's top to 1e-12, the same bits twice, and leaves np.random's state alone."""
    top = np.linalg.eigvalsh(M)[-1]
    state = np.random.get_state()
    first = _lanczos_max(M)
    assert abs(first - top) <= 1e-12 * abs(top)
    assert np.float64(_lanczos_max(M)).tobytes() == np.float64(first).tobytes()
    after = np.random.get_state()
    assert after[0] == state[0] and np.array_equal(after[1], state[1]) and after[2:] == state[2:]


@pytest.mark.parametrize("name", ["spd5", "spd39", "spd40", "spd41", "spd300", "negative-definite", "rank-1", "clustered-top"])
def test_lanczos_top_is_the_largest_eigenvalue(name):
    assert_lanczos_top(lanczos_case(name))


@pytest.mark.parametrize("seed", [0, 6])  # seed 6: the top two eigenvalues of S are 1e-4 apart
def test_lanczos_top_of_the_paper_scale_design(seed):
    config = replace(SweepConfig.from_json(Path(__file__).parents[1] / "configs" / "paper_scale.json"), seed=seed)
    prep, ctx = _prepare_design(config, simulate=False)
    mics = prepare_scene(config, simulate=False).mics  # the stacks the design frees
    assert_lanczos_top(_filtered_correlations(*_stack_products(mics.s + mics.v, prep.L), prep.scene.g, config.Lw)[0])
    M0 = ctx.YA.T @ ctx.YA  # A' Phi_rr^-1 A from the context's Lc^-1 A
    assert_lanczos_top((M0 + M0.T) / 2.0)


def test_kkt_solution_beats_feasible_perturbations():
    rng = np.random.default_rng(12)
    phi_xx, g, constraint, K, Lw, Gt, q = random_instance(rng, K=2, Lw=4, Lg=3, Lh=3)
    beta = float(np.linalg.eigvalsh(Gt.T @ phi_xx @ Gt)[-1]) / 500.0
    w_star = kkt_oracle(phi_xx, g, constraint.H, constraint.f, beta, K, Lw).ravel()
    j_star = objective(phi_xx, Gt, q, beta, w_star)

    C = constraint.H.T @ Gt
    import scipy.linalg

    Z = scipy.linalg.null_space(C)
    assert Z.shape[1] > 0
    for _ in range(100):
        dw = Z @ rng.standard_normal(Z.shape[1]) * 0.3
        assert j_star <= objective(phi_xx, Gt, q, beta, w_star + dw) + 1e-10


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
    w = kkt_oracle(phi_xx, g, constraint.H, constraint.f, 0.1, K, Lw).ravel()
    C = constraint.H.T @ np.kron(np.eye(K + 1), build_conv_matrix(g, Lw))
    v = constraint.f - constraint.H.T @ build_q(K, L)
    assert np.linalg.norm(C @ w - v) <= 1e-8


def test_kkt_detects_infeasible_constraints():
    rng = np.random.default_rng(15)
    phi_xx, g, constraint, K, Lw, _, _ = random_instance(rng, K=1, Lw=4, Lg=4, Lh=4)
    bad = constraint.f + rng.standard_normal(constraint.f.shape)
    with pytest.raises(InfeasibleConstraintError):
        kkt_oracle(phi_xx, g, constraint.H, bad, 0.1, K, Lw)


def test_design_params_validation():
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
    reirs = estimate_reirs(scene, white, Lh)
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
    assert np.linalg.norm(res.filter.ravel(), np.inf) <= 1e-6 * q_norm


def test_effort_nonincreasing_in_beta():
    from ssanc.simulate import apply_control

    scene, mics, reirs, phi_xx, Lw, Lg = small_noisy_pipeline(seed=1)
    constraint = build_constraint(reirs, [1.0], "error_mic", 0, Lw, Lg)
    efforts = []
    for beta_div in (1e4, 1e2, 1.0):  # increasing beta
        res = design_control_filter(
            phi_xx, scene.g, constraint, DesignParams(rho=1e-8, beta_div=beta_div), scene.K, Lw
        )
        run = apply_control(res.filter, mics, scene.g, "error_mic", 0, 0)
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

    scaled = MicSignals(s=10 * mics.s, v=10 * mics.v)
    L = Lg + Lw - 1
    phi_scaled = estimate_autocorrelation(input_frames(scaled, L))
    res2 = design_control_filter(phi_scaled, scene.g, constraint, DesignParams(), scene.K, Lw)

    num = np.linalg.norm(res2.filter - res1.filter)
    den = np.linalg.norm(res1.filter)
    assert num <= 1e-9 * den
    assert res2.beta == pytest.approx(100.0 * res1.beta, rel=1e-9)


def test_stacked_frame_width_at_full_scale_dimensions():
    # K = 4 reference mics with 280-tap secondary path and control filters
    K, Lg, Lw = 4, 280, 280
    L = Lg + Lw - 1
    chans = [np.zeros(L + 40) for _ in range(K + 1)]
    frames = stacked_frames(chans, L)
    assert frames.shape[1] == (K + 1) * L == 2795
