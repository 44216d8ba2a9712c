"""Acceptance gates: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import time
from pathlib import Path

import numpy as np

from ssanc.convmat import _TRIANGULAR_BLOCK, build_conv_matrix, per_channel
from ssanc.metrics import control_effort, noise_reduction, quality_proxy, speech_distortion_index
from ssanc.reir import ReIRSet, estimate_reirs
from ssanc.scene import MicSignals, render_mics, synth_scene
from ssanc.signals import speech_shaped_noise, white_noise
from ssanc.simulate import apply_control
from ssanc.solver import (
    DesignParams,
    _constraint_vector,
    build_constraint,
    design_control_filter,
    estimate_autocorrelation,
    input_frames,
)
from ssanc.sweep import (
    SweepConfig,
    _prepare_design,
    default_scene_dict,
    prepare_scene,
    run_sweep,
    verify_against_oracle,
    write_rows_csv,
)

CONFIGS = Path(__file__).parents[1] / "configs"
FIG5 = CONFIGS / "fig5_synthetic.json"


def report(ok, name, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    worst, gaps = verify_against_oracle(trials=20, seed=2024)
    elapsed = time.perf_counter() - t0
    report(
        worst <= 1e-8 and elapsed < 5.0,
        "criterion 1 (oracle equivalence)",
        f"max relative deviation {worst:.3e} (<= 1e-8) over {len(gaps)} instances in {elapsed:.2f} s (< 5 s)",
    )


def test_criterion_1_oracle_equivalence_across_diagonal_blocks():
    """At Lw = 70, Phi_rr has (K+1) Lw >= 140 rows, more than one diagonal
    block of the blocked Cholesky, and the design still meets the oracle."""
    assert 2 * 70 > _TRIANGULAR_BLOCK
    worst, gaps = verify_against_oracle(trials=4, dims=(70, 70, 8), seed=2024)
    report(
        worst <= 1e-8,
        "criterion 1 (oracle equivalence, multi-block factor)",
        f"max relative deviation {worst:.3e} (<= 1e-8) over {len(gaps)} instances at Lw = Lg = 70, Lh = 8",
    )


def test_criterion_2_zero_action():
    scene_dict = default_scene_dict()
    scene_dict["tail_amp"] = 0.0
    cfg_scene = {k: v for k, v in scene_dict.items() if k != "kind"}
    scene = synth_scene(
        K=cfg_scene["K"],
        speech_delays=cfg_scene["speech_delays"],
        noise_delays=cfg_scene["noise_delays"],
        gains=cfg_scene["gains"],
        sec_delay=cfg_scene["sec_delay"],
        sec_ir_len=48,
        fs=16000,
        seed=3,
    )
    n = 5 * 16000
    reirs = estimate_reirs(scene, white_noise(n, 2), 48)
    mics = render_mics(scene, speech_shaped_noise(n, 16000, 0))  # desired only
    L = 48 + 48 - 1
    phi_xx = estimate_autocorrelation(input_frames(mics, L))
    constraint = build_constraint(reirs, [1.0], "error_mic", 0, 48, 48)
    res = design_control_filter(phi_xx, scene.g, constraint, DesignParams(rho=0.0), scene.K, 48)
    w_norm = float(np.linalg.norm(res.filter))  # ||q||_2 = 1
    run = apply_control(res.filter, mics, scene.g, "error_mic", 0, 0)
    energy_ratio = float(np.sum(run.y**2)) / float(np.sum((mics.p_s + mics.p_v) ** 2))
    report(
        w_norm <= 1e-3 and energy_ratio <= 1e-6,
        "criterion 2 (zero action)",
        f"||w||/||q|| = {w_norm:.3e} (<= 1e-3), y/p energy = {energy_ratio:.3e} (<= 1e-6)",
    )


def test_criterion_3_error_target_delay_trend():
    cfg = SweepConfig.from_dict({
        "target_kind": "error_mic",
        "delta_range": [0, 24, 1],
        "snr_db": -5.0,
    })
    rows = run_sweep(cfg)
    nr = {r.delta: r.nr_db for r in rows}
    sdi = {r.delta: r.sdi_db for r in rows}
    ok = nr[0] >= nr[24] + 3.0 and sdi[0] <= sdi[24]
    report(
        ok,
        "criterion 3 (error-target delay trend)",
        f"NR(0) = {nr[0]:.2f} dB >= NR(24) + 3 = {nr[24] + 3:.2f} dB; "
        f"SDI(0) = {sdi[0]:.2f} <= SDI(24) = {sdi[24]:.2f}",
    )


def test_criterion_4_reference_target_causality_trend():
    d = 4  # spatial-ref to error-mic acoustic delay of the scene
    cfg = SweepConfig.from_dict({
        "target_kind": "reference_mic",
        "delta_range": [0, 24, 1],
        "scene": json.loads(FIG5.read_text())["scene"],
        "snr_db": -5.0,
    })
    rows = run_sweep(cfg)
    nr = np.array([r.nr_db for r in rows])
    eff = np.array([r.effort for r in rows])
    argmax = int(np.argmax(nr))
    ok = (
        int(np.argmin(nr)) == 0
        and d - 2 <= argmax <= d + 12
        and eff[24] > eff[argmax]
    )
    report(
        ok,
        "criterion 4 (reference-target causality trend)",
        f"NR(0) = {nr[0]:.2f} dB is the minimum (argmin {int(np.argmin(nr))}); "
        f"argmax {argmax} in [{d - 2}, {d + 12}]; "
        f"effort(Lw/2) = {eff[24]:.3g} > effort(argmax) = {eff[argmax]:.3g}",
    )


def test_criterion_5_convolution_layer():
    rng = np.random.default_rng(55)
    checks = 0
    worst = 0.0

    def direct_conv(h, x):
        out = np.zeros(len(h) + len(x) - 1)
        for i, hv in enumerate(h):
            for j, xv in enumerate(x):
                out[i + j] += hv * xv
        return out

    for _ in range(600):  # conv matrix vs direct convolution
        h = rng.standard_normal(int(rng.integers(1, 17)))
        x = rng.standard_normal(int(rng.integers(1, 17)))
        err = np.max(np.abs(build_conv_matrix(h, len(x)) @ x - direct_conv(h, x)))
        worst = max(worst, err)
        checks += 1

    for _ in range(200):  # the secondary path acts per channel block
        K = int(rng.integers(1, 4))
        G = build_conv_matrix(rng.standard_normal(int(rng.integers(1, 9))), int(rng.integers(1, 9)))
        w = rng.standard_normal((K + 1) * G.shape[1])
        expected = np.concatenate(
            [G @ w[b * G.shape[1] : (b + 1) * G.shape[1]] for b in range(K + 1)]
        )
        worst = max(worst, np.max(np.abs(per_channel(G, w) - expected)))
        checks += 1

    for _ in range(200):  # unit pulse shifts
        n = int(rng.integers(1, 17))
        d = int(rng.integers(0, n))
        x = rng.standard_normal(int(rng.integers(1, 17)))
        got = np.convolve(np.eye(1, n, d)[0], x)
        expected = np.zeros(n + len(x) - 1)
        expected[d : d + len(x)] = x
        worst = max(worst, np.max(np.abs(got - expected)))
        checks += 1

    report(
        checks == 1000 and worst <= 1e-10,
        "criterion 5 (convolution layer)",
        f"{checks} randomized checks, max abs error {worst:.3e} (<= 1e-10)",
    )


def test_criterion_6_reir_recovery():
    scene = synth_scene(
        K=3,
        speech_delays=[2, 5, 9, 6],
        noise_delays=[4, 1, 3, 2],
        gains=[(1.0, 0.5), (0.8, 1.0), (0.5, 0.7), (0.6, 0.9)],
        sec_delay=1,
        sec_ir_len=8,
        fs=16000,
        seed=0,
    )
    white = white_noise(40000, 1)
    mics = render_mics(scene, white)
    reirs = estimate_reirs(scene, white, 24)
    gains = [1.0, 0.8, 0.5, 0.6]
    delays = [2, 5, 9, 6]
    worst = max(
        np.linalg.norm(reirs.h[k] - (gains[k] / gains[0]) * np.eye(1, 24, delays[k] - 2)[0])
        for k in range(4)
    )
    recon = np.convolve(reirs.h[-1], mics.s[scene.spatial_ref])[: mics.N]
    recon_db = 20 * np.log10(np.linalg.norm(recon - mics.p_s) / np.linalg.norm(mics.p_s))
    report(
        worst <= 1e-6 and recon_db <= -40.0,
        "criterion 6 (ReIR recovery)",
        f"max tap error {worst:.3e} (<= 1e-6); reconstruction {recon_db:.1f} dB (<= -40 dB)",
    )


def test_criterion_7_metric_closed_forms():
    rng = np.random.default_rng(7)
    p = rng.standard_normal(4096)
    t = rng.standard_normal(4096)
    nr = noise_reduction(p, p / 2)
    sdi = speech_distortion_index(t, 1.1 * t)
    eff = control_effort([1.0, 1.0, 1.0])
    q = quality_proxy(t, t.copy())
    ok = (
        abs(nr - 6.0206) <= 1e-6
        and abs(sdi - (-20.0)) <= 1e-6
        and eff == 3.0
        and q == 0.0
    )
    report(
        ok,
        "criterion 7 (metric closed forms)",
        f"NR(p, p/2) = {nr:.7f} dB; SDI(t, 1.1t) = {sdi:.7f} dB; "
        f"effort([1,1,1]) = {eff}; quality(t,t) = {q}",
    )


def test_criterion_8_largest_eigenvalue():
    """The derived weights: beta = lmax(Gt' Phi_xx Gt) / 500 and rho = lmax(M0) / 30000,
    with Gt and the inner matrix M0 = H'Gt (Gt' Phi_xx Gt + beta I)^-1 Gt'H formed densely."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        K = int(rng.integers(1, 3))
        Lw, Lg, Lh = (int(rng.integers(3, 7)) for _ in range(3))
        dim = (K + 1) * (Lg + Lw - 1)
        B = rng.standard_normal((dim, dim + 4))
        phi_xx = B @ B.T / (dim + 4)
        g = rng.standard_normal(Lg)
        reirs = ReIRSet(h=rng.standard_normal((K + 1, Lh)), spatial_ref=0)
        constraint = build_constraint(reirs, [1.0], "error_mic", 0, Lw, Lg)
        res = design_control_filter(phi_xx, g, constraint, DesignParams(), K, Lw)

        Gt = np.kron(np.eye(K + 1), build_conv_matrix(g, Lw))
        S = Gt.T @ phi_xx @ Gt
        beta = float(np.linalg.eigvalsh(S)[-1]) / 500.0
        A = Gt.T @ constraint.H
        M0 = A.T @ np.linalg.solve(S + beta * np.eye(S.shape[0]), A)
        rho = float(np.linalg.eigvalsh((M0 + M0.T) / 2.0)[-1]) / 30000.0
        worst = max(worst, abs(res.beta - beta) / beta, abs(res.rho - rho) / rho)
    report(
        worst <= 1e-10,
        "criterion 8 (largest eigenvalue)",
        f"max relative error of the derived beta and rho vs dense eigensolves {worst:.3e} "
        "(<= 1e-10) on 50 instances",
    )


def test_criterion_9_sweep_determinism(tmp_path):
    cfg = SweepConfig.from_dict({
        "duration_s": 2.0,
        "delta_range": [0, 10, 1],
        "seed": 11,
    })
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for path in paths:
        write_rows_csv(run_sweep(cfg), path)
    b1, b2 = paths[0].read_bytes(), paths[1].read_bytes()
    report(
        b1 == b2,
        "criterion 9 (determinism)",
        f"two sweeps with identical config and seed produced byte-identical CSV ({len(b1)} bytes)",
    )


def test_criterion_10_scale_invariance():
    scene = synth_scene(
        K=2,
        speech_delays=[2, 3, 4],
        noise_delays=[4, 1, 3],
        gains=[(1.0, 0.7), (0.8, 1.0), (0.6, 0.8)],
        sec_delay=1,
        sec_ir_len=6,
        fs=16000,
        seed=0,
    )
    n = 12000
    reirs = estimate_reirs(scene, white_noise(n, 1), 8)
    mics = render_mics(scene, white_noise(n, 2), white_noise(n, 3), -5.0)
    Lw, Lg = 8, 6
    L = Lg + Lw - 1
    constraint = build_constraint(reirs, [1.0], "error_mic", 1, Lw, Lg)

    phi = estimate_autocorrelation(input_frames(mics, L))
    res1 = design_control_filter(phi, scene.g, constraint, DesignParams(), scene.K, Lw)

    scaled = MicSignals(s=10 * mics.s, v=10 * mics.v)
    phi_scaled = estimate_autocorrelation(input_frames(scaled, L))
    res2 = design_control_filter(phi_scaled, scene.g, constraint, DesignParams(), scene.K, Lw)

    rel = np.linalg.norm(res2.filter - res1.filter) / np.linalg.norm(res1.filter)
    report(
        rel <= 1e-9,
        "criterion 10 (scale invariance)",
        f"10x input scaling with eigenvalue-rule beta/rho changed w by {rel:.3e} (<= 1e-9)",
    )


def test_criterion_11_paper_scale_delay_trends():
    """The paper's two delay trends at paper scale (K = 4, 280 taps) in its anechoic
    condition, with psi off so that SDI scores the delay and not the weighting."""
    rows = {}
    for kind in ("error", "reference"):
        cfg = SweepConfig.from_json(CONFIGS / f"paper_anechoic_{kind}.json")
        rows[kind] = {r.delta: r for r in run_sweep(cfg)}
        assert all(r.error == "" for r in rows[kind].values())
    delays, ref = cfg.scene["speech_delays"], cfg.scene["spatial_ref"]
    if ref is None:  # synth_scene's default: the reference mic the speech reaches first
        ref = int(np.argmin(delays[:-1]))
    d = delays[-1] - delays[ref]  # acoustic delay from the spatial reference to the error mic

    def column(kind, name):
        return {delta: getattr(r, name) for delta, r in rows[kind].items()}

    def best(values, pick):
        return pick(values, key=values.get)

    nr_err, eff_err, sdi_err = (column("error", c) for c in ("nr_db", "effort", "sdi_db"))
    nr_ref, eff_ref, sdi_ref = (column("reference", c) for c in ("nr_db", "effort", "sdi_db"))
    best_err = (best(nr_err, max), best(eff_err, min), best(sdi_err, min))
    best_ref = (best(nr_ref, max), best(eff_ref, min))
    runner_up = max(v for delta, v in nr_err.items() if delta != 0)
    report(
        best_err == (0, 0, 0) and best_ref == (d, d) and sdi_ref[0] >= sdi_ref[d] + 40.0,
        "criterion 11 (paper-scale delay trends, anechoic)",
        f"error target: NR, effort and SDI best at delta = {best_err} (all 0), "
        f"NR(0) = {nr_err[0]:.2f} dB against {runner_up:.2f} dB next best; "
        f"reference target: NR and effort best at delta = {best_ref} (d = {d}), "
        f"SDI(0) = {sdi_ref[0]:.1f} dB >= SDI(d) + 40 = {sdi_ref[d] + 40:.1f} dB",
    )


def test_criterion_12_spatial_selectivity():
    """A noise source in the speech's own direction is kept, and the filter
    removes it the more, the more its arrival differs from the speech's.

    ``paper_anechoic_error``'s scene with every noise gain set to that
    microphone's speech gain and the noise delayed s samples behind the
    speech at microphones 1 and 3.  At s = 0 the noise is an image of the
    speech, so the constraint keeps it: the error target (delta = 0)
    removes none, and the reference target (delta = d = 4) leaves the
    noise scaled by the speech's g_err / g_ref."""
    base = json.loads((CONFIGS / "paper_anechoic_error.json").read_text())
    scene = base["scene"]
    ref = int(np.argmin(scene["speech_delays"][:-1]))  # synth_scene's default spatial_ref
    d = scene["speech_delays"][-1] - scene["speech_delays"][ref]
    gains = [[gs, gs] for gs, _ in scene["gains"]]
    kept = {"error_mic": 0.0, "reference_mic": 20 * np.log10(gains[-1][0] / gains[ref][0])}
    skews = (0, 2, 5)
    nr = {kind: [] for kind in kept}
    sdi = []
    for s in skews:
        noise_delays = [t + (s if m in (1, 3) else 0) for m, t in enumerate(scene["speech_delays"])]
        for kind, delta in (("error_mic", 0), ("reference_mic", d)):
            config = SweepConfig.from_dict({
                **base, "scene": {**scene, "gains": gains, "noise_delays": noise_delays},
                "target_kind": kind, "delta_range": [delta, delta, 1],
            })
            (row,) = run_sweep(config)
            assert row.error == ""
            nr[kind].append(row.nr_db)
            sdi.append(row.sdi_db)
    table = "; ".join(
        f"{kind}: NR " + " / ".join(f"{v:.2f}" for v in nr[kind]) + f" dB (kept {kept[kind]:.2f} dB)"
        for kind in kept
    )
    report(
        all(abs(nr[kind][0] - kept[kind]) <= 0.1 and np.all(np.diff(nr[kind]) > 0) for kind in kept)
        and max(sdi) <= -40.0,
        "criterion 12 (spatial selectivity)",
        f"noise skew s = {skews} samples at mics 1 and 3; {table}; SDI <= {max(sdi):.1f} dB (<= -40)",
    )


def test_criterion_13_optimal_delay_over_geometries():
    """The optimal delay is the effort optimum on a grid of anechoic geometries.

    ``paper_anechoic_reference``'s scene with the error microphone's speech
    delay set to 6 + d, so that d is the acoustic delay from the spatial
    reference (mic 0, delay 6), for d = 2 and 7, the shipped noise delays
    and "early at the references" ones, and both targets over
    delta = 0 .. d + 4.  A row is feasible when its constraint residual is
    at most 0.1.  Among the feasible rows the reference target's effort is
    lowest at delta = d and the error target's at delta = 0.  Only the
    reference target's rows at delta < sec_delay are infeasible: the
    loudspeaker cannot reach the error mic before the direct speech.  NR's
    argmax is reported, not gated: it need not fall at d."""
    base = json.loads((CONFIGS / "paper_anechoic_reference.json").read_text())
    scene = base["scene"]
    ref = int(np.argmin(scene["speech_delays"][:-1]))  # synth_scene's default spatial_ref
    noise = {"shipped": scene["noise_delays"], "early": [3, 3, 3, 3, 9]}
    ok, worst, nr_gaps = True, 0.0, []
    for d in (2, 7):
        speech_delays = [*scene["speech_delays"][:-1], scene["speech_delays"][ref] + d]
        for name, noise_delays in noise.items():
            for kind, optimum in (("reference_mic", d), ("error_mic", 0)):
                config = SweepConfig.from_dict({
                    **base, "scene": {**scene, "speech_delays": speech_delays, "noise_delays": noise_delays},
                    "target_kind": kind, "delta_range": [0, d + 4, 1],
                })
                rows = run_sweep(config)
                assert all(r.error == "" for r in rows)
                feasible = [r for r in rows if r.constraint_residual <= 0.1]
                blocked = list(range(scene["sec_delay"])) if kind == "reference_mic" else []
                ok &= (
                    min(feasible, key=lambda r: r.effort).delta == optimum
                    and [r.delta for r in rows if r.constraint_residual > 0.1] == blocked
                    and all(r.constraint_residual < 1e-2 for r in feasible)
                )
                worst = max(worst, *(r.constraint_residual for r in feasible))
                if kind == "reference_mic":
                    top = max(feasible, key=lambda r: r.nr_db)
                    nr_gaps.append(f"{name} d = {d}: {rows[d].nr_db - top.nr_db:.2f} dB (argmax {top.delta})")
    report(
        ok,
        "criterion 13 (optimal delay over geometries)",
        f"d = 2, 7 x 2 noise directions x 2 targets: least effort at delta = d (reference) "
        f"and 0 (error), infeasible rows exactly delta < sec_delay (reference), "
        f"feasible residuals <= {worst:.1e}; NR(d) - feasible max NR: " + "; ".join(nr_gaps),
    )


def test_criterion_14_rows_follow_the_required_re_emission():
    """Each row is explained by the speech the target asks the loudspeaker to re-emit.

    The error mic hears the desired component p_s; to make it the target
    t_delta, the loudspeaker must add t_delta - p_s.  The required
    re-emission R(delta) = ||t_delta - p_s||^2 / ||p_s||^2 depends on the
    rendered scene alone; the achieved one is ||e_s - p_s||^2 / ||p_s||^2
    of the simulated run.  On the anechoic pair's one scene they agree
    within 0.1 dB on every feasible row with R > 0.  The error target at
    delta = 0, which asks for nothing (R = 0), re-emits at most -40 dB.  The
    reference target's effort is least at the feasible delay d-hat that asks
    for the least re-emission."""
    config = SweepConfig.from_json(CONFIGS / "paper_anechoic_reference.json")
    assert json.loads((CONFIGS / "paper_anechoic_error.json").read_text())["scene"] == config.scene
    ctx = _prepare_design(config)[1]
    prep = prepare_scene(config)  # the same scene, ReIRs and weighting, with the stacks the design frees
    spans = {"reference_mic": 60, "error_mic": 30}
    cases = [(kind, delta) for kind, top in spans.items() for delta in range(top + 1)]
    designs = ctx.solve(np.column_stack([
        _constraint_vector(prep.reirs, prep.psi, kind, delta, prep.L) for kind, delta in cases
    ]))
    del ctx
    p_s = prep.mics.p_s
    rows = {kind: [] for kind in spans}  # (delta, required, achieved, effort) of the feasible rows
    for (kind, delta), res in zip(cases, designs):
        assert not isinstance(res, Exception)
        if res.constraint_residual > 0.1:
            continue
        run = apply_control(res.filter, prep.mics, prep.scene.g, kind, delta, prep.scene.spatial_ref)
        required, achieved = (float(np.sum((u - p_s) ** 2) / np.sum(p_s**2)) for u in (run.t, run.e_s))
        rows[kind].append((delta, required, achieved, control_effort(run.y)))
    gaps = {
        kind: max(abs(10 * np.log10(a / r)) for _, r, a, _ in table if r > 0) for kind, table in rows.items()
    }
    silent = {delta: 10 * np.log10(a) for delta, r, a, _ in rows["error_mic"] if r == 0}
    d_hat = min(rows["reference_mic"], key=lambda row: row[1])[0]
    least_effort = min(rows["reference_mic"], key=lambda row: row[3])[0]
    report(
        max(gaps.values()) <= 0.1 and list(silent) == [0] and silent[0] <= -40.0 and least_effort == d_hat,
        "criterion 14 (rows follow the required re-emission)",
        f"achieved within {gaps['reference_mic']:.4f} dB (reference, delta = 0 .. 60) and "
        f"{gaps['error_mic']:.4f} dB (error, delta = 0 .. 30) of required on feasible rows (<= 0.1); "
        f"error target re-emits {silent[0]:.1f} dB at delta = 0 (<= -40); "
        f"reference target's least effort at delta = {least_effort} = d-hat = {d_hat}",
    )
