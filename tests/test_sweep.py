import csv
import json
import os
import re
import struct
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ssanc.signals
import ssanc.sweep as sweep_mod
from ssanc import wavio
from ssanc.reir import ReIRSet
from ssanc.scene import render_mics
from ssanc.convmat import build_conv_matrix, build_q
from ssanc.solver import (
    TARGET_KINDS,
    DesignParams,
    _constraint_matrix,
    _DesignContext,
    _projected_constraint,
    build_constraint,
    estimate_autocorrelation,
    input_frames,
    max_delay,
    target_mic,
)
from ssanc.sweep import (
    ConfigError,
    SweepConfig,
    SweepRow,
    cli_main,
    default_scene_dict,
    run_sweep,
    write_rows_csv,
)

ROOT = Path(__file__).parents[1]
FIG5_SCENE = json.loads((ROOT / "configs" / "fig5_synthetic.json").read_text())["scene"]


def render_sources(config, scene, n):
    """The microphone stacks ``prepare_scene`` and ``ssanc simulate`` render."""
    return render_mics(scene, *sweep_mod._draw_sources(config, scene, n), config.snr_db)


def quick_config(**overrides):
    base = {
        "duration_s": 1.5,
        "Lw": 12,
        "Lg": 12,
        "Lh": 12,
        "delta_range": [0, 4, 1],
    }
    base.update(overrides)
    return SweepConfig.from_dict(base)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_config_defaults_validate():
    cfg = SweepConfig.from_dict({})
    assert cfg.Lw == 48 and cfg.target_kind == "error_mic"
    assert cfg.deltas() == list(range(25))


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        SweepConfig.from_dict({"Lw2": 3})


def test_config_rejects_bad_delta_range():
    with pytest.raises(ConfigError, match="delta_range"):
        SweepConfig.from_dict({"delta_range": [4, 2, 1]})
    with pytest.raises(ConfigError, match="delta_range"):
        SweepConfig.from_dict({"delta_range": "0:24"})


def test_config_enforces_causality_bound():
    with pytest.raises(ConfigError, match="causality"):
        SweepConfig.from_dict({"target_kind": "reference_mic", "delta_range": [0, 48, 1]})
    # error-mic target allows up to L-1 = 94
    SweepConfig.from_dict({"target_kind": "error_mic", "delta_range": [0, 94, 1]})
    with pytest.raises(ConfigError, match="causality"):
        SweepConfig.from_dict({"target_kind": "error_mic", "delta_range": [0, 95, 1]})


@pytest.mark.parametrize("target_kind", TARGET_KINDS)
@pytest.mark.parametrize("Lw, Lg, Lh", [(4, 4, 5), (12, 12, 12), (3, 8, 20), (48, 48, 48)])
def test_config_and_constraint_share_one_delay_bound(target_kind, Lw, Lg, Lh):
    """check_delta and build_constraint both accept exactly 0 .. max_delay."""
    bound = max_delay(target_kind, Lh, Lg + Lw - 1)
    config = SweepConfig(Lw=Lw, Lg=Lg, Lh=Lh, target_kind=target_kind)
    reirs = ReIRSet(h=np.random.default_rng(Lh).standard_normal((3, Lh)), spatial_ref=1)
    config.check_delta(bound, "delta")
    f = build_constraint(reirs, [1.0], target_kind, bound, Lw, Lg).f
    mic = target_mic(target_kind, reirs.spatial_ref)
    reir = reirs.h[mic] if mic == -1 else np.eye(1, Lh)[0]
    expected = np.concatenate([np.zeros(bound), reir, np.zeros(f.size)])[: f.size]
    np.testing.assert_array_equal(f, expected)
    for delta in (-1, bound + 1):
        with pytest.raises(ConfigError, match="causality"):
            config.check_delta(delta, "delta")
        with pytest.raises(ValueError, match="delay"):
            build_constraint(reirs, [1.0], target_kind, delta, Lw, Lg)


def test_unknown_target_kind_is_refused_by_the_solver():
    with pytest.raises(ValueError, match="target_kind"):
        target_mic("loudspeaker", 0)
    with pytest.raises(ValueError, match="target_kind"):
        max_delay("loudspeaker", 8, 8)


def test_config_psi_parsing():
    assert SweepConfig.from_dict({"psi": "off"}).psi is None
    assert SweepConfig.from_dict({"psi": 120}).psi == 120.0
    with pytest.raises(ConfigError, match="psi"):
        SweepConfig.from_dict({"psi": 9000})
    with pytest.raises(ConfigError, match="psi"):
        SweepConfig.from_dict({"psi": "high"})


def test_config_rejects_bad_target_kind_and_scene():
    with pytest.raises(ConfigError, match="target_kind"):
        SweepConfig.from_dict({"target_kind": "loudspeaker"})
    with pytest.raises(ConfigError, match="scene.kind"):
        SweepConfig.from_dict({"scene": {"kind": "recorded"}})


def test_config_from_json_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        SweepConfig.from_json(tmp_path / "nope.json")


# ---------------------------------------------------------------------------
# sweep behavior
# ---------------------------------------------------------------------------


def test_run_sweep_rows_ordered_and_complete():
    rows = run_sweep(quick_config())
    assert [r.delta for r in rows] == [0, 1, 2, 3, 4]
    for r in rows:
        assert r.error == ""
        assert np.isfinite(r.nr_db) and np.isfinite(r.effort)


def test_run_sweep_error_rows_continue(monkeypatch):
    real = sweep_mod._constraint_vector

    def non_finite_at_two(reirs, psi, target_kind, delta, L):
        f = real(reirs, psi, target_kind, delta, L)
        return f * np.nan if delta == 2 else f

    monkeypatch.setattr(sweep_mod, "_constraint_vector", non_finite_at_two)
    rows = run_sweep(quick_config())
    assert rows[2].error.startswith("SingularSystemError: design produced non-finite taps")
    assert np.isnan(rows[2].nr_db)
    assert all(r.error == "" for i, r in enumerate(rows) if i != 2)


def test_run_sweep_programming_error_propagates(monkeypatch):
    real = sweep_mod._constraint_vector

    def flaky(reirs, psi, target_kind, delta, L):
        if delta == 2:
            raise RuntimeError("boom")
        return real(reirs, psi, target_kind, delta, L)

    monkeypatch.setattr(sweep_mod, "_constraint_vector", flaky)
    with pytest.raises(RuntimeError, match="boom"):
        run_sweep(quick_config())


@pytest.mark.parametrize("stage", ["_sdi_db", "quality_proxy"])
def test_run_sweep_programming_error_in_the_pool_propagates(monkeypatch, stage):
    """A non-numeric exception raised while a worker thread scores a delay,
    in its form scoring (``_sdi_db``) or its quality proxy, leaves
    run_sweep; it does not become an error row."""
    import ssanc.metrics
    from ssanc.simulate import realize_target

    cfg = quick_config()
    prep = sweep_mod.prepare_scene(cfg)
    at_two = realize_target(prep.mics, cfg.target_kind, 2, prep.scene.spatial_ref)
    # each stage knows delta = 2 by its target: _sdi_db by the energy, quality_proxy by the signal
    at_delta_two = {
        "_sdi_db": lambda residual, target: target == float(np.einsum("i,i", at_two, at_two)),
        "quality_proxy": lambda t, u: np.array_equal(t, at_two),
    }[stage]
    real = getattr(ssanc.metrics, stage)

    def flaky(a, b):
        if at_delta_two(a, b):
            raise RuntimeError("boom")
        return real(a, b)

    monkeypatch.setattr(ssanc.metrics, stage, flaky)
    with pytest.raises(RuntimeError, match="boom"):
        run_sweep(cfg)


@pytest.mark.parametrize("stage", ["draw"])
def test_render_thread_keeps_the_callers_numpy_error_state(tmp_path, monkeypatch, capsys, stage):
    """Under np.errstate(divide="raise") a division by zero while the noise
    source is drawn, on the draw's second thread, is a FloatingPointError:
    ``ssanc design`` exits 2, as it would if the noise were drawn on the
    calling thread."""
    config = quick_config()
    module, name, is_noise = {
        "draw": (ssanc.signals, "speech_shaped_noise", lambda n, fs, seed: seed == config.seed + 1),
    }[stage]
    real, threads = getattr(module, name), []

    def divides_by_zero_on_the_noise(*args):
        if is_noise(*args):
            threads.append(threading.current_thread())
            np.log10(np.zeros(1))
        return real(*args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(module, name, divides_by_zero_on_the_noise)
    cfg = write_quick_config(tmp_path)
    with np.errstate(divide="raise"):
        assert cli_main(["design", "--config", str(cfg), "--delta", "0", "--out", str(tmp_path / "f.json")]) == 2
    assert "numeric failure: FloatingPointError" in capsys.readouterr().err
    assert len(threads) == 1 and threads[0] is not threading.main_thread()


@pytest.mark.parametrize("stage", ["_nr_db", "quality_proxy"])
def test_worker_threads_keep_the_callers_numpy_error_state(monkeypatch, stage):
    """Under np.errstate(divide="raise") a division by zero in a pooled
    task's form scoring (``_nr_db``) or quality proxy is a
    FloatingPointError, and so an error row, as it would be on the
    calling thread."""
    import ssanc.metrics

    def divides_by_zero(a, b):
        return float(np.log10(np.zeros(1))[0])

    monkeypatch.setattr(ssanc.metrics, stage, divides_by_zero)
    with np.errstate(divide="raise"):
        rows = run_sweep(quick_config())
    assert all(r.error.startswith("FloatingPointError") for r in rows), [r.error for r in rows]


def test_design_takes_no_full_spectrum(monkeypatch):
    # beta and rho come from Lanczos runs: eigvalsh and eigh see only their <= 40 x 40 tridiagonals
    shapes = []

    def recording(real):
        def call(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)
        return call

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    sweep_mod._prepare_design(SweepConfig.from_json(ROOT / "configs" / "fig3_synthetic.json"))
    assert shapes and max(max(shape) for shape in shapes) <= 40


def test_sweep_forms_each_target_once(monkeypatch):
    """A fig3 sweep forms the target microphone's delayed speech once: each
    delay's target, as the quality proxy receives it, is a view of one
    zero-led copy of that row, not an N-sample copy of its own, and holds
    the row delayed by the delay."""
    import ssanc.metrics

    targets = []
    real = ssanc.metrics.quality_proxy

    def recorded(t, u):
        targets.append(t)
        return real(t, u)

    monkeypatch.setattr(ssanc.metrics, "quality_proxy", recorded)
    config = SweepConfig.from_json(ROOT / "configs" / "fig3_synthetic.json")
    rows = run_sweep(config)
    assert all(r.error == "" for r in rows)
    row = targets[0].base
    assert len(targets) == len(config.deltas())
    assert all(t.base is row and t.flags.c_contiguous for t in targets)
    speech = sweep_mod.prepare_scene(config).mics.s[-1]
    lead = row.shape[0] - speech.shape[0]  # the zeros before the row
    delays = [lead - (t.ctypes.data - row.ctypes.data) // t.itemsize for t in targets]
    assert sorted(delays) == config.deltas()
    for delta, t in zip(delays, targets):
        np.testing.assert_array_equal(t, np.concatenate([np.zeros(delta), speech[: speech.shape[0] - delta]]))


def test_sweep_deterministic_csv_bytes(tmp_path):
    cfg = quick_config()
    for name in ("a.csv", "b.csv"):
        write_rows_csv(run_sweep(cfg), tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_columns_and_timings(tmp_path):
    """The design_ms column stays in the header and is written empty, even for a row that carries a time."""
    rows = [SweepRow(delta=0, nr_db=1.5, sdi_db=-3.0, quality_db=0.5, effort=2.0,
                     constraint_residual=1e-9, design_ms=12.5)]
    write_rows_csv(rows, tmp_path / "x.csv")
    header, line = (tmp_path / "x.csv").read_text().splitlines()[:2]
    assert header == "delta,nr_db,sdi_db,quality_db,effort,constraint_residual,design_ms,error"
    assert line == "0,1.5,-3.0,0.5,2.0,1e-09,,"


def test_csv_is_crlf_terminated(tmp_path):
    write_rows_csv([SweepRow(delta=0)], tmp_path / "x.csv")
    assert b"\r\n" in (tmp_path / "x.csv").read_bytes()


def test_zero_latency_scene_runs():
    cfg = quick_config(
        scene=FIG5_SCENE, target_kind="reference_mic",
        Lw=48, Lg=48, Lh=48, delta_range=[0, 2, 1],
    )
    rows = run_sweep(cfg)
    assert all(r.error == "" for r in rows)


def test_secondary_path_padding(tmp_path):
    scene = default_scene_dict()
    scene["g_taps"] = [0.0, 1.0, 0.5]  # shorter than Lg: padded with a warning
    cfg = quick_config(scene=scene)
    with pytest.warns(UserWarning, match="zero-padding"):
        rows = run_sweep(cfg)
    assert all(r.error == "" for r in rows)

    scene_long = default_scene_dict()
    scene_long["g_taps"] = [0.0] + [0.1] * 20  # longer than Lg: refuse to truncate
    with pytest.raises(ConfigError, match="raise Lg"):
        run_sweep(quick_config(scene=scene_long))


def write_manifest_scene(directory, fs=16000) -> dict:
    """A two-microphone WAV scene in directory, as a config's scene entry."""
    names = {"speech_irs": [], "noise_irs": []}
    for role, delays in (("speech_irs", [2, 4]), ("noise_irs", [3, 1])):
        for m, d in enumerate(delays):
            ir = np.zeros(8)
            ir[d] = 1.0
            name = f"{role[:-4]}_{m}.wav"
            wavio.write_wav(directory / name, 16000, ir)
            names[role].append(name)
    g = np.zeros(12)
    g[1] = 1.0
    wavio.write_wav(directory / "g.wav", 16000, g)
    manifest = {"fs": fs, "mics": 2, **names, "secondary": "g.wav", "spatial_ref": 0}
    (directory / "scene.json").write_text(json.dumps(manifest))
    return {"kind": "manifest", "dir": str(directory), "manifest": "scene.json"}


def test_manifest_scene_through_config(tmp_path):
    rows = run_sweep(quick_config(scene=write_manifest_scene(tmp_path)))
    assert all(r.error == "" for r in rows)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_quick_config(tmp_path, **overrides):
    cfg = {
        "duration_s": 1.5, "Lw": 12, "Lg": 12, "Lh": 12,
        "delta_range": [0, 3, 1], "out": str(tmp_path / "rows.csv"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("command", ["sweep", "design"])
def test_cli_empty_manifest_ir_is_one_line_error(tmp_path, capsys, command):
    from ssanc import wavio

    names = {"speech_irs": [], "noise_irs": []}
    for role in names:
        for m in range(3):
            ir = np.zeros(0 if (role, m) == ("speech_irs", 1) else 40)
            ir[: min(ir.size, 1)] = 1.0
            names[role].append(f"{role[:-4]}_{m}.wav")
            wavio.write_wav(tmp_path / names[role][-1], 16000, ir)
    wavio.write_wav(tmp_path / "g.wav", 16000, np.eye(10)[1])
    (tmp_path / "scene.json").write_text(json.dumps({
        "fs": 16000, "mics": 3, **names, "secondary": "g.wav", "spatial_ref": 0,
    }))
    cfg = write_quick_config(
        tmp_path, Lg=10, scene={"kind": "manifest", "dir": str(tmp_path), "manifest": "scene.json"}
    )
    argv = [command, "--config", str(cfg)] + (["--delta", "1"] if command == "design" else [])
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "at least one tap" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "key, value",
    [("fs", 16000.5), ("fs", "16000"), ("mics", 3.9), ("spatial_ref", 1.7), ("spatial_ref", True),
     ("speech_irs", "abc")],
)
def test_cli_malformed_manifest_is_one_line_error(tmp_path, capsys, key, value):
    from ssanc import wavio

    names = {"speech_irs": [], "noise_irs": []}
    for role in names:
        for m in range(3):
            names[role].append(f"{role[:-4]}_{m}.wav")
            wavio.write_wav(tmp_path / names[role][-1], 16000, np.eye(40)[m])
    wavio.write_wav(tmp_path / "g.wav", 16000, np.eye(10)[1])
    manifest = {"fs": 16000, "mics": 3, **names, "secondary": "g.wav", "spatial_ref": 0}
    (tmp_path / "scene.json").write_text(json.dumps({**manifest, key: value}))
    scene = {"kind": "manifest", "dir": str(tmp_path), "manifest": "scene.json"}
    assert key in sweep_config_error(tmp_path, capsys, {}, scene=scene)


def test_cli_sweep_writes_csv(tmp_path, capsys):
    cfg = write_quick_config(tmp_path)
    assert cli_main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "rows.csv").exists()
    assert "wrote 4 rows" in capsys.readouterr().out


def test_cli_sweep_determinism_with_seed_flag(tmp_path):
    cfg = write_quick_config(tmp_path)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--seed", "7", "--out", str(out1)]) == 0
    assert cli_main(["sweep", "--config", str(cfg), "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_design_exports_filter(tmp_path, capsys):
    cfg = write_quick_config(tmp_path)
    out = tmp_path / "filter.json"
    assert cli_main(["design", "--config", str(cfg), "--delta", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["K"] == 2 and payload["Lw"] == 12
    assert "filter_norm" in payload["diagnostics"]
    assert "filter_norm=" in capsys.readouterr().out


def test_cli_design_unscalable_scene_is_config_error(tmp_path):
    # silent noise source: the requested SNR cannot be realized
    scene = default_scene_dict()
    scene["tail_amp"] = 0.0
    scene["gains"] = [[1.0, 0.0], [0.8, 0.0], [0.6, 0.0]]
    cfg = write_quick_config(tmp_path, scene=scene, Lw=8, Lg=8, Lh=8)
    out = tmp_path / "filter.json"
    assert cli_main(["design", "--config", str(cfg), "--delta", "0", "--out", str(out)]) == 1
    fixed = json.loads(cfg.read_text())
    fixed["scene"]["gains"] = [[1.0, 0.2], [0.8, 0.2], [0.6, 0.2]]
    cfg.write_text(json.dumps(fixed))
    assert cli_main(["design", "--config", str(cfg), "--delta", "0", "--out", str(out)]) == 0


def test_cli_simulate_writes_wavs(tmp_path):
    cfg = write_quick_config(tmp_path)
    flt = tmp_path / "filter.json"
    assert cli_main(["design", "--config", str(cfg), "--delta", "1", "--out", str(flt)]) == 0
    out_dir = tmp_path / "sim"
    assert cli_main([
        "simulate", "--config", str(cfg), "--filter", str(flt),
        "--delta", "1", "--out", str(out_dir),
    ]) == 0
    for name in ("y", "e", "e_s", "e_v"):
        assert (out_dir / f"{name}.wav").exists()


def test_cli_simulate_renders_without_reir_estimation(tmp_path, monkeypatch):
    cfg = write_quick_config(tmp_path)
    flt = tmp_path / "filter.json"
    assert cli_main(["design", "--config", str(cfg), "--delta", "1", "--out", str(flt)]) == 0
    config = SweepConfig.from_json(cfg)
    prep = sweep_mod.prepare_scene(config)

    def unused(*args, **kwargs):
        raise AssertionError("simulate must not estimate ReIRs")

    monkeypatch.setattr(sweep_mod, "estimate_reirs", unused)
    mics = render_sources(config, *sweep_mod._checked_scene(config, design=False, sim_taps=config.Lw))
    for name in ("s", "v"):
        assert np.array_equal(getattr(mics, name), getattr(prep.mics, name))
    assert cli_main([
        "simulate", "--config", str(cfg), "--filter", str(flt), "--delta", "1", "--out", str(tmp_path / "sim"),
    ]) == 0


@pytest.mark.parametrize("command", ["design", "simulate", "sweep"])
def test_every_command_renders_once(tmp_path, monkeypatch, command):
    """No command renders a microphone stack: with any convolution of a source
    with more than one response made to raise, wherever ``ssanc`` names it,
    ``ssanc design`` convolves nothing, its SNR gain read from the sources'
    lag correlations, and ``ssanc simulate`` and ``ssanc sweep`` convolve the
    target microphone's speech row alone, for the target
    (``metrics._RowScores``).  The ReIR fit reads the white noise through
    its correlations, unrendered."""
    cfg = write_quick_config(tmp_path)
    flt = tmp_path / "filter.json"
    assert cli_main(["design", "--config", str(cfg), "--delta", "1", "--out", str(flt)]) == 0
    rows = []

    def counted(irs, x, out=None):
        if len(irs) > 1:
            raise AssertionError(f"ssanc {command} rendered a microphone stack")
        rows.append(x.shape)
        return convolve(irs, x, out)

    convolve = sys.modules["ssanc.scene"]._convolved
    for name, module in list(sys.modules.items()):
        if name.startswith("ssanc.") and getattr(module, "_convolved", None) is convolve:
            monkeypatch.setattr(module, "_convolved", counted)
    extra = {
        "design": ["--delta", "1", "--out", str(tmp_path / "f.json")],
        "simulate": ["--filter", str(flt), "--delta", "1", "--out", str(tmp_path / "sim")],
        "sweep": ["--out", str(tmp_path / "rows.csv")],
    }[command]
    assert cli_main([command, "--config", str(cfg), *extra]) == 0
    n = int(round(SweepConfig.from_json(cfg).duration_s * 16000))
    assert rows == ([] if command == "design" else [(n,)])


def test_simulate_never_renders_or_applies_control(tmp_path, monkeypatch):
    """``ssanc simulate`` forms its run from the two sources
    (``metrics._RowScores.run``): with ``render_mics`` and
    ``apply_control`` made to raise wherever ``ssanc`` names them, it still
    writes its five WAVs."""
    cfg = write_quick_config(tmp_path)
    flt, sim = tmp_path / "filter.json", tmp_path / "sim"
    assert cli_main(["design", "--config", str(cfg), "--delta", "1", "--out", str(flt)]) == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("ssanc simulate reached a microphone stack")

    for name, module in list(sys.modules.items()):
        if name == "ssanc" or name.startswith("ssanc."):
            for function in ("render_mics", "apply_control"):
                if hasattr(module, function):
                    monkeypatch.setattr(module, function, forbidden)
    assert cli_main(["simulate", "--config", str(cfg), "--filter", str(flt), "--delta", "1", "--out", str(sim)]) == 0
    assert sorted(path.name for path in sim.iterdir()) == ["e.wav", "e_s.wav", "e_v.wav", "t.wav", "y.wav"]


@pytest.mark.parametrize("command", ["design", "sweep"])
def test_design_and_sweep_take_one_lag_pass_over_the_sources(tmp_path, monkeypatch, command):
    """A design or a sweep takes exactly one ``lagged_products`` pass over its two
    sources, which the design's statistics and the sweep's scores share, and
    one over the ReIR fit's white draw, and correlates nothing else."""
    cfg = write_quick_config(tmp_path)
    calls = []

    def counted(a, b, L):
        calls.append(a.shape)
        return lagged(a, b, L)

    lagged = sys.modules["ssanc.convmat"].lagged_products
    for name, module in list(sys.modules.items()):
        if name.startswith("ssanc.") and getattr(module, "lagged_products", None) is lagged:
            monkeypatch.setattr(module, "lagged_products", counted)
    extra = {
        "design": ["--delta", "1", "--out", str(tmp_path / "f.json")],
        "sweep": ["--out", str(tmp_path / "rows.csv")],
    }[command]
    assert cli_main([command, "--config", str(cfg), *extra]) == 0
    n = int(round(SweepConfig.from_json(cfg).duration_s * 16000))
    assert calls == [(2, n), (1, n)]  # the speech and the noise, then the white draw


def run_fresh(code, *args, timeout=120):
    """stdout of ``python -c code *args`` in a fresh interpreter that finds ``ssanc``."""
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=timeout, check=True,
    ).stdout


def test_psi_off_sweep_never_imports_scipy_signal(tmp_path):
    """The import set of a fresh process, stage by stage, in one interpreter.

    ``import ssanc`` and ``ssanc simulate`` load no scipy module at all;
    a sweep, with ψ off or on, never loads scipy.signal.
    """
    cfg = write_quick_config(tmp_path)
    flt = tmp_path / "filter.json"
    assert cli_main(["design", "--config", str(cfg), "--delta", "1", "--out", str(flt)]) == 0
    code = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import ssanc\n"
        "print('loaded', scipy_modules())\n"
        "from ssanc.sweep import SweepConfig, cli_main, run_sweep\n"
        "argv = ['simulate', '--config', sys.argv[1], '--filter', sys.argv[2], '--out', sys.argv[3]]\n"
        "assert cli_main(argv) == 0\n"
        "print('loaded', scipy_modules())\n"
        "for psi in ('off', 100.0):\n"
        "    config = {**json.loads(sys.argv[4]), 'psi': psi}\n"
        "    rows = run_sweep(SweepConfig.from_dict(config))\n"
        "    assert all(r.error == '' for r in rows)\n"
        "    print('loaded', 'scipy.signal' in sys.modules)\n"
    )
    config = {"duration_s": 1.5, "Lw": 12, "Lg": 12, "Lh": 12, "delta_range": [0, 2, 1]}
    out = run_fresh(code, str(cfg), str(flt), str(tmp_path / "sim"), json.dumps(config))
    loaded = [line for line in out.splitlines() if line.startswith("loaded ")]
    assert loaded == ["loaded []", "loaded []", "loaded False", "loaded False"]


def test_design_and_sweep_never_import_scipy(tmp_path):
    """``ssanc design``, a sweep, with ψ off or on, and ``ssanc verify``,
    KKT oracle included, run on numpy alone."""
    configs = []
    for psi in ("off", 100.0):
        (tmp_path / str(psi)).mkdir()
        configs.append(str(write_quick_config(tmp_path / str(psi), psi=psi)))
    code = (
        "import sys\n"
        "from ssanc.sweep import SweepConfig, cli_main, run_sweep\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "for cfg in sys.argv[1:]:\n"
        "    out = cfg + '.filter.json'\n"
        "    assert cli_main(['design', '--config', cfg, '--delta', '1', '--out', out]) == 0\n"
        "    print('loaded', scipy_modules())\n"
        "    assert all(r.error == '' for r in run_sweep(SweepConfig.from_json(cfg)))\n"
        "    print('loaded', scipy_modules())\n"
        "assert cli_main(['verify', '--trials', '2']) == 0\n"
        "print('loaded', scipy_modules())\n"
    )
    loaded = [line for line in run_fresh(code, *configs).splitlines() if line.startswith("loaded ")]
    assert loaded == ["loaded []"] * 5


def test_wav_inputs_never_import_scipy(tmp_path):
    """``ssanc design``, ``ssanc sweep`` and ``ssanc simulate`` on a WAV manifest
    scene with WAV speech and noise sources read every WAV on numpy alone."""
    rng = np.random.default_rng(3)
    for name in ("speech.wav", "noise.wav"):
        wavio.write_wav(tmp_path / name, 16000, rng.standard_normal(24000))
    cfg = write_quick_config(
        tmp_path, scene=write_manifest_scene(tmp_path),
        speech_wav=str(tmp_path / "speech.wav"), noise_wav=str(tmp_path / "noise.wav"),
    )
    code = (
        "import sys\n"
        "from ssanc.sweep import cli_main\n"
        "cfg, flt, sim = sys.argv[1:]\n"
        "assert cli_main(['design', '--config', cfg, '--delta', '1', '--out', flt]) == 0\n"
        "assert cli_main(['sweep', '--config', cfg]) == 0\n"
        "assert cli_main(['simulate', '--config', cfg, '--filter', flt, '--delta', '1', '--out', sim]) == 0\n"
        "print('loaded', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = run_fresh(code, str(cfg), str(tmp_path / "filter.json"), str(tmp_path / "sim"))
    assert [line for line in out.splitlines() if line.startswith("loaded ")] == ["loaded []"]
    assert (tmp_path / "rows.csv").exists() and (tmp_path / "sim" / "e.wav").exists()


def longest_response(config) -> int:
    """The taps of the longest impulse response of a config's synthetic scene, which
    ``_memory_need`` counts for the sweep's scores (``scene.default_ir_len``)."""
    sc = config.scene
    if sc.get("ir_len") is not None:
        return sc["ir_len"]
    return sweep_mod.default_ir_len(sc["speech_delays"] + sc["noise_delays"], sc.get("tail_amp", 0.0), sc.get("tail_decay", 6.0))


def test_design_matrices_that_cannot_fit_are_refused(tmp_path):
    """Lw = Lg = 4000 at K = 2 needs about 2.3 GiB of design matrices; under a
    1.5 GiB address-space limit, set in the child process only, ``ssanc
    design`` exits 1 with one line before it allocates them."""
    cfg = write_quick_config(tmp_path, Lw=4000, Lg=4000)
    config = SweepConfig.from_json(cfg)
    assert sweep_mod._memory_need(config, 2, 24000, design=True, sim_taps=None, ir_len=longest_response(config)) > 2 * 2**30
    code = (
        "import resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "soft = 3 * 2**29 if hard == resource.RLIM_INFINITY else min(3 * 2**29, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
        "import contextlib, io\n"
        "from ssanc.sweep import cli_main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        "    code = cli_main(['design', '--config', sys.argv[1], '--delta', '0', '--out', sys.argv[2]])\n"
        "print(code)\n"
        "print(err.getvalue(), end='')\n"
    )
    out = run_fresh(code, str(cfg), str(tmp_path / "filter.json")).splitlines()
    assert out[0] == "1"
    assert len(out) == 2 and out[1].startswith("config error:")
    assert "design matrices" in out[1] and "GiB" in out[1]
    assert not (tmp_path / "filter.json").exists()


def test_cli_verify_passes(capsys):
    assert cli_main(["verify", "--trials", "5", "--seed", "3"]) == 0
    assert "deviation" in capsys.readouterr().out


def test_cli_verify_with_dims(capsys):
    assert cli_main(["verify", "--verify-dims", "4,3,3", "--trials", "5"]) == 0
    assert cli_main(["verify", "--verify-dims", "4x3", "--trials", "2"]) == 1


def test_cli_config_errors_exit_one(tmp_path, capsys):
    assert cli_main(["sweep", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"target_kind": "nonsense"}))
    assert cli_main(["sweep", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("duration_s", float("nan")),
        ("Lw", 48.5),
        ("snr_db", "abc"),
        ("beta_div", float("nan")),
        ("fs", 16000.5),
        ("Lh", "48"),
        ("seed", True),
        ("psi", float("inf")),
        ("rho_div", float("-inf")),
        ("seed", -1),
        ("delta_range", [0, 10.7, 1]),
        ("delta_range", [True, 10, 1]),
        ("snr_db", 1e308),
        ("out", 5),
        ("speech_wav", 5),
        ("noise_wav", ["noise.wav"]),
        ("reir_reg", -1.0),
        ("reir_reg", -1e12),
    ],
)
def test_cli_mistyped_config_value_is_one_line_error(tmp_path, capsys, key, value):
    # "out" is read only when --out is absent
    err = sweep_config_error(tmp_path, capsys, {key: value}, out=key != "out")
    assert key in err


def sweep_config_error(tmp_path, capsys, overrides, scene=None, out=True):
    """stderr of a fig3 sweep with overridden keys, checked to be one config-error line."""
    cfg = json.loads((Path(__file__).parents[1] / "configs" / "fig3_synthetic.json").read_text())
    cfg.update(overrides)
    cfg["scene"].update(scene or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    argv = ["sweep", "--config", str(path)] + (["--out", str(tmp_path / "rows.csv")] if out else [])
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "key, value",
    [
        ("K", 2.5),
        ("sec_delay", "2"),
        ("speech_delays", [6, 8.5, 10]),
        ("gains", [[1.0, 0.7], [0.8, float("nan")], [0.6, 0.8]]),
        ("tail_amp", float("nan")),
        ("tail_decay", float("inf")),
        ("tail_decay", 0.0),
        ("spatial_ref", True),
        ("ir_len", 40.5),
        ("seed", False),
        ("g_taps", "abc"),
        ("g_taps", [[1, 2], [3]]),
        ("g_taps", [True, 1.0]),
        ("dir", 5),
        ("manifest", [1]),
    ],
)
def test_cli_mistyped_scene_value_is_one_line_error(tmp_path, capsys, key, value):
    manifest = {"kind": "manifest", "dir": str(tmp_path), "manifest": "scene.json"}
    scene = {**(manifest if key in manifest else {}), key: value}
    err = sweep_config_error(tmp_path, capsys, {}, scene=scene)
    assert key in err


@pytest.mark.parametrize(
    "overrides, scene, words",
    [
        ({"fs": 100}, {}, "quality-proxy frame"),
        ({"duration_s": 1, "Lh": 4100}, {}, "ReIR fit"),
        ({"Lg": 10**9}, {}, "frame history"),
        ({}, {"speech_delays": [6, 8, 100000]}, "impulse responses"),
        ({}, {"tail_decay": 1e12}, "impulse responses"),
        ({"Lw": 2, "Lg": 3, "psi": 100.0, "delta_range": [0, 3, 1]}, {"sec_delay": 1}, "psi"),
        ({"duration_s": 1e12}, {}, "memory"),
    ],
    ids=["fs", "Lh", "Lg", "speech-delay", "tail-decay", "psi-taps", "duration"],
)
def test_cli_unrunnable_config_is_refused_up_front(tmp_path, capsys, overrides, scene, words):
    err = sweep_config_error(tmp_path, capsys, overrides, scene=scene)
    assert words in err



@pytest.mark.parametrize("command", ["sweep", "design", "simulate"])
def test_cli_silent_spatial_reference_is_refused(tmp_path, monkeypatch, capsys, command):
    """A spatial reference that hears no speech leaves the ReIRs and the
    reference-mic target undefined: one config-error line, exit 1."""
    monkeypatch.chdir(tmp_path)
    cfg = json.loads((ROOT / "configs" / "fig5_synthetic.json").read_text())
    cfg["scene"]["gains"][0] = [0.0, 0.7]
    cfg.update(reir_reg=1e-3, delta_range=[0, 2, 1])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    zero = tmp_path / "zero.json"  # fig5 has K = 2 reference microphones and Lw = 48
    zero.write_text(json.dumps({"K": 2, "Lw": 48, "w": np.zeros((3, 48)).tolist()}))
    extra = {"sweep": [], "design": ["--delta", "0"], "simulate": ["--filter", str(zero)]}[command]
    assert cli_main([command, "--config", str(path), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert "spatial reference microphone 0 is silent" in err
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("design_*.json"))


def forbid_sources(monkeypatch):
    """Make drawing or loading a source signal fail the test."""
    def drawn(*args, **kwargs):
        raise AssertionError("a source signal was drawn before the refusal")

    monkeypatch.setattr(ssanc.signals, "speech_shaped_noise", drawn)
    monkeypatch.setattr(sweep_mod, "_load_source", drawn)


def one_config_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1, err
    return err


@pytest.mark.parametrize("command", ["design", "sweep"])
def test_running_out_of_memory_is_one_line_error(tmp_path, monkeypatch, capsys, command):
    """A ``MemoryError`` raised mid-command, here by the design stage, exits 1
    with one config-error line naming memory, not a traceback."""

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 15.0 MiB for an array with shape (1400, 1400) and data type float64")

    monkeypatch.setattr(sweep_mod, "_prepare_design", exhausted)
    cfg = write_quick_config(tmp_path)
    extra = ["--delta", "0"] if command == "design" else []
    assert cli_main([command, "--config", str(cfg), *extra, "--out", str(tmp_path / "out")]) == 1
    err = one_config_error(capsys)
    assert "out of memory" in err and "1400" in err
    assert not (tmp_path / "out").exists()


def test_synthetic_design_matrices_are_refused_before_rendering(tmp_path, monkeypatch, capsys):
    """``ssanc design`` refuses its design matrices before any source is drawn,
    and does not count the simulation spectra it never allocates."""
    forbid_sources(monkeypatch)
    monkeypatch.setattr(sweep_mod, "_available_memory", lambda: 2**20)
    cfg = write_quick_config(tmp_path)
    assert cli_main(["design", "--config", str(cfg), "--delta", "0", "--out", str(tmp_path / "f.json")]) == 1
    err = one_config_error(capsys)
    assert "design matrices of K = 2" in err and "memory" in err and "GiB" in err
    assert "simulation spectra" not in err


def test_simulation_spectra_that_cannot_fit_are_refused(tmp_path, monkeypatch, capsys):
    """The block spectra of both sources (``convmat.Blocks``) and the run's four
    signals count toward the memory ``ssanc simulate`` must fit in: room for
    the draw alone is refused."""
    monkeypatch.chdir(tmp_path)
    cfg = write_quick_config(tmp_path, duration_s=10.0)
    config = SweepConfig.from_json(cfg)
    n = int(config.duration_s * config.fs)
    signals = sweep_mod._memory_need(config, 2, n, design=False, sim_taps=None, ir_len=longest_response(config))
    need = sweep_mod._memory_need(config, 2, n, design=False, sim_taps=config.Lw, ir_len=longest_response(config))
    # three n-sample arrays on each of the two threads that draw the sources
    assert signals == 6 * 8 * n
    # 160000 samples in 4016-sample hops of f's 81 taps: 40 blocks of 2049
    # bins, speech and noise; the sources' correlations over 81 lags, eight
    # arrays of 82 bins, and the spectra of the scene's six responses and of
    # g; the target led by the last delay's 3 zeros; and the run's four signals
    assert need == 2 * 40 * 2049 * 16 + 16 * (8 + 7) * 82 + 8 * (n + 3) + 4 * 8 * n > signals
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"K": 2, "Lw": 12, "w": np.zeros((3, 12)).tolist()}))
    argv = ["simulate", "--config", str(cfg), "--filter", str(zero)]
    monkeypatch.setattr(sweep_mod, "_available_memory", lambda: need - 1)
    assert cli_main(argv) == 1
    err = one_config_error(capsys)
    assert "simulation spectra" in err and "memory" in err and "GiB" in err
    assert "design matrices" not in err
    monkeypatch.setattr(sweep_mod, "_available_memory", lambda: need)
    assert cli_main(argv) == 0


def test_design_fits_where_a_sweep_does_not(tmp_path, monkeypatch, capsys):
    """On 1.5 s signals a sweep's scoring phase, on one thread, needs more
    than the design phase it follows; between the need of a design and
    that of a one-thread sweep, ``ssanc design`` runs and ``ssanc sweep``
    is refused."""
    cfg = write_quick_config(tmp_path)
    config = SweepConfig.from_json(cfg)
    n = int(config.duration_s * config.fs)
    design = sweep_mod._memory_need(config, 2, n, design=True, sim_taps=None, ir_len=longest_response(config))
    sweep = sweep_mod._memory_need(config, 2, n, design=True, sim_taps=config.Lw, ir_len=longest_response(config))
    assert design < sweep
    monkeypatch.setattr(sweep_mod, "_available_memory", lambda: (design + sweep) // 2)
    assert cli_main(["design", "--config", str(cfg), "--delta", "0", "--out", str(tmp_path / "f.json")]) == 0
    capsys.readouterr()
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 1
    err = one_config_error(capsys)
    assert "design matrices" in err and "simulation spectra" in err and "memory" in err and "GiB" in err
    assert not (tmp_path / "rows.csv").exists()


def test_a_sweep_that_fits_on_one_thread_runs_on_a_many_core_host(tmp_path, monkeypatch):
    """With 64 CPUs and just the memory of a one-thread sweep, ``ssanc sweep``
    runs on fewer threads instead of being refused, and writes the
    default run's CSV."""
    cfg = write_quick_config(tmp_path)
    config = SweepConfig.from_json(cfg)
    n = int(config.duration_s * config.fs)
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "default.csv")]) == 0
    ir_len = longest_response(config)
    one = sweep_mod._memory_need(config, 2, n, design=True, sim_taps=config.Lw, ir_len=ir_len)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    monkeypatch.setattr(sweep_mod, "_available_memory", lambda: one)
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 0
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()
    assert sweep_mod._workers(config, 2, n, ir_len) == 1


def test_sweep_runs_where_the_platform_has_no_cpu_affinity(tmp_path, monkeypatch):
    """Without ``os.sched_getaffinity`` (as on macOS) the sweep counts
    ``os.cpu_count()`` CPUs and writes the default run's CSV."""
    cfg = write_quick_config(tmp_path)
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "default.csv")]) == 0
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 0
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()


@pytest.mark.parametrize("fault", ["memory", "malformed", "silent-secondary"])
@pytest.mark.parametrize("kind", ["synthetic", "manifest"])
@pytest.mark.parametrize("command", ["design", "simulate", "sweep"])
def test_every_refusal_comes_before_any_source(tmp_path, monkeypatch, capsys, command, kind, fault):
    """A memory refusal, a malformed scene and an all-zero secondary path (synthetic
    g_taps or a manifest's secondary WAV) exit 1 with one line before either
    source, drawn (speech) or loaded from a WAV file (noise), exists."""
    monkeypatch.chdir(tmp_path)
    wavio.write_wav(tmp_path / "noise.wav", 16000, np.ones(24000))
    malformed = fault == "malformed"
    if kind == "manifest":
        scene = write_manifest_scene(tmp_path, fs=16000.5 if malformed else 16000)
        if fault == "silent-secondary":
            wavio.write_wav(tmp_path / "g.wav", 16000, np.zeros(12))
    else:
        scene = {**default_scene_dict(), "K": 2.5 if malformed else 2}
        if fault == "silent-secondary":
            scene["g_taps"] = [0.0] * 12
    cfg = write_quick_config(tmp_path, scene=scene, noise_wav=str(tmp_path / "noise.wav"))
    zero = tmp_path / "zero.json"  # the manifest scene has 2 microphones, the synthetic one 3
    mics = 2 if kind == "manifest" else 3
    zero.write_text(json.dumps({"K": mics - 1, "Lw": 12, "w": np.zeros((mics, 12)).tolist()}))
    forbid_sources(monkeypatch)
    if fault == "memory":
        monkeypatch.setattr(sweep_mod, "_available_memory", lambda: 2**20)
    extra = {"design": ["--delta", "0"], "simulate": ["--filter", str(zero)], "sweep": []}[command]
    assert cli_main([command, "--config", str(cfg), *extra]) == 1
    err = one_config_error(capsys)
    words = {"memory": "memory", "malformed": "manifest fs" if kind == "manifest" else "scene.K",
             "silent-secondary": "secondary path is silent"}[fault]
    assert words in err


def test_wav_sources_shorter_than_the_duration_shorten_the_sweep(tmp_path):
    rng = np.random.default_rng(0)
    wavio.write_wav(tmp_path / "speech.wav", 16000, rng.standard_normal(24000))
    wavio.write_wav(tmp_path / "noise.wav", 16000, rng.standard_normal(20000))
    config = quick_config(speech_wav=str(tmp_path / "speech.wav"), noise_wav=str(tmp_path / "noise.wav"))
    assert config.duration_s * config.fs == 24000
    assert sweep_mod.prepare_scene(config).mics.N == 20000
    rows = run_sweep(config)
    assert [r.error for r in rows] == [""] * len(rows)
    assert np.all(np.isfinite([[r.nr_db, r.sdi_db, r.quality_db, r.effort] for r in rows]))


def test_wav_source_shorter_than_the_reir_fit_is_refused(tmp_path, capsys):
    """The 16000-sample noise file shortens 32000-sample signals below 4 Lh = 16400."""
    wavio.write_wav(tmp_path / "noise.wav", 16000, np.random.default_rng(1).standard_normal(16000))
    cfg = write_quick_config(tmp_path, duration_s=2.0, Lh=4100, noise_wav=str(tmp_path / "noise.wav"))
    assert cli_main(["sweep", "--config", str(cfg)]) == 1
    assert "signals have 16000 samples; the ReIR fit (4 Lh) needs 16400" in one_config_error(capsys)


def test_wav_source_is_cut_before_it_is_converted(tmp_path, traced_peak):
    """Loading a 10 s WAV source for 1 s signals peaks near the 1 s it keeps,
    not near the file's length: only those samples are read and converted."""
    path = tmp_path / "speech.wav"
    wavio.write_wav(path, 16000, np.random.default_rng(2).standard_normal(160000))
    config = quick_config(duration_s=1.0, speech_wav=str(path))
    wavio.read_wav_mono(path, frames=1)  # import the reader outside the trace
    data, peak = traced_peak(lambda: sweep_mod._load_source(path, config, 16000))
    np.testing.assert_array_equal(data, wavio.read_wav_mono(path)[1][:16000])
    assert peak < 1.5 * data.nbytes, peak  # the file holds 10 times as many


@pytest.mark.parametrize("source", ["stereo", "not-riff"])
def test_unreadable_wav_source_is_one_line_error(tmp_path, capsys, source):
    path = tmp_path / "speech.wav"
    if source == "stereo":
        wavio.write_wav(path, 16000, np.zeros((24000, 2)))
    else:
        path.write_text("not a wave file\n")
    cfg = write_quick_config(tmp_path, speech_wav=str(path))
    assert cli_main(["sweep", "--config", str(cfg)]) == 1
    err = one_config_error(capsys)
    assert str(path) in err and ("mono" if source == "stereo" else "RIFF") in err


def malformed_wav(case) -> bytes:
    """The bytes of a WAV file that is cut short, inconsistent or in an unsupported format."""
    def riff(*chunks, head=b"RIFF"):
        body = b"WAVE" + b"".join(name + struct.pack("<I", size) + data for name, size, data in chunks)
        return head + struct.pack("<I", len(body)) + body

    def fmt(tag=1, bits=16):
        return b"fmt ", 16, struct.pack("<HHIIHH", tag, 1, 16000, 2000 * bits, bits // 8, bits)

    data = (b"data", 200, bytes(200))
    return {
        "riff-only": lambda: b"RIFF",
        "truncated-fmt": lambda: riff((b"fmt ", 16, fmt()[2][:10])),
        "no-data": lambda: riff(fmt()),
        "data-past-end": lambda: riff(fmt(), (b"data", 2000, bytes(200))),
        "a-law": lambda: riff(fmt(tag=6, bits=8), data),
        "pcm12": lambda: riff(fmt(bits=12), data),
        "rf64": lambda: riff(fmt(), data, head=b"RF64"),
        "data-before-fmt": lambda: riff(data, fmt()),
        "short-fmt": lambda: riff((b"fmt ", 10, fmt()[2][:10]), data),
        "short-extensible": lambda: riff(fmt(tag=0xFFFE), data),
    }[case]()


@pytest.mark.parametrize("role", ["speech_wav", "noise_wav", "manifest_ir"])
@pytest.mark.parametrize(
    "case", ["riff-only", "truncated-fmt", "no-data", "data-past-end", "a-law", "pcm12", "rf64"]
)
def test_malformed_wav_is_one_line_error(tmp_path, capsys, case, role):
    """A malformed WAV, as a source or as one IR of a manifest scene, exits 1 with
    one config-error line naming the file, not a traceback; the noise source
    is read on the render's second thread."""
    if role in ("speech_wav", "noise_wav"):
        path = tmp_path / f"{role.split('_')[0]}.wav"
        cfg = write_quick_config(tmp_path, **{role: str(path)})
    else:
        path = tmp_path / "speech_1.wav"
        cfg = write_quick_config(tmp_path, scene=write_manifest_scene(tmp_path))
    path.write_bytes(malformed_wav(case))
    assert cli_main(["sweep", "--config", str(cfg)]) == 1
    err = one_config_error(capsys)
    assert str(path) in err and "Traceback" not in err


def edited_manifest(tmp_path, **fields) -> dict:
    """Config keys of ``write_manifest_scene``'s scene with manifest fields set, or dropped where None."""
    scene = write_manifest_scene(tmp_path)
    path = tmp_path / scene["manifest"]
    edited = {**json.loads(path.read_text()), **fields}
    path.write_text(json.dumps({k: v for k, v in edited.items() if v is not None}))
    return {"scene": scene}


def manifest_with(tmp_path, name, data) -> dict:
    """Config keys of ``write_manifest_scene``'s scene with its file name replaced by
    data's bytes or by a WAV of its samples."""
    scene = write_manifest_scene(tmp_path)
    if isinstance(data, bytes):
        (tmp_path / name).write_bytes(data)
    else:
        wavio.write_wav(tmp_path / name, 16000, data)
    return {"scene": scene}


def synthetic(**keys) -> dict:
    return {"scene": {**default_scene_dict(), **keys}}


def speech_source(tmp_path, samples, fs=16000) -> dict:
    """Config keys of a speech WAV source holding samples, or these bytes."""
    path = tmp_path / "speech.wav"
    if isinstance(samples, bytes):
        path.write_bytes(samples)
    else:
        wavio.write_wav(path, fs, samples)
    return {"speech_wav": str(path)}


# refusal -> (the quick config's overrides, made in a test directory, or the
# config file's whole JSON value or bytes, and the text of its one
# config-error line); the filter case runs simulate
REFUSALS = {
    "config-not-an-object": (lambda tmp: [1, 2], "config must be a JSON object, got list"),
    "config-not-utf8": (lambda tmp: b"\xff\xfe{}", "cannot read config"),
    "fs": (lambda tmp: {"fs": 0}, "fs must be positive, got 0"),
    "Lw": (lambda tmp: {"Lw": 0}, "Lw, Lg, Lh must all be >= 1"),
    "duration": (lambda tmp: {"duration_s": 0.5}, "signals must be at least 1 s, got 0.5 s"),
    "beta_div": (lambda tmp: {"beta_div": 0.0}, "beta_div and rho_div must be positive"),
    "manifest-without-dir": (
        lambda tmp: {"scene": {"kind": "manifest", "manifest": "scene.json"}}, "manifest scene needs 'dir' key"
    ),
    "manifest-fs": (lambda tmp: {"fs": 8000, **edited_manifest(tmp)}, "scene fs 16000 != config fs 8000"),
    "scene-key": (lambda tmp: synthetic(colour=1), "unknown synthetic-scene keys: ['colour']"),
    "source-fs": (
        lambda tmp: speech_source(tmp, np.ones(24000), fs=8000), "sample rate 8000 != config fs 16000"
    ),
    "source-under-1s": (lambda tmp: speech_source(tmp, np.ones(8000)), "speech.wav: shorter than 1 s"),
    "delay-count": (lambda tmp: synthetic(speech_delays=[6, 8]), "need K+1 delays per source and K+1 gain pairs"),
    "negative-delay": (lambda tmp: synthetic(speech_delays=[-1, 8, 10]), "delays must be >= 0"),
    "ir_len": (lambda tmp: synthetic(ir_len=5), "ir_len 5 must exceed every source delay"),
    "K": (
        lambda tmp: synthetic(K=0, speech_delays=[6], noise_delays=[9], gains=[[1.0, 0.7]]),
        "K must be >= 1, got 0",
    ),
    "manifest-unreadable": (
        lambda tmp: {"scene": {**write_manifest_scene(tmp), "manifest": "missing.json"}}, "cannot read manifest"
    ),
    "manifest-not-utf8": (lambda tmp: manifest_with(tmp, "scene.json", b"\xff\xfe{}"), "cannot read manifest"),
    "manifest-empty-ir": (lambda tmp: manifest_with(tmp, "speech_1.wav", np.zeros(0)), "at least one tap"),
    "manifest-field": (
        lambda tmp: edited_manifest(tmp, secondary=None), "manifest missing or malformed field: 'secondary'"
    ),
    "one-microphone": (
        lambda tmp: edited_manifest(tmp, mics=1), "need at least 2 microphones (1 reference + error), got 1"
    ),
    "ir-count": (
        lambda tmp: edited_manifest(tmp, mics=3), "manifest lists 2 speech and 2 noise IRs, expected 3 each"
    ),
    "silent-error-speech": (
        lambda tmp: synthetic(gains=[[1.0, 0.7], [0.8, 1.0], [0.0, 0.8]]),
        "speech component at the error microphone is silent; cannot set SNR",
    ),
    "filter-nan": (lambda tmp: {}, "control filter taps must be finite"),
    "wav-data-before-fmt": (
        lambda tmp: speech_source(tmp, malformed_wav("data-before-fmt")), "no fmt chunk before the data chunk"
    ),
    "wav-short-fmt": (
        lambda tmp: speech_source(tmp, malformed_wav("short-fmt")), "fmt chunk of 10 bytes; it needs at least 16"
    ),
    "wav-short-extensible": (
        lambda tmp: speech_source(tmp, malformed_wav("short-extensible")),
        "WAVE_FORMAT_EXTENSIBLE fmt chunk of 16 bytes; it needs 40",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_every_refusal_is_one_config_error_line(tmp_path, monkeypatch, capsys, case):
    """Each refusal the CLI can reach exits 1 with one ``config error:`` line
    that holds its message."""
    monkeypatch.chdir(tmp_path)
    overrides_in, text = REFUSALS[case]
    overrides = overrides_in(tmp_path)
    if isinstance(overrides, dict):
        config = write_quick_config(tmp_path, **overrides)
    else:
        config = tmp_path / "config.json"
        config.write_bytes(overrides if isinstance(overrides, bytes) else json.dumps(overrides).encode())
    argv = ["sweep", "--config", str(config)]
    if case == "filter-nan":
        w = np.zeros((3, 12))
        w[1, 5] = np.nan
        (tmp_path / "nan.json").write_text(json.dumps({"K": 2, "Lw": 12, "w": w.tolist()}))
        argv = ["simulate", *argv[1:], "--filter", str(tmp_path / "nan.json")]
    assert cli_main(argv) == 1
    assert text in one_config_error(capsys)


@pytest.mark.parametrize("command", ["design", "simulate", "sweep"])
@pytest.mark.parametrize("role", ["speech_wav", "noise_wav"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_wav_source_is_one_line_error(tmp_path, capsys, command, role, bad):
    """A float WAV source with one NaN or inf sample exits 1 with one config-error
    line naming the file, before any design or simulation warns or fails on it."""
    samples = np.random.default_rng(3).standard_normal(24000)
    samples[1000] = bad
    path = tmp_path / f"{role}.wav"
    wavio.write_wav(path, 16000, samples)
    cfg = write_quick_config(tmp_path, **{role: str(path)})
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"K": 2, "Lw": 12, "w": [[0.0] * 12] * 3}))
    extra = {"design": ["--delta", "0"], "simulate": ["--filter", str(zero)], "sweep": []}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli_main([command, "--config", str(cfg), *extra, "--out", str(tmp_path / "out")]) == 1
    err = one_config_error(capsys)
    assert str(path) in err and "finite" in err


# the upper bound of need / traced peak per config: on 20 s of the
# benchmark's 60 s recording (``long_20s``) the arrays the estimate counts
# dominate the peak; on the 5 s desk configs temporaries it leaves out weigh more
MEMORY_RATIO_HIGH = {"fig3_synthetic": 1.5, "fig5_synthetic": 1.5, "long_20s": 1.25}


def write_long_20s_config(tmp_path) -> str:
    """The benchmark's 60 s ``long`` config cut to 20 s, written under tmp_path."""
    long = json.loads((ROOT / "perfbench" / "configs" / "long.json").read_text())
    path = tmp_path / "long_20s.json"
    path.write_text(json.dumps({**long, "duration_s": 20.0}))
    return str(path)


@pytest.mark.parametrize("name", list(MEMORY_RATIO_HIGH))
def test_memory_need_is_near_the_traced_peak(tmp_path, monkeypatch, traced_peak, name):
    """Each command's ``_memory_need``, a sweep's for the ``_workers`` it scores on,
    lies within 0.75 and ``MEMORY_RATIO_HIGH`` of its tracemalloc peak."""
    monkeypatch.chdir(tmp_path)
    if name == "long_20s":
        path = write_long_20s_config(tmp_path)
    else:
        path = str(ROOT / "configs" / f"{name}.json")
    config = SweepConfig.from_json(path)
    n = int(round(config.duration_s * config.fs))
    commands = {
        "design": (["--delta", "0", "--out", "f.json"], True, None),
        "simulate": (["--filter", "f.json", "--out", "sim"], False, config.Lw),
        "sweep": (["--out", "rows.csv"], True, config.Lw),
    }
    for command, (extra, design, sim_taps) in commands.items():
        code, peak = traced_peak(lambda: cli_main([command, "--config", path, *extra]))
        assert code == 0
        ir_len = longest_response(config)
        workers = sweep_mod._workers(config, config.scene["K"], n, ir_len) if command == "sweep" else 1
        ratio = sweep_mod._memory_need(config, config.scene["K"], n, design, sim_taps, ir_len, workers) / peak
        assert 0.75 <= ratio <= MEMORY_RATIO_HIGH[name], (command, ratio)


def test_a_second_worker_costs_the_share_memory_need_counts(tmp_path, monkeypatch, traced_peak):
    """On long_20s, where a sweep renders no stack and peaks while it scores,
    the tracemalloc peak of ``ssanc sweep`` on two worker threads exceeds its
    peak on one by at most 1.25 times what ``_memory_need`` counts for one
    more worker: the e of one delay and one chunk of its spectra or the
    quality proxy's frame batches.  (Less is fine: two workers need not
    peak at once.)"""
    monkeypatch.chdir(tmp_path)
    path = write_long_20s_config(tmp_path)
    config = SweepConfig.from_json(path)
    n = int(round(config.duration_s * config.fs))
    peaks = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        code, peaks[cpus] = traced_peak(lambda: cli_main(["sweep", "--config", path, "--out", "rows.csv"]))
        assert code == 0
    # one worker more, where the scoring phase is the largest (on one worker, the draw is)
    need = [
        sweep_mod._memory_need(config, config.scene["K"], n, True, config.Lw, longest_response(config), workers)
        for workers in (2, 3)
    ]
    ratio = (peaks[2] - peaks[1]) / (need[1] - need[0])
    assert ratio <= 1.25, (peaks, need, ratio)


def test_every_command_peaks_under_its_bound_on_long_20s(tmp_path, monkeypatch, traced_peak):
    """On long_20s, drawn and scored on two threads, the tracemalloc peak of
    ``ssanc design`` is at most 16 MiB, that of ``ssanc sweep`` at most 18 MiB
    and that of ``ssanc simulate`` at most 20 MiB: none renders a microphone
    stack, so the design peaks while it draws its two sources, the sweep
    while it scores, and ``simulate`` while it writes the four signals of
    its run, next to the sources' block spectra.  On the host's own CPUs, where a sweep
    may score on more threads than two, its peak lies within 0.75 and 1.25 of
    the ``_memory_need`` of the ``_workers`` it starts."""
    monkeypatch.chdir(tmp_path)
    path = write_long_20s_config(tmp_path)
    config = SweepConfig.from_json(path)
    n = int(round(config.duration_s * config.fs))
    workers = sweep_mod._workers(config, config.scene["K"], n, longest_response(config))

    def peak(command, *extra):
        code, peak = traced_peak(lambda: cli_main([command, "--config", path, *extra]))
        assert code == 0
        return peak

    host = peak("sweep", "--out", "rows.csv")
    need = sweep_mod._memory_need(config, config.scene["K"], n, True, config.Lw, longest_response(config), workers)
    assert 0.75 <= need / host <= 1.25, (workers, need / host)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    peaks = {
        "design": peak("design", "--delta", "0", "--out", "f.json"),
        "simulate": peak("simulate", "--filter", "f.json", "--out", "sim"),
        "sweep": peak("sweep", "--out", "rows.csv"),
    }
    bounds = {"design": 16 * 2**20, "simulate": 20 * 2**20, "sweep": 18 * 2**20}
    assert all(peaks[command] <= bounds[command] for command in peaks), {c: p / 2**20 for c, p in peaks.items()}


@pytest.mark.parametrize("command", ["design", "sweep"])
def test_memory_need_is_near_the_traced_peak_of_a_paper_scale_design(tmp_path, monkeypatch, traced_peak, command):
    """On paper_scale, where the design's matrices dominate, the ``_memory_need``
    of ``ssanc design`` and ``ssanc sweep`` lies within 0.75 and 1.25 of its
    tracemalloc peak."""
    monkeypatch.chdir(tmp_path)
    path = str(ROOT / "configs" / "paper_scale.json")
    config = SweepConfig.from_json(path)
    n = int(round(config.duration_s * config.fs))
    extra = {"design": ["--delta", "0", "--out", "f.json"], "sweep": ["--out", "rows.csv"]}[command]
    code, peak = traced_peak(lambda: cli_main([command, "--config", path, *extra]))
    assert code == 0
    sim_taps = config.Lw if command == "sweep" else None
    ratio = sweep_mod._memory_need(config, config.scene["K"], n, True, sim_taps, longest_response(config)) / peak
    assert 0.75 <= ratio <= 1.25, ratio


FIG3 = str(Path(__file__).parents[1] / "configs" / "fig3_synthetic.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--config", FIG3, "--delta", "999"],
        ["design", "--config", FIG3, "--delta", "-1"],
        ["design", "--config", FIG3, "--delta", "0", "--seed", "-1"],
        ["sweep", "--config", FIG3, "--seed", "-1"],
        ["simulate", "--config", FIG3, "--filter", "{not_json}"],
        ["simulate", "--config", FIG3, "--filter", "{wrong_k}"],
        ["simulate", "--config", FIG3, "--filter", "{no_taps}"],
        ["simulate", "--config", FIG3, "--filter", "{bad_header}"],
        ["simulate", "--config", FIG3, "--filter", "{wrong_k}", "--delta", "-1"],
        ["verify", "--trials", "0"],
        ["verify", "--verify-dims", "0,1,1"],
        ["verify", "--seed", "-1"],
        # a command line the parser cannot read: exit 1, not 2 (a numeric failure) after a usage dump
        [],
        ["bogus"],
        ["sweep"],
        ["sweep", "--config", FIG3, "--timings"],
        ["design", "--config", FIG3, "--delta", "x"],
        ["design", "--config", FIG3],
        ["simulate", "--config", FIG3],
        ["simulate", "--config", FIG3, "--filter", "{wrong_k}", "--delta", "1.5"],
        ["verify", "--trials", "x"],
        ["verify", "--bogus"],
    ],
    ids=["delta-high", "delta-negative", "design-seed", "sweep-seed", "filter-not-json",
         "filter-wrong-k", "filter-no-taps", "filter-bad-header", "simulate-delta", "verify-trials", "verify-dims", "verify-seed",
         "no-command", "unknown-command", "sweep-no-config", "sweep-timings", "design-delta-not-int",
         "design-no-delta", "simulate-no-filter", "simulate-delta-not-int", "verify-trials-not-int",
         "verify-unknown-flag"],
)
def test_cli_bad_argument_is_one_line_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # default outputs, should a case get that far
    not_json = tmp_path / "not.json"
    not_json.write_text("w = [1, 2]\n")
    wrong_k = tmp_path / "k1.json"  # fig3 has K = 2 reference microphones
    wrong_k.write_text(json.dumps({"K": 1, "Lw": 2, "w": [[0.0, 0.0], [0.0, 0.0]]}))
    no_taps = tmp_path / "empty.json"
    no_taps.write_text(json.dumps({"K": 2, "Lw": 2, "w": [[], [], []]}))
    bad_header = tmp_path / "header.json"  # taps of fig3's K = 2, a header that contradicts them
    bad_header.write_text(json.dumps({"K": 7, "Lw": 99, "w": [[0, 0], [0, 0], [0, 0]]}))
    argv = [a.format(not_json=not_json, wrong_k=wrong_k, no_taps=no_taps, bad_header=bad_header) for a in argv]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_cli_design_matches_library_path(tmp_path):
    """``ssanc design`` writes exactly the taps and diagnostics of the solve for its
    delay of the design a sweep of the same config factorizes, bit for bit: both
    take the same statistics from the sources' correlations over the same lags."""
    cfg = write_quick_config(tmp_path)
    out = tmp_path / "filter.json"
    assert cli_main(["design", "--config", str(cfg), "--delta", "2", "--seed", "5", "--out", str(out)]) == 0
    config = SweepConfig.from_dict({**json.loads(cfg.read_text()), "seed": 5})
    prep, ctx = sweep_mod._prepare_design(config)
    res = ctx.solve(sweep_mod._constraint_vector(prep.reirs, prep.psi, config.target_kind, 2, prep.L))

    payload = json.loads(out.read_text())
    assert np.array_equal(np.array(payload["w"]), res.filter)
    assert payload["diagnostics"] == {
        "beta": res.beta,
        "rho": res.rho,
        "constraint_residual": res.constraint_residual,
        "predicted_error_power": res.predicted_error_power,
        "filter_norm": float(np.linalg.norm(res.filter)),
    }


def test_readme_config_block_is_the_default_config():
    """The README's example config, the block users copy, states exactly the defaults."""
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Configuration format"):]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert SweepConfig.from_dict(json.loads(block)) == SweepConfig()


def test_readme_synopsis_names_the_flags_of_each_subcommand(capsys):
    """The README's command-line synopsis names exactly the flags each of the four
    subcommands parses, optional ones in brackets as in its usage, and
    ``--help`` exits 0."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```\n(.*?)```", readme[readme.index("## Command line"):], re.S).group(1)
    synopsis = {}
    for line in block.splitlines():
        if line.startswith("ssanc "):
            command = line.split()[1]
        synopsis[command] = synopsis.get(command, "") + line

    def flags(text):
        return set(re.findall(r"(\[?)(--[\w-]+)", text))

    assert sorted(synopsis) == ["design", "simulate", "sweep", "verify"]
    for command, text in synopsis.items():
        with pytest.raises(SystemExit) as stop:
            cli_main([command, "--help"])
        assert stop.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert flags(text) == flags(usage), command


def test_config_accepts_integral_floats():
    cfg = SweepConfig.from_dict({"fs": 16000.0, "Lw": 48.0, "seed": 3.0})
    assert (cfg.fs, cfg.Lw, cfg.seed) == (16000, 48, 3)
    assert all(type(v) is int for v in (cfg.fs, cfg.Lw, cfg.seed))


# ---------------------------------------------------------------------------
# shipped configurations: per-delay oracle and captured reference rows
# ---------------------------------------------------------------------------

METRIC_COLUMNS = ("nr_db", "sdi_db", "quality_db", "effort", "constraint_residual")


@pytest.fixture(scope="module")
def shipped_rows():
    """run_sweep rows of a shipped config at seed 0, computed once per module."""
    cache = {}

    def rows(name):
        if name not in cache:
            cache[name] = run_sweep(SweepConfig.from_json(ROOT / "configs" / f"{name}.json"))
        return cache[name]

    return rows


def assert_columns_close(rows, expected, rtol):
    """Each metric column within rtol of that column's largest magnitude."""
    actual = np.array([[getattr(r, c) for c in METRIC_COLUMNS] for r in rows])
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    scale = np.max(np.abs(expected), axis=0)
    worst = np.max(np.abs(actual - expected), axis=0) / scale
    assert np.all(worst <= rtol), dict(zip(METRIC_COLUMNS, worst))


def solve_every_delay(prep, ctx, config):
    """(delta, design) pairs of every configured delay, from batched solves as in run_sweep."""
    deltas, batch = config.deltas(), sweep_mod._SOLVE_BATCH
    designs = []
    for start in range(0, len(deltas), batch):
        designs += ctx.solve(np.column_stack([
            sweep_mod._constraint_vector(prep.reirs, prep.psi, config.target_kind, d, prep.L)
            for d in deltas[start : start + batch]
        ]))
    return list(zip(deltas, designs))


def design_and_stacks(config, simulate=True):
    """``_prepare_design``'s context and ``prepare_scene``: the same scene, ReIRs and
    weighting, with the microphone stacks the design never renders."""
    return sweep_mod.prepare_scene(config, simulate), sweep_mod._prepare_design(config, simulate)[1]


def consumed_statistics(monkeypatch, config, simulate=True):
    """``_prepare_design``'s prep and context, and copies of the S, phi and power
    its ``DesignContext`` consumed."""
    taken = []

    def kept(*args):
        S, phi, power = statistics(*args)
        taken.append((S.copy(), phi.copy(), power))
        return S, phi, power

    statistics = sweep_mod._filtered_correlations
    monkeypatch.setattr(sweep_mod, "_filtered_correlations", kept)
    prep, ctx = sweep_mod._prepare_design(config, simulate)
    (consumed,) = taken
    return prep, ctx, consumed


def convolve_oracle_row(prep, ctx, config, delta):
    """One delay designed alone and simulated with explicit np.convolve."""
    from ssanc.metrics import evaluate_run
    from ssanc.simulate import RunResult, realize_target

    f = sweep_mod._constraint_vector(prep.reirs, prep.psi, config.target_kind, delta, prep.L)
    res = ctx.solve(f)
    w, g, m, N = res.filter, prep.scene.g, prep.mics, prep.mics.N

    def drive(refs, primary):
        y = np.convolve(w[-1], primary)[:N]
        for k in range(m.K):
            y = y + np.convolve(w[k], refs[k])[:N]
        return y

    y_s, y_v = drive(m.s, m.p_s), drive(m.v, m.p_v)
    e_s = m.p_s + np.convolve(g, y_s)[:N]
    e_v = m.p_v + np.convolve(g, y_v)[:N]
    t = realize_target(m, config.target_kind, delta, prep.scene.spatial_ref)
    mb = evaluate_run(RunResult(y=y_s + y_v, e_s=e_s, e_v=e_v, t=t), m)
    return [mb.nr_db, mb.sdi_db, mb.quality_db, mb.effort, res.constraint_residual]


@pytest.mark.parametrize("name", ["fig3_synthetic", "fig5_synthetic"])
def test_batched_sweep_matches_per_delay_convolution_oracle(shipped_rows, name):
    config = SweepConfig.from_json(ROOT / "configs" / f"{name}.json")
    rows = shipped_rows(name)
    prep, ctx = design_and_stacks(config)
    assert [r.delta for r in rows] == config.deltas()
    assert all(r.error == "" for r in rows)
    oracle = [convolve_oracle_row(prep, ctx, config, d) for d in config.deltas()]
    assert_columns_close(rows, oracle, 1e-12)


@pytest.mark.parametrize("name", ["fig3_synthetic", "fig5_synthetic"])
def test_predicted_error_power_is_simulated_error_power(name):
    """(q + G w)' Phi_xx (q + G w) is the mean simulated e^2 over the fully excited n >= L - 1."""
    from ssanc.metrics import _RowScores

    config = SweepConfig.from_json(ROOT / "configs" / f"{name}.json")
    prep, ctx = sweep_mod._prepare_design(config)
    mic = target_mic(config.target_kind, prep.scene.spatial_ref)
    score = _RowScores(prep.energy, prep.sources, prep.scene, config.Lw, config.deltas()[-1], mic)
    for delta, res in solve_every_delay(prep, ctx, config):
        e = score.signals(score.responses(res.filter)[1][None])[0]
        simulated = np.mean(e[prep.L - 1 :] ** 2)
        assert abs(res.predicted_error_power - simulated) <= 1e-10 * simulated, delta


@pytest.mark.parametrize("name", ["fig3_synthetic", "fig5_synthetic", "paper_scale"])
def test_predicted_error_power_is_the_quadratic_form(monkeypatch, name):
    """At every delay the predicted error power, taken from A'w and mu, equals
    power + 2 phi'w + w'Sw of the correlations the design consumed, to 1e-12."""
    config = SweepConfig.from_json(ROOT / "configs" / f"{name}.json")
    prep, ctx, (S, phi, power) = consumed_statistics(monkeypatch, config, simulate=False)
    for delta, res in solve_every_delay(prep, ctx, config):
        w = res.filter.ravel()
        expected = power + 2.0 * (phi @ w) + w @ S @ w
        assert abs(res.predicted_error_power - expected) <= 1e-12 * expected, delta


@pytest.mark.parametrize("name", ["fig3_synthetic", "fig5_synthetic", "paper_scale"])
def test_shipped_sweep_matches_captured_reference(shipped_rows, name):
    with (ROOT / "perfbench" / "reference" / f"{name}_s0.csv").open(newline="") as fh:
        reference = list(csv.DictReader(fh))
    rows = shipped_rows(name)
    assert [r.delta for r in rows] == [int(r["delta"]) for r in reference]
    assert all(r.error == "" for r in rows) and all(r["error"] == "" for r in reference)
    assert_columns_close(rows, [[float(r[c]) for c in METRIC_COLUMNS] for r in reference], 1e-6)


# the design deltas of perfbench/run.py's desk and paper workloads
REFERENCE_DELTAS = {"fig3_synthetic": 4, "fig5_synthetic": 6, "paper_scale": 16}


def load_benchmark_checks():
    """``perfbench/checks.py``, loaded from its file as the benchmark runs it."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_checks", ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", list(REFERENCE_DELTAS))
def test_design_and_simulate_match_captured_reference(tmp_path, name):
    """``ssanc design`` at the benchmark's delay and ``ssanc simulate`` of its
    filter, at seed 0, match the references the benchmark captured, by its own
    rules (``perfbench/checks.py``): the taps and each diagnostic, and every
    ``WAV_STRIDE``-th sample of each WAV, within 1e-6 of their group's scale."""
    checks = load_benchmark_checks()
    config, delta = str(ROOT / "configs" / f"{name}.json"), str(REFERENCE_DELTAS[name])
    flt, sim = tmp_path / "filter.json", tmp_path / "sim"
    assert cli_main(["design", "--config", config, "--seed", "0", "--delta", delta, "--out", str(flt)]) == 0
    assert cli_main([
        "simulate", "--config", config, "--seed", "0", "--filter", str(flt), "--delta", delta, "--out", str(sim),
    ]) == 0
    reference = checks.reference_stem(config, 0)
    for result in (checks.check_design(flt, reference), checks.check_simulate(sim, reference)):
        assert result.deviation is not None and result.deviation.compared > 0
        assert result.failed == 0, result.problems


def test_sweep_never_runs_the_full_simulation(shipped_rows, monkeypatch):
    """The sweep scores NR, SDI and effort from lag correlations and simulates
    e alone: with the run of ``ssanc simulate`` (``_RowScores.run``), the
    rendered run and the scores of a run's signals made to raise, fig3
    gives the same rows."""
    import ssanc.metrics
    import ssanc.simulate

    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep left its fast path")

    monkeypatch.setattr(ssanc.metrics._RowScores, "run", forbidden)
    monkeypatch.setattr(ssanc.simulate, "apply_control", forbidden)
    for name in ("evaluate_run", "noise_reduction", "speech_distortion_index", "control_effort"):
        monkeypatch.setattr(ssanc.metrics, name, forbidden)
    rows = run_sweep(SweepConfig.from_json(ROOT / "configs" / "fig3_synthetic.json"))
    untimed = [replace(r, design_ms=0.0) for r in rows]  # the unset design_ms is NaN
    assert untimed == [replace(r, design_ms=0.0) for r in shipped_rows("fig3_synthetic")]


@pytest.mark.parametrize("name", ["fig3_synthetic", "fig5_synthetic"])
def test_one_worker_equals_many(tmp_path, monkeypatch, name):
    """The sweep CSV is byte-identical whether its delays are simulated on
    one thread, on the default number or on four."""
    config = SweepConfig.from_json(ROOT / "configs" / f"{name}.json")
    write_rows_csv(run_sweep(config), tmp_path / "default.csv")
    for cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        write_rows_csv(run_sweep(config), tmp_path / f"{cpus}.csv")
        assert (tmp_path / f"{cpus}.csv").read_bytes() == (tmp_path / "default.csv").read_bytes(), cpus


def test_openblas_thread_count_moves_no_column_past_1e_10(tmp_path):
    """The sweep CSV is byte-identical only for one OpenBLAS thread count: under
    one thread and under two, every column of ``paper_anechoic_error``, whose
    sdi_db and constraint_residual sit at its rounding floor, agrees to 1e-10
    of its largest magnitude, with the same delays and no error row."""
    code = "import sys; from ssanc.sweep import cli_main; sys.exit(cli_main(sys.argv[1:]))"
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    children = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "OPENBLAS_NUM_THREADS": threads}
        argv = ["sweep", "--config", str(ROOT / "configs" / "paper_anechoic_error.json"),
                "--out", str(tmp_path / f"{threads}.csv")]
        children[threads] = subprocess.Popen([sys.executable, "-c", code, *argv], env=env, stdout=subprocess.DEVNULL)
    tables = {}
    for threads, child in children.items():
        assert child.wait(timeout=120) == 0
        with (tmp_path / f"{threads}.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["error"] == "" for row in rows)
        tables[threads] = rows
    one, two = tables["1"], tables["2"]
    assert [row["delta"] for row in one] == [row["delta"] for row in two]
    for column in METRIC_COLUMNS:
        a, b = (np.array([float(row[column]) for row in rows]) for rows in (one, two))
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a)), column


def test_one_cpu_renders_on_the_calling_thread_what_two_render(monkeypatch):
    """On one CPU the render starts no thread; on two it starts one per phase
    (drawing, convolving), and the speech and noise stacks are equal."""
    config = quick_config()
    scene, n = sweep_mod._checked_scene(config, design=True, sim_taps=None)
    starts, stacks = [], {}

    class Counted(threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        starts.clear()
        stacks[cpus] = render_sources(config, scene, n)
        assert len(starts) == 2 * (cpus - 1), cpus
    for name in ("s", "v"):
        np.testing.assert_array_equal(getattr(stacks[1], name), getattr(stacks[2], name))


def test_sweep_matches_the_simulation_oracle_where_sdi_cancels():
    """On the anechoic error-target scene the SDI sits near -56 dB, where t
    and e_s cancel to their rounding floor; every column stays within 1e-9
    of the full simulation's."""
    from ssanc.metrics import evaluate_run
    from ssanc.simulate import apply_control

    config = SweepConfig.from_json(ROOT / "configs" / "paper_anechoic_error.json")
    rows = run_sweep(config)
    prep, ctx = design_and_stacks(config)
    oracle = []
    for delta, res in solve_every_delay(prep, ctx, config):
        run = apply_control(
            res.filter, prep.mics, prep.scene.g, config.target_kind, delta, prep.scene.spatial_ref
        )
        mb = evaluate_run(run, prep.mics)
        oracle.append([mb.nr_db, mb.sdi_db, mb.quality_db, mb.effort, res.constraint_residual])
    assert_columns_close(rows, oracle, 1e-9)


def long_double_sdi(scene, speech, w, mic, delta):
    """SDI of filter w at delay delta, with every signal simulated in np.longdouble by
    direct convolution: the speech stack, the drive, e_s and the target t."""
    ld, N = np.longdouble, speech.shape[0]
    s = [np.convolve(np.asarray(a, ld), speech.astype(ld))[:N] for a in scene.h[0]]
    y = sum(np.convolve(np.asarray(w_k, ld), s_k)[:N] for w_k, s_k in zip(w, s))
    e_s = s[-1] + np.convolve(np.asarray(scene.g, ld), y)[:N]
    t = np.zeros(N, ld)
    t[delta:] = s[mic][: N - delta]
    d = t - e_s
    return float(10 * np.log10(np.sum(d * d) / np.sum(t * t)))


@pytest.mark.parametrize("name, deltas", [
    ("paper_anechoic_error", (0, 3, 120)),
    ("paper_anechoic_reference", (4, 40, 60)),
])
def test_sweep_sdi_matches_a_long_double_simulation(monkeypatch, name, deltas):
    """On the anechoic pair, whose SDI sits near its rounding floor (-56 dB on
    the error target), the sweep's SDI at a few delays is within 1e-10 dB of
    t - e_s simulated from the sweep's own filters in np.longdouble: the
    residual's spectrum cancels before it is squared."""
    config = SweepConfig.from_json(ROOT / "configs" / f"{name}.json")
    filters = {}

    class Recording(sweep_mod._RowScores):
        def __call__(self, w, delta):
            filters[delta] = w
            return super().__call__(w, delta)

    monkeypatch.setattr(sweep_mod, "_RowScores", Recording)
    rows = {row.delta: row for row in run_sweep(config)}
    scene, n = sweep_mod._checked_scene(config, design=True, sim_taps=config.Lw)
    speech = ssanc.signals.speech_shaped_noise(n, config.fs, config.seed)  # the config draws its speech
    mic = target_mic(config.target_kind, scene.spatial_ref)
    for delta in deltas:
        oracle = long_double_sdi(scene, speech, filters[delta], mic, delta)
        assert abs(rows[delta].sdi_db - oracle) <= 1e-10, (delta, rows[delta].sdi_db, oracle)


def test_responses_as_long_as_the_signal_score_like_the_simulation():
    """Responses one sample shorter than the 8000-sample signals give the
    sweep's scores more lags than samples; the lags past N read as zero, the
    sweep ends without an error row, and every column agrees with
    ``evaluate_run`` of ``apply_control`` to 1e-10 of its scale."""
    from ssanc.metrics import evaluate_run
    from ssanc.simulate import apply_control

    config = quick_config(fs=8000, duration_s=1.0, scene={**default_scene_dict(), "ir_len": 7999, "tail_decay": 2000.0})
    rows = run_sweep(config)
    assert all(row.error == "" for row in rows)
    prep, ctx = design_and_stacks(config)
    assert prep.L + 7999 - 1 > prep.mics.N  # the taps of the error microphone's response
    oracle = []
    for delta, res in solve_every_delay(prep, ctx, config):
        run = apply_control(res.filter, prep.mics, prep.scene.g, config.target_kind, delta, prep.scene.spatial_ref)
        mb = evaluate_run(run, prep.mics)
        oracle.append([mb.nr_db, mb.sdi_db, mb.quality_db, mb.effort, res.constraint_residual])
    assert_columns_close(rows, oracle, 1e-10)


@pytest.mark.parametrize("name", ["fig3_synthetic", "fig5_synthetic"])
def test_simulate_reports_the_sweep_row(shipped_rows, tmp_path, capsys, name):
    """``ssanc simulate --delta 4`` on the filter of ``ssanc design --delta 4``
    prints the NR, SDI, quality and effort of the sweep's row 4."""
    path = str(ROOT / "configs" / f"{name}.json")
    flt, sim = str(tmp_path / "filter.json"), str(tmp_path / "sim")
    assert cli_main(["design", "--config", path, "--delta", "4", "--out", flt]) == 0
    capsys.readouterr()
    assert cli_main(["simulate", "--config", path, "--filter", flt, "--delta", "4", "--out", sim]) == 0
    printed = capsys.readouterr().out
    row = next(r for r in shipped_rows(name) if r.delta == 4)
    assert printed == (
        f"NR={row.nr_db:.2f} dB SDI={row.sdi_db:.2f} dB quality={row.quality_db:.2f} dB "
        f"effort={row.effort:.6g} -> {sim}/\n"
    )
    if name == "fig3_synthetic":
        assert printed.startswith("NR=10.44 dB SDI=-15.07 dB quality=7.88 dB effort=368464 ->")


def test_simulate_prints_the_row_of_evaluate_run(tmp_path, capsys):
    """``ssanc simulate`` prints the sweep's row for its delay
    (``metrics._RowScores``): on fig3 at delta = 4 its printed line is the
    one formatted from ``evaluate_run`` of ``apply_control`` on the rendered
    stacks, its y, e, e_s and e_v WAVs lie within 1e-12 of each file's peak
    of those ``export_run_wavs`` writes of that run, and its t.wav is that
    file byte for byte."""
    from ssanc.metrics import evaluate_run
    from ssanc.simulate import apply_control, export_run_wavs
    from ssanc.solver import load_filter_json

    path = str(ROOT / "configs" / "fig3_synthetic.json")
    flt, sim = str(tmp_path / "filter.json"), tmp_path / "sim"
    assert cli_main(["design", "--config", path, "--delta", "4", "--out", flt]) == 0
    capsys.readouterr()
    assert cli_main(["simulate", "--config", path, "--filter", flt, "--delta", "4", "--out", str(sim)]) == 0
    printed = capsys.readouterr().out

    config, w = SweepConfig.from_json(path), load_filter_json(flt)
    scene, n = sweep_mod._checked_scene(config, design=False, sim_taps=w.shape[1])
    mics = render_sources(config, scene, n)
    run = apply_control(w, mics, scene.g, config.target_kind, 4, scene.spatial_ref)
    mb = evaluate_run(run, mics)
    assert printed == (
        f"NR={mb.nr_db:.2f} dB SDI={mb.sdi_db:.2f} dB quality={mb.quality_db:.2f} dB "
        f"effort={mb.effort:.6g} -> {sim}/\n"
    )
    oracle = tmp_path / "oracle"
    export_run_wavs(run, oracle, config.fs)
    for name in ("y", "e", "e_s", "e_v"):
        got, want = (wavio.read_wav_mono(d / f"{name}.wav")[1] for d in (sim, oracle))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
    assert (sim / "t.wav").read_bytes() == (oracle / "t.wav").read_bytes()


def write_uneven_manifest_scene(directory) -> dict:
    """A three-microphone WAV scene in directory whose speech and noise responses
    and secondary path all have different lengths, as a config's scene entry."""
    rng = np.random.default_rng(21)
    names = {"speech_irs": [], "noise_irs": []}
    for role, shapes in (("speech_irs", [(3, 20), (5, 7), (7, 33)]), ("noise_irs", [(6, 41), (2, 5), (4, 12)])):
        for m, (delay, taps) in enumerate(shapes):
            ir = np.zeros(taps)
            ir[delay] = 1.0
            ir[delay + 1 :] = 0.2 * rng.standard_normal(taps - delay - 1)
            name = f"{role[:-4]}_{m}.wav"
            wavio.write_wav(directory / name, 16000, ir)
            names[role].append(name)
    g = np.zeros(12)
    g[2], g[3] = 1.0, 0.4
    wavio.write_wav(directory / "g.wav", 16000, g)
    manifest = {"fs": 16000, "mics": 3, **names, "secondary": "g.wav", "spatial_ref": 1}
    (directory / "scene.json").write_text(json.dumps(manifest))
    return {"kind": "manifest", "dir": str(directory), "manifest": "scene.json"}


def designed_case(tmp_path, name, delta):
    """The config of a shipped name or of the uneven manifest scene (reference
    target), the delay ("last": the range's last), and its designed filter."""
    if name == "uneven_manifest":
        config = quick_config(scene=write_uneven_manifest_scene(tmp_path), target_kind="reference_mic")
    else:
        config = SweepConfig.from_json(ROOT / "configs" / f"{name}.json")
    if delta == "last":
        delta = config.delta_range[1]
    prep, ctx = sweep_mod._prepare_design(config, simulate=False)
    w = ctx.solve(sweep_mod._constraint_vector(prep.reirs, prep.psi, config.target_kind, delta, prep.L)).filter
    return config, delta, w


def row_scores(config, last_delta):
    """The checked scene and ``_sources``' scene, sources and ``_RowScores`` of a
    config's filters up to last_delta, as ``ssanc simulate`` builds them."""
    from ssanc.metrics import _lag_span, _RowScores

    scene, n = sweep_mod._checked_scene(config, design=False, sim_taps=config.Lw)
    P = _lag_span(scene, config.Lg + config.Lw - 1, last_delta)
    sources, energy, scaled = sweep_mod._sources(config, scene, n, P)
    mic = target_mic(config.target_kind, scene.spatial_ref)
    return scene, scaled, sources, _RowScores(energy, sources, scaled, config.Lw, last_delta, mic)


@pytest.mark.parametrize("name, delta", [
    ("fig3_synthetic", 4), ("fig5_synthetic", 6), ("fig3_synthetic", "last"), ("uneven_manifest", 3),
])
def test_simulating_from_the_sources_matches_the_rendered_stacks(tmp_path, name, delta):
    """``metrics._RowScores.run`` on ``sweep._sources``' sources gives the run
    ``apply_control`` gives on ``render_mics``' stacks of the same draw, for
    the designed filter: y, e_s and e_v within 1e-12 of each signal's peak
    and t bit for bit, for the error target (fig3), the reference target
    (fig5), the last delay of fig3's range, and a manifest scene whose
    responses differ in length; NR's denominator, ``noise_energy``, is the
    rendered error microphone's noise energy to 1e-12."""
    from ssanc.simulate import apply_control

    config, delta, w = designed_case(tmp_path, name, delta)
    scene, _, sources, score = row_scores(config, delta)
    got = score.run(w, delta)
    mics = render_mics(scene, *sources, config.snr_db)
    want = apply_control(w, mics, scene.g, config.target_kind, delta, scene.spatial_ref)
    for signal in ("y", "e_s", "e_v"):
        a, b = getattr(got, signal), getattr(want, signal)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), signal
    assert np.array_equal(got.t, want.t)
    assert score.noise_energy == pytest.approx(float(np.vdot(mics.p_v, mics.p_v)), rel=1e-12)


@pytest.mark.parametrize("name", ["fig3_synthetic", "fig5_synthetic", "uneven_manifest"])
def test_the_run_scores_to_the_row(tmp_path, name):
    """``_RowScores.run``'s signals, scored by ``evaluate_run`` against the stacks
    of ``_sources``' scaled scene, give ``_RowScores``' four metrics within 1e-12
    of each one's magnitude, at the first, a middle and the last delay of
    scores built for the last, as a sweep builds them."""
    from ssanc.metrics import evaluate_run

    config, last, w = designed_case(tmp_path, name, "last")
    _, scaled, sources, score = row_scores(config, last)
    mics = render_mics(scaled, *sources)
    for delta in (0, last // 2, last):
        row, oracle = score(w, delta), evaluate_run(score.run(w, delta), mics)
        for metric in ("nr_db", "sdi_db", "effort", "quality_db"):
            a, b = getattr(row, metric), getattr(oracle, metric)
            assert abs(a - b) <= 1e-12 * abs(b), (delta, metric, a, b)


@pytest.mark.parametrize("name", ["fig3_synthetic", "uneven_manifest"])
def test_the_lag_pass_gain_is_the_rendered_gain(tmp_path, monkeypatch, name):
    """``sweep._sources`` takes the SNR gain from the sources' lag correlations
    at lag 0, the energies of the error microphone's speech and noise: it is
    the gain ``render_mics`` takes from its rendered rows to four ulp, also where
    the error microphone's responses are shorter than their stacks' longest;
    it scales the scene's noise responses, and ``render_mics`` scales its
    noise stack by its own.  A silent component at the error microphone is
    refused."""
    from ssanc.metrics import _lag_span
    from ssanc.scene import snr_gain

    config, _, _ = designed_case(tmp_path, name, 0)
    gains = []

    def recorded(es, ev, snr_db):
        gains.append(snr_gain(es, ev, snr_db))
        return gains[-1]

    monkeypatch.setattr(sweep_mod, "snr_gain", recorded)
    scene, scaled, sources, _ = row_scores(config, config.delta_range[1])
    unscaled = render_mics(scene, *sources)
    rendered = snr_gain(float(np.vdot(unscaled.p_s, unscaled.p_s)), float(np.vdot(unscaled.p_v, unscaled.p_v)), config.snr_db)
    (gain,) = gains
    assert abs(gain - rendered) <= 4 * np.spacing(rendered), (gain, rendered)
    assert np.array_equal(scaled.h[1], gain * scene.h[1])
    assert np.array_equal(scaled.h[0], scene.h[0])
    np.testing.assert_array_equal(render_mics(scene, *sources, config.snr_db).v, unscaled.v * rendered)
    n, P = sources.shape[1], _lag_span(scene, config.Lg + config.Lw - 1, 0)
    for source, component in enumerate(("speech", "noise")):
        h = scene.h.copy()
        h[source, -1] = 0.0
        silent = replace(scene, h=h)
        with pytest.raises(ConfigError, match=f"{component} component at the error microphone is silent"):
            sweep_mod._sources(config, silent, n, P)


def test_simulate_refuses_a_wav_too_long_for_riff_before_drawing(tmp_path, monkeypatch, capsys):
    """A float64 WAV of N samples takes 8 N + 50 bytes after its RIFF size field,
    which holds less than 2^32: ``ssanc simulate`` of more than ``wavio.MAX_FRAMES``
    samples, about 9.3 h at 16 kHz, exits 1 with one config-error line before it
    draws a source, and one of exactly that many samples goes on to draw them."""
    from ssanc.wavio import MAX_FRAMES

    assert 8 * MAX_FRAMES + 50 < 2**32 <= 8 * (MAX_FRAMES + 1) + 50

    class Drawn(Exception):
        pass

    def drawn(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(sweep_mod, "_available_memory", lambda: 2**50)
    monkeypatch.setattr(sweep_mod, "_draw_sources", drawn)
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"K": 2, "Lw": 12, "w": [[0.0] * 12] * 3}))
    for n in (MAX_FRAMES + 1, MAX_FRAMES):
        cfg = write_quick_config(tmp_path, duration_s=n / 16000)
        assert round(SweepConfig.from_json(cfg).duration_s * 16000) == n
        argv = ["simulate", "--config", str(cfg), "--filter", str(zero), "--out", str(tmp_path / "sim")]
        if n > MAX_FRAMES:
            assert cli_main(argv) == 1
            err = one_config_error(capsys)
            assert f"{n}-sample" in err and "WAV" in err
        else:
            with pytest.raises(Drawn):
                cli_main(argv)
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("name, best, at_best, other, at_other", [
    ("fig3_synthetic", 0, -16.85, 4, 1.08),
    ("fig5_synthetic", 4, -1.28, 0, 2.60),
])
def test_reemitted_speech_is_least_at_the_delay_the_target_allows(name, best, at_best, other, at_other):
    """The speech the loudspeaker re-emits, ||g * w * s||^2 / ||p_s||^2 =
    (u - q)' Phi_ss (u - q) / q' Phi_ss q, is how the system obtains the
    desired signal: it is least where the target lets the filter leave the
    desired component alone, at delta = 0 for the error microphone and at
    the 4-sample acoustic delay for the reference microphone."""
    from ssanc.metrics import _FilteredEnergy

    config = SweepConfig.from_json(ROOT / "configs" / f"{name}.json")
    prep, ctx = design_and_stacks(config)
    designs = solve_every_delay(prep, ctx, config)
    deltas = config.deltas()
    energy = _FilteredEnergy(prep.mics.s, prep.L)

    def speech(taps):
        return energy(np.fft.rfft(taps, energy.nfft))

    q = np.eye(prep.mics.K + 1)[:, -1:]  # the primary sample: the error microphone at lag 0
    assert speech(q) == pytest.approx(float(np.vdot(prep.mics.p_s, prep.mics.p_s)), rel=1e-12)
    G = build_conv_matrix(prep.scene.g, config.Lw)
    reemitted = [10 * np.log10(speech(res.filter @ G.T) / speech(q)) for _, res in designs]
    assert deltas[int(np.argmin(reemitted))] == best
    assert reemitted[deltas.index(best)] == pytest.approx(at_best, abs=0.01)
    assert reemitted[deltas.index(other)] == pytest.approx(at_other, abs=0.01)


def test_wav_source_cut_to_the_duration_owns_its_samples(tmp_path):
    """A source longer than duration_s is cut to a copy of n samples, not a
    view that keeps the whole file alive."""
    path = tmp_path / "speech.wav"
    wavio.write_wav(path, 16000, np.random.default_rng(0).standard_normal(960000))
    config = quick_config(speech_wav=str(path))
    n = int(round(config.duration_s * config.fs))
    source = sweep_mod._load_source(path, config, n)
    assert source.shape == (n,) and source.nbytes == 8 * n
    assert source.base is None


# ---------------------------------------------------------------------------
# the design from the signals and its dense oracle
# ---------------------------------------------------------------------------

K4_SCENE = json.loads((ROOT / "configs" / "paper_scale.json").read_text())["scene"]
# secondary-path taps that start at lag 0, unlike synth_scene's pulse model
LAG0_TAPS = [0.9, -0.4, 0.3, 0.25, -0.2, 0.15, 0.1, -0.1, 0.05, 0.05, -0.02, 0.01]


def short_speech_wav(tmp_path) -> str:
    """A 1.2 s white speech WAV under tmp_path, shorter than quick_config's 1.5 s."""
    path = tmp_path / "short_speech.wav"
    wavio.write_wav(path, 16000, 0.1 * np.random.default_rng(9).standard_normal(19200))
    return str(path)


STATISTICS_CONFIGS = {
    "fig3_synthetic": lambda tmp: SweepConfig.from_json(ROOT / "configs" / "fig3_synthetic.json"),
    "K4": lambda tmp: quick_config(scene=K4_SCENE, psi=120.0),
    "g_taps_lag0": lambda tmp: quick_config(scene={**default_scene_dict(), "g_taps": LAG0_TAPS}),
    # responses of 400 taps against L = 23: the responses set the sources' lags
    "long_responses": lambda tmp: quick_config(scene={**default_scene_dict(), "ir_len": 400, "tail_decay": 100.0}),
    # a speech WAV shorter than duration_s shortens both sources
    "short_wav": lambda tmp: quick_config(speech_wav=short_speech_wav(tmp)),
}


def dense_inputs(prep):
    """Phi_xx and H of the dense route, the oracle's inputs."""
    return estimate_autocorrelation(input_frames(prep.mics, prep.L)), _constraint_matrix(prep.reirs, prep.L)


@pytest.mark.parametrize("name", list(STATISTICS_CONFIGS))
def test_signals_design_statistics_equal_the_dense_projections(tmp_path, monkeypatch, name):
    """S, phi, q'Phi_xx q, A and H'q of the production design, taken from the
    sources' correlations, equal Gt'Phi_xx Gt, Gt'Phi_xx q, q'Phi_xx q, Gt'H and
    H'q of the dense Phi_xx of the rendered stacks and H, with Gt = I (x) G built
    as a Kronecker product, to 1e-12 of each one's scale."""
    config = STATISTICS_CONFIGS[name](tmp_path)
    prep = sweep_mod.prepare_scene(config)
    _, ctx, (S, _, _) = consumed_statistics(monkeypatch, config)
    if name == "g_taps_lag0":
        assert prep.scene.g[0] != 0.0
    if name == "long_responses":
        assert prep.scene.h.shape[-1] > 10 * prep.L
    if name == "short_wav":
        assert prep.mics.N == 19200 < round(config.duration_s * config.fs)
    phi_xx, H = dense_inputs(prep)
    Gt = np.kron(np.eye(prep.scene.K + 1), build_conv_matrix(prep.scene.g, config.Lw))
    q = build_q(prep.scene.K, prep.L)
    dense = {
        "S": Gt.T @ phi_xx @ Gt, "phi": Gt.T @ (phi_xx @ q), "power": q @ phi_xx @ q,
        "A": Gt.T @ H, "Hq": H.T @ q,
    }
    built = {"S": S, "A": _projected_constraint(prep.reirs, prep.scene.g, config.Lw)}
    for key, expected in dense.items():
        actual = built[key] if key in built else getattr(ctx, key)
        assert np.shape(actual) == np.shape(expected), key
        assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected)), key
    np.testing.assert_array_equal(S, S.T)


@pytest.mark.parametrize("name", ["fig3_synthetic", "fig5_synthetic", "paper_anechoic_error"])
def test_production_design_matches_the_dense_oracle(name):
    """At every delay, the taps, beta, rho, constraint residual and predicted error
    power of the production design lie within 1e-10 of the dense route's, relative."""
    config = SweepConfig.from_json(ROOT / "configs" / f"{name}.json")
    prep, ctx = design_and_stacks(config)
    params = DesignParams(beta_div=config.beta_div, rho_div=config.rho_div)
    phi_xx, H = dense_inputs(prep)
    oracle = _DesignContext(phi_xx, prep.scene.g, H, params, prep.scene.K, config.Lw)
    for (delta, res), (_, ref) in zip(solve_every_delay(prep, ctx, config), solve_every_delay(prep, oracle, config)):
        assert np.linalg.norm(res.filter - ref.filter) <= 1e-10 * np.linalg.norm(ref.filter), delta
        for key in ("beta", "rho", "constraint_residual", "predicted_error_power"):
            assert getattr(res, key) == pytest.approx(getattr(ref, key), rel=1e-10, abs=0.0), (delta, key)


def test_design_and_sweep_never_form_phi_xx_or_h(tmp_path, monkeypatch):
    """``ssanc design`` and ``ssanc sweep`` run with the dense route's
    autocorrelation and constraint matrix made to raise."""
    import ssanc.solver

    def forbidden(*args, **kwargs):
        raise AssertionError("the production design formed Phi_xx or H")

    for name in ("estimate_autocorrelation", "input_frames", "_constraint_matrix", "build_constraint"):
        monkeypatch.setattr(ssanc.solver, name, forbidden)
        monkeypatch.setattr(sweep_mod, name, forbidden, raising=False)
    cfg = write_quick_config(tmp_path)
    assert cli_main(["design", "--config", str(cfg), "--delta", "2", "--out", str(tmp_path / "f.json")]) == 0
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 0


def test_paper_scale_design_peak_and_held_arrays(traced_peak):
    """On paper_scale ((K+1) L = 2795) the scene and design stage peaks at most
    31 MiB under tracemalloc, and the context keeps no ((K+1) L)^2 array and
    exactly one ((K+1) Lw)^2 array, the factor of Phi_rr in S's place."""
    config = SweepConfig.from_json(ROOT / "configs" / "paper_scale.json")
    (prep, ctx), peak = traced_peak(lambda: sweep_mod._prepare_design(config, simulate=False))
    assert peak <= 31 * 2**20, peak / 2**20
    dim = (prep.scene.K + 1) * prep.L
    assert dim == 2795
    held = [value.size for value in vars(ctx).values() if isinstance(value, np.ndarray)]
    assert held and max(held) < dim**2
    assert held.count(((prep.scene.K + 1) * config.Lw) ** 2) == 1


def test_memory_need_counts_the_matrices_a_paper_scale_design_holds():
    """``_design_bytes``, the design phase of ``_memory_need``, is exactly the
    bytes of the factor Lc, of Y = Lc^-1 [A, phi] and of the factor of
    M0 + rho I that the paper_scale ``DesignContext`` holds."""
    config = SweepConfig.from_json(ROOT / "configs" / "paper_scale.json")
    prep, ctx = sweep_mod._prepare_design(config, simulate=False)
    Y = ctx.YA.base
    assert Y is ctx.yphi.base and Y.shape == (ctx.Lc.shape[0], ctx.Hq.shape[0] + 1)
    assert sweep_mod._design_bytes(config, prep.scene.K) == ctx.Lc.nbytes + Y.nbytes + ctx._inner.nbytes
