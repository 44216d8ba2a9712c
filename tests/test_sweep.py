import json
from pathlib import Path

import numpy as np
import pytest

import ssanc.sweep as sweep_mod
from ssanc.sweep import (
    ConfigError,
    SweepConfig,
    SweepRow,
    cli_main,
    default_scene_dict,
    run_sweep,
    write_rows_csv,
    zero_latency_scene_dict,
)


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
        assert r.design_ms >= 0.0


def test_run_sweep_parallel_matches_serial():
    cfg = quick_config()
    serial = run_sweep(cfg, threads=1)
    parallel = run_sweep(cfg, threads=3)
    for a, b in zip(serial, parallel):
        assert a.delta == b.delta
        assert a.nr_db == b.nr_db
        assert a.sdi_db == b.sdi_db
        assert a.effort == b.effort
        assert a.constraint_residual == b.constraint_residual


def test_run_sweep_error_rows_continue(monkeypatch):
    real = sweep_mod._constraint_vector

    def flaky(reirs, psi, target_kind, delta, L):
        if delta == 2:
            raise RuntimeError("boom")
        return real(reirs, psi, target_kind, delta, L)

    monkeypatch.setattr(sweep_mod, "_constraint_vector", flaky)
    rows = run_sweep(quick_config())
    assert rows[2].error == "RuntimeError: boom"
    assert np.isnan(rows[2].nr_db)
    assert all(r.error == "" for i, r in enumerate(rows) if i != 2)


def test_sweep_deterministic_csv_bytes(tmp_path):
    cfg = quick_config()
    for name in ("a.csv", "b.csv"):
        write_rows_csv(run_sweep(cfg), tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_columns_and_timings(tmp_path):
    rows = [SweepRow(delta=0, nr_db=1.5, sdi_db=-3.0, quality_db=0.5, effort=2.0,
                     constraint_residual=1e-9, design_ms=12.5)]
    write_rows_csv(rows, tmp_path / "x.csv")
    text = (tmp_path / "x.csv").read_text()
    header, line = text.splitlines()[:2]
    assert header == "delta,nr_db,sdi_db,quality_db,effort,constraint_residual,design_ms,error"
    assert line.split(",")[6] == ""  # wall time excluded by default
    write_rows_csv(rows, tmp_path / "t.csv", timings=True)
    assert (tmp_path / "t.csv").read_text().splitlines()[1].split(",")[6] == "12.5"


def test_csv_is_crlf_terminated(tmp_path):
    write_rows_csv([SweepRow(delta=0)], tmp_path / "x.csv")
    assert b"\r\n" in (tmp_path / "x.csv").read_bytes()


def test_zero_latency_scene_runs():
    cfg = quick_config(
        scene=zero_latency_scene_dict(), target_kind="reference_mic",
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


def test_manifest_scene_through_config(tmp_path):
    from ssanc import wavio

    rng = np.random.default_rng(0)
    names = {"speech_irs": [], "noise_irs": []}
    for role, delays in (("speech_irs", [2, 4]), ("noise_irs", [3, 1])):
        for m, d in enumerate(delays):
            ir = np.zeros(8)
            ir[d] = 1.0
            name = f"{role[:-4]}_{m}.wav"
            wavio.write_wav(tmp_path / name, 16000, ir)
            names[role].append(name)
    g = np.zeros(12)
    g[1] = 1.0
    wavio.write_wav(tmp_path / "g.wav", 16000, g)
    manifest = {
        "fs": 16000, "mics": 2,
        "speech_irs": names["speech_irs"], "noise_irs": names["noise_irs"],
        "secondary": "g.wav", "spatial_ref": 0,
    }
    (tmp_path / "scene.json").write_text(json.dumps(manifest))
    cfg = quick_config(scene={"kind": "manifest", "dir": str(tmp_path), "manifest": "scene.json"})
    rows = run_sweep(cfg)
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


def test_cli_sweep_writes_csv(tmp_path, capsys):
    cfg = write_quick_config(tmp_path)
    assert cli_main(["sweep", "--config", str(cfg), "--gnuplot"]) == 0
    assert (tmp_path / "rows.csv").exists()
    assert (tmp_path / "rows.gp").exists()
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
    ],
)
def test_cli_mistyped_config_value_is_one_line_error(tmp_path, capsys, key, value):
    cfg = json.loads((Path(__file__).parents[1] / "configs" / "fig3_synthetic.json").read_text())
    cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "rows.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_config_accepts_integral_floats():
    cfg = SweepConfig.from_dict({"fs": 16000.0, "Lw": 48.0, "seed": 3.0})
    assert (cfg.fs, cfg.Lw, cfg.seed) == (16000, 48, 3)
    assert all(type(v) is int for v in (cfg.fs, cfg.Lw, cfg.seed))
