"""Fuzz the CLI commands with small configs: each must exit 0, 1 or 2 and never print a traceback."""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from ssanc.sweep import cli_main


def near(value) -> list:
    """Off-by-one, float, NaN, string and bool neighbours of a valid config value."""
    if isinstance(value, list):
        return [value[:i] + [bad] + value[i + 1 :] for i, v in enumerate(value) for bad in near(v)]
    if isinstance(value, str):
        return ["", 1.0, True, float("nan")]
    if isinstance(value, int):
        return [value - 1, value + 1, value + 0.5, float("nan"), str(value), True]
    return [value + 1.0, -value, float("nan"), float("inf"), str(value), False]


@st.composite
def cli_runs(draw):
    """A command, its config and a zero filter of the config's K+1 and Lw, both before mutation."""
    command = draw(st.sampled_from(["sweep", "design", "simulate"]))
    taps = st.integers(1, 16)
    top = {
        "fs": 8000,
        "duration_s": draw(st.sampled_from([1.0, 1.5, 2.0])),
        "snr_db": draw(st.sampled_from([-5.0, 0.0, 10.0])),
        "Lw": draw(taps),
        "Lg": draw(taps),
        "Lh": draw(taps),
        "target_kind": draw(st.sampled_from(["error_mic", "reference_mic"])),
        "delta_range": [0, draw(st.integers(0, 4)), 1],
        "psi": draw(st.sampled_from(["off", 200.0])),
        "seed": draw(st.integers(0, 3)),
    }
    scene = {
        "kind": "synthetic",
        "K": 2,
        "speech_delays": [6, 8, 10],
        "noise_delays": [9, 5, 7],
        "gains": [[1.0, 0.7], [0.8, 1.0], [0.6, 0.8]],
        "sec_delay": draw(st.integers(1, 3)),
        "tail_amp": 0.3,
        "tail_decay": 12.0,
    }
    # now and then signals or design matrices (terabytes) too large for any
    # memory, which must be refused with one line before they are allocated
    top.update(draw(st.sampled_from(
        [{}] * 8 + [{"duration_s": 1e12}, {"duration_s": 1e6, "Lw": 10**5, "Lg": 10**5}]
    )))
    zero = {"K": scene["K"], "Lw": top["Lw"], "w": [[0.0] * top["Lw"]] * (scene["K"] + 1)}
    slots = [(top, key) for key in sorted(top)] + [(scene, key) for key in sorted(scene)]
    for i in draw(st.lists(st.integers(0, len(slots) - 1), max_size=2, unique=True)):
        where, key = slots[i]
        where[key] = draw(st.sampled_from(near(where[key])))
    return command, {**top, "scene": scene}, zero


@settings(max_examples=50, deadline=None)
@given(run=cli_runs())
def test_cli_exit_code_and_stderr(tmp_path_factory, run):
    command, cfg, zero = run
    out = tmp_path_factory.mktemp("fuzz")
    path = out / "config.json"
    path.write_text(json.dumps(cfg))
    (out / "zero.json").write_text(json.dumps(zero))
    extra = {
        "sweep": ["--out", str(out / "rows.csv")],
        "design": ["--delta", "0", "--out", str(out / "filter.json")],
        "simulate": ["--filter", str(out / "zero.json"), "--out", str(out / "sim")],
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main([command, "--config", str(path), *extra])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        assert len(err.splitlines()) == 1, err
