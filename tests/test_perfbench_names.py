"""The benchmark's traced pass calls ssanc by name; those names must keep resolving.

``perfbench/traced.py`` is loaded from its file, unchanged, exactly as
the benchmark runs it.
"""

import importlib.util
import json
from pathlib import Path

import ssanc

TRACED = Path(__file__).parents[1] / "perfbench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_private_names_resolve():
    traced = load_traced()
    assert traced.PRIVATE
    for name in traced.PRIVATE:
        assert callable(traced.private(name)), name


def test_public_names_exist():
    assert [name for name in ssanc.__all__ if not hasattr(ssanc, name)] == []


def test_traced_pass_has_no_failed_layer(tmp_path):
    traced = load_traced()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "duration_s": 1.5, "Lw": 12, "Lg": 12, "Lh": 12, "delta_range": [0, 3, 1],
    }))
    tr = traced.Tracer("test")
    traced.traced_pass(tr, config, seed=0, design_delta=2, out=tmp_path)
    assert [(span["name"], span["error"]) for span in tr.spans if span["error"]] == []
    names = {span["name"] for span in tr.spans}
    assert names == {"prepare_scene", "autocorrelation", "design_context", "solve",
                     "apply_control", "evaluate_run", "design_control_filter", "export_run_wavs"}
