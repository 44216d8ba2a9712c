"""Traced in-process pass over the ssanc layers, in the order run_sweep uses.

run.py starts this file as a child process, so that the ``import`` span
sees a fresh interpreter; it imports only the standard library before
that span.  Usage:

    python3 perfbench/traced.py SPEC.json

SPEC.json holds ``root`` (the repository), ``workload``, ``out`` (a
directory for the span file, the traced CSV and WAVs), ``config``,
``seed`` and ``design_delta``.  One process traces one config, as one
``ssanc sweep`` process would run it: import, prepare_scene,
autocorrelation, design_context, then solve, apply_control and
evaluate_run per delay; then design_control_filter and export_run_wavs
at the design delay.  Spans are kept in memory and written to
``<out>/spans.json`` when the pass ends.
"""

import importlib
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

# Every non-public name the benchmark touches, as (module, attribute).
# A refactor that renames or publishes one of these updates this table
# only.  A missing name fails the layer that needs it, by name; the
# untraced end-to-end run never reads this table.
PRIVATE = {
    "_DesignContext": ("ssanc.solver", "_DesignContext"),
    "_constraint_matrix": ("ssanc.solver", "_constraint_matrix"),
    "_constraint_vector": ("ssanc.solver", "_constraint_vector"),
    "_fit_secondary": ("ssanc.sweep", "_fit_secondary"),
}


class MissingName(LookupError):
    """A non-public name listed in PRIVATE no longer exists."""


def private(name: str):
    module, attr = PRIVATE[name]
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        raise MissingName(f"{module}.{attr} is gone; update PRIVATE in perfbench/traced.py") from None


class Skipped(RuntimeError):
    """A layer could not run because a layer it depends on failed."""


class Tracer:
    """Span recorder: one dict per call, kept in memory until ``dump``."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "delta": attrs.pop("delta", None),
            **attrs,
            "error": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self._stack.pop()

    def call(self, name: str, fn, *, delta=None, **attrs):
        """Run one layer call in a span; on failure record it and return None.

        This is the boundary that keeps the traced pass going when one
        layer raises, so the exception is recorded, not propagated.
        """
        span = self.open(name, delta=delta, **attrs)
        try:
            return fn()
        except Exception as exc:  # recorded per span and reported as <layer>.failed
            span["error"] = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            self.close(span)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"workload": self.workload, "spans": self.spans}))


def _needs(*values):
    if any(v is None for v in values):
        raise Skipped("an earlier layer failed")


def traced_pass(tr: Tracer, config_path: Path, seed: int, design_delta: int, out: Path) -> None:
    """Mirror run_sweep for one config, then the one-shot design and WAV export."""
    sweep = sys.modules["ssanc.sweep"]
    solver = sys.modules["ssanc.solver"]
    from ssanc.metrics import evaluate_run
    from ssanc.simulate import apply_control, export_run_wavs

    config = replace(sweep.SweepConfig.from_json(config_path), seed=seed)
    params = solver.DesignParams(beta_div=config.beta_div, rho_div=config.rho_div)
    stem = f"{Path(config_path).stem}_s{seed}"

    prep = tr.call("prepare_scene", lambda: sweep.prepare_scene(config))

    def autocorrelation():
        _needs(prep)
        return solver.estimate_autocorrelation(solver.input_frames(prep.mics, prep.L))

    dims = {}
    if prep is not None:
        dims = {"frames": prep.mics.N - prep.L + 1, "dim": (prep.scene.K + 1) * prep.L}
    phi_xx = tr.call("autocorrelation", autocorrelation, **dims)

    def design_context():
        _needs(prep, phi_xx)
        g = private("_fit_secondary")(prep.scene.g, config.Lg)
        H = private("_constraint_matrix")(prep.reirs, prep.L)
        return g, private("_DesignContext")(phi_xx, g, H, params, prep.scene.K, config.Lw)

    g, ctx = tr.call("design_context", design_context, **dims) or (None, None)

    rows, run_at_design = [], None
    for delta in config.deltas():
        def solve():
            _needs(ctx)
            t0 = time.perf_counter()
            f = private("_constraint_vector")(prep.reirs, prep.psi, config.target_kind, delta, prep.L)
            res = ctx.solve(f)
            return res, (time.perf_counter() - t0) * 1e3

        solved = tr.call("solve", solve, delta=delta)
        res = solved[0] if solved else None

        def simulate():
            _needs(res)
            return apply_control(
                res.filter, prep.mics, g,
                target_kind=config.target_kind, delta=delta, spatial_ref=prep.scene.spatial_ref,
            )

        samples = {"samples": prep.mics.N} if prep is not None else {}
        run = tr.call("apply_control", simulate, delta=delta, **samples)

        def evaluate():
            _needs(run)
            return evaluate_run(run, prep.mics)

        mb = tr.call("evaluate_run", evaluate, delta=delta)
        if delta == design_delta:
            run_at_design = run
        if mb is None:
            rows.append(sweep.SweepRow(delta=delta, error="traced layer failed"))
        else:
            rows.append(sweep.SweepRow(
                delta=delta, nr_db=mb.nr_db, sdi_db=mb.sdi_db, quality_db=mb.quality_db,
                effort=mb.effort, constraint_residual=res.constraint_residual, design_ms=solved[1],
            ))

    def one_shot_design():
        _needs(prep, phi_xx, g)
        constraint = solver.build_constraint(
            prep.reirs, prep.psi, config.target_kind, design_delta, config.Lw, config.Lg
        )
        return solver.design_control_filter(phi_xx, g, constraint, params, prep.scene.K, config.Lw)

    tr.call("design_control_filter", one_shot_design, delta=design_delta)

    def export():
        _needs(run_at_design)
        export_run_wavs(run_at_design, out / f"{stem}_wavs", config.fs)

    tr.call("export_run_wavs", export, delta=design_delta)
    sweep.write_rows_csv(rows, out / f"{stem}.csv")


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["root"])
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    tr = Tracer(spec["workload"])
    top = tr.open("trace", config=spec["config"], seed=spec["seed"])
    sys.path.insert(0, str(root / "src"))
    tr.call("import", lambda: importlib.import_module("ssanc"))
    if "ssanc.sweep" in sys.modules:
        traced_pass(tr, root / spec["config"], spec["seed"], spec["design_delta"], out)
    tr.close(top)
    tr.dump(out / "spans.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
