"""Benchmark of the ssanc delay-sweep pipeline.

    python3 perfbench/run.py --workload paper|desk|long --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list          # every metric, by name and unit

Run from the repository root.  With ``--trace 0`` each iteration drives
the real ``ssanc`` CLI as fresh, untraced, serial processes: ``design
--delta d``, ``simulate`` on that filter, then ``sweep``, once per config
of the workload.  Iterations repeat, with seeds derived from ``--seed``,
until the workload's minimum count is done and ``--seconds`` have passed;
timings are medians over iterations.  With ``--trace 1`` the run times
one untraced CLI sweep per config and then starts ``traced.py``, which
calls each layer from the benchmark's own code and records one span per
call.

The last line of stdout is the result JSON; the line before it is a
report with the environment stamp, per-iteration timings, reference
deviations and any problem found.  Outputs go to ``perfbench/out/``.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# a run must end within 180 s; no child may outlive this share of it
DEADLINE_S = 170.0
LAUNCHER = (
    "import importlib, sys; module, func = sys.argv.pop(1).split(':'); "
    "sys.argv[0] = 'ssanc'; getattr(importlib.import_module(module), func)()"
)


@dataclass(frozen=True)
class Workload:
    """Configs run per iteration, as (path from the root, design delta).

    ``simulate_repeats`` runs ``simulate`` that many times per config and
    iteration and keeps the median, so that a workload with one iteration
    still gets several samples of its shortest command.
    """

    name: str
    configs: tuple
    min_iterations: int
    simulate_repeats: int


# Why these three: paper is the only config where the dimension-driven
# layers (autocorrelation, factorization, solve) dominate; desk is
# dominated by import and prepare_scene and covers the reference_mic
# branch; long has small filters but 12x the samples, so ReIR estimation,
# simulation and metrics dominate and memory grows with N.  Design
# deltas: 16 is where paper_scale's NR peaks; 4 and 6 sit at and just
# above the 4-sample acoustic delay of the desk scenes.
WORKLOADS = {
    "paper": Workload("paper", (("configs/paper_scale.json", 16),), 1, 2),
    "desk": Workload("desk", (("configs/fig3_synthetic.json", 4), ("configs/fig5_synthetic.json", 6)), 3, 1),
    "long": Workload("long", (("perfbench/configs/long.json", 4),), 1, 3),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sweep_s": "s",
    "simulate_s": "s",
    "peak_rss_mb": "MB",
}

SCALAR_LAYERS = ("import", "prepare_scene", "autocorrelation", "design_context",
                 "design_control_filter", "export_run_wavs")
PER_DELAY_LAYERS = ("solve", "apply_control", "evaluate_run")
LAYERS = SCALAR_LAYERS[:4] + PER_DELAY_LAYERS + SCALAR_LAYERS[4:]
RSS_LAYERS = ("prepare_scene", "autocorrelation", "design_context")


def per_layer_units() -> dict:
    units = {f"{name}.s": "s" for name in SCALAR_LAYERS}
    units.update({f"{name}.peak_rss_mb": "MB" for name in RSS_LAYERS})
    units.update({
        "autocorrelation.gflop": "GFLOP",
        "autocorrelation.frames": "count",
        "autocorrelation.dim": "count",
        "design_context.dim": "count",
        "apply_control.samples": "count",
    })
    for name in PER_DELAY_LAYERS:
        units.update({
            f"{name}.ms_p50": "ms",
            f"{name}.ms_tail": "ms",
            f"{name}.tail_pct": "%",
            f"{name}.calls": "count",
            f"{name}.total_s": "s",
        })
    units.update({f"{name}.failed": "count" for name in LAYERS})
    units.update({
        "trace.total_s": "s",
        "trace.residual_s": "s",
        "trace.cli_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    return units


def command_seed(seed: int, iteration: int) -> int:
    """Seed passed to every command of an iteration."""
    return seed + 1000 * iteration


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no source tree, no entry point)."""


@dataclass
class Invocation:
    argv: list
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int


@dataclass
class Runner:
    """Starts one child at a time and reaps it with wait4 for its own rusage."""

    deadline: float
    entry: str = ""
    env: dict = field(default_factory=dict)
    invocations: list = field(default_factory=list)

    @classmethod
    def for_checkout(cls, root: Path, deadline: float) -> "Runner":
        pyproject = root / "pyproject.toml"
        if not (root / "src" / "ssanc" / "__init__.py").is_file() or not pyproject.is_file():
            raise SetupError(f"{root} holds no ssanc source tree (src/ssanc, pyproject.toml)")
        try:
            with pyproject.open("rb") as fh:
                entry = tomllib.load(fh)["project"]["scripts"]["ssanc"]
        except (tomllib.TOMLDecodeError, KeyError) as exc:
            raise SetupError(f"pyproject.toml names no ssanc entry point: {exc}") from exc
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        return cls(deadline=deadline, entry=entry, env=env)

    def spawn(self, argv: list, log: Path) -> Invocation:
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.perf_counter()
        with log.open("wb") as fh:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(argv, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)
        self.invocations.append(inv)
        return inv

    def cli(self, *args: str, log: Path) -> Invocation:
        return self.spawn([sys.executable, "-c", LAUNCHER, self.entry, *args], log)


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads():
    """Threads the BLAS that numpy loaded will use, or None if it cannot be asked."""
    import ctypes
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path) -> dict:
    """Commit, machine and library versions, so a result can be placed."""
    import numpy as np

    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "src_sha256": source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": list(os.getloadavg()),
    }


class Tally:
    """Operations attempted and failed, deviations and problems of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.deviation = checks.Deviation()
        self.referenced = 0

    def add(self, res: checks.CheckResult) -> None:
        self.attempted += res.attempted
        self.failed += res.failed
        self.problems.extend(res.problems)
        if res.deviation is not None:
            self.referenced += 1
            self.deviation.merge(res.deviation)

    def report(self) -> dict:
        return {
            "outputs_with_reference": self.referenced,
            "reference_deviation": self.deviation.as_dict() if self.referenced else None,
            "problems": self.problems[:50],
        }


def _deltas(config_path: Path) -> list[int]:
    start, stop, step = json.loads(config_path.read_text()).get("delta_range", [0, 24, 1])
    return list(range(int(start), int(stop) + 1, int(step)))


def sweep_cli(runner: Runner, config: str, seed: int, out: Path,
              tally: Tally, digests: checks.DigestBook, src: str) -> float:
    """One checked `ssanc sweep`; returns its wall time."""
    stem = f"{Path(config).stem}_s{seed}"
    deltas = _deltas(ROOT / config)
    csv_path = out / f"{stem}.csv"
    inv = runner.cli("sweep", "--config", config, "--seed", str(seed), "--out", str(csv_path),
                     log=out / f"{stem}.sweep.log")
    if inv.returncode == 0:
        tally.add(checks.check_sweep(csv_path, deltas, checks.reference_stem(config, seed), digests, f"{src}|{stem}"))
    else:
        tally.add(checks.CheckResult(len(deltas), len(deltas), [f"sweep {stem} exited {inv.returncode}"]))
    return inv.wall_s


def run_iteration(runner: Runner, wl: Workload, seed: int, it: int, out: Path,
                  tally: Tally, digests: checks.DigestBook, src: str) -> dict:
    """design, simulate and sweep for every config of the workload at one seed."""
    times = {"setup_s": 0.0, "simulate_s": 0.0, "sweep_s": 0.0}
    for config, delta in wl.configs:
        cs = command_seed(seed, it)
        stem = f"{Path(config).stem}_s{cs}"
        ref = checks.reference_stem(config, cs)
        common = ("--config", config, "--seed", str(cs))

        design_json = out / f"{stem}.design.json"
        inv = runner.cli("design", *common, "--delta", str(delta), "--out", str(design_json),
                         log=out / f"{stem}.design.log")
        times["setup_s"] += inv.wall_s
        if inv.returncode == 0:
            tally.add(checks.check_design(design_json, ref))
        else:
            tally.add(checks.CheckResult(1, 1, [f"design {stem} exited {inv.returncode}"]))

        sim_dir = out / f"{stem}_wavs"
        if inv.returncode == 0:
            walls = []
            for _ in range(wl.simulate_repeats):
                inv = runner.cli("simulate", *common, "--filter", str(design_json), "--delta", str(delta),
                                 "--out", str(sim_dir), log=out / f"{stem}.simulate.log")
                walls.append(inv.wall_s)
                if inv.returncode == 0:
                    tally.add(checks.check_simulate(sim_dir, ref))
                else:
                    tally.add(checks.CheckResult(1, 1, [f"simulate {stem} exited {inv.returncode}"]))
            times["simulate_s"] += statistics.median(walls)
        else:
            n = wl.simulate_repeats
            tally.add(checks.CheckResult(n, n, [f"simulate {stem} skipped: no filter"]))

        times["sweep_s"] += sweep_cli(runner, config, cs, out, tally, digests, src)
    times["wall_s"] = sum(times.values())
    return times


def run_end_to_end(runner: Runner, wl: Workload, seed: int, seconds: float, out: Path,
                   tally: Tally, digests: checks.DigestBook, src: str) -> tuple[dict, dict]:
    iterations = []
    start = time.monotonic()
    while len(iterations) < wl.min_iterations or time.monotonic() - start < seconds:
        t0 = time.monotonic()
        iterations.append(run_iteration(runner, wl, seed, len(iterations), out, tally, digests, src))
        if time.monotonic() + (time.monotonic() - t0) > runner.deadline - 10.0:
            break
    metrics = {name: statistics.median(it[name] for it in iterations) for name in END_TO_END if name != "peak_rss_mb"}
    metrics["peak_rss_mb"] = max(inv.maxrss_mb for inv in runner.invocations)
    return metrics, {"iterations": iterations}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it (50 at least)."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 50


def nearest_rank(values: list, pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def layer_metrics(spans: list, cli_s: float) -> dict:
    """Per-layer figures from the spans; every layer span is a leaf under a `trace` span."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def dur(span):
        return span["end"] - span["start"]

    m = {}
    for name in SCALAR_LAYERS:
        m[f"{name}.s"] = sum(dur(s) for s in by_name[name])
    for name in RSS_LAYERS:
        m[f"{name}.peak_rss_mb"] = max((s["maxrss_mb"] for s in by_name[name]), default=0.0)
    auto = by_name["autocorrelation"]
    m["autocorrelation.frames"] = sum(s.get("frames", 0) for s in auto)
    m["autocorrelation.dim"] = max((s.get("dim", 0) for s in auto), default=0)
    m["autocorrelation.gflop"] = sum(2.0 * s.get("frames", 0) * s.get("dim", 0) ** 2 for s in auto) / 1e9
    m["design_context.dim"] = max((s.get("dim", 0) for s in by_name["design_context"]), default=0)
    m["apply_control.samples"] = max((s.get("samples", 0) for s in by_name["apply_control"]), default=0)
    for name in PER_DELAY_LAYERS:
        ms = [dur(s) * 1e3 for s in by_name[name]]
        pct = tail_percentile(len(ms))
        m[f"{name}.ms_p50"] = statistics.median(ms) if ms else 0.0
        m[f"{name}.ms_tail"] = nearest_rank(ms, pct) if ms else 0.0
        m[f"{name}.tail_pct"] = pct
        m[f"{name}.calls"] = len(ms)
        m[f"{name}.total_s"] = sum(ms) / 1e3
    for name in LAYERS:
        m[f"{name}.failed"] = sum(1 for s in by_name[name] if s["error"])

    total = sum(dur(s) for s in by_name["trace"])
    layer_total = sum(dur(s) for s in spans if s["name"] in LAYERS)
    m["trace.total_s"] = total
    m["trace.residual_s"] = total - layer_total
    m["trace.cli_s"] = cli_s
    # in-process traced run of what `ssanc sweep` does, minus the untraced CLI sweep
    one_shot = m["design_control_filter.s"] + m["export_run_wavs.s"]
    m["trace.overhead_s"] = total - one_shot - cli_s
    m["trace.spans"] = len(spans)
    return m


def run_traced(runner: Runner, wl: Workload, seed: int, out: Path,
               tally: Tally, digests: checks.DigestBook, src: str) -> tuple[dict, dict]:
    passes = [{"config": c, "seed": command_seed(seed, 0), "design_delta": d} for c, d in wl.configs]
    cli_s = sum(sweep_cli(runner, p["config"], p["seed"], out, tally, digests, src) for p in passes)

    spans, agreement = [], checks.Deviation()
    for i, p in enumerate(passes):
        stem = f"{Path(p['config']).stem}_s{p['seed']}"
        trace_dir = out / f"trace_{stem}"
        spec = out / f"{stem}.trace_spec.json"
        spec.write_text(json.dumps({"root": str(ROOT), "workload": wl.name, "out": str(trace_dir), **p}))
        inv = runner.spawn([sys.executable, str(BENCH / "traced.py"), str(spec)], log=out / f"{stem}.traced.log")
        spans_path = trace_dir / "spans.json"
        if inv.returncode != 0 or not spans_path.exists():
            raise SetupError(f"traced run exited {inv.returncode}; see {out / f'{stem}.traced.log'}")
        for span in json.loads(spans_path.read_text())["spans"]:
            span["id"] = f"{i}.{span['id']}"
            span["parent"] = None if span["parent"] is None else f"{i}.{span['parent']}"
            spans.append(span)
            if span["error"]:
                tally.problems.append(f"{stem}: {span['name']} (delta {span['delta']}): {span['error']}")
        # the traced replica of run_sweep must give the CLI's rows; they are
        # counted once already, by the CLI sweep, so only problems are added
        agree = checks.compare_rows(trace_dir / f"{stem}.csv", out / f"{stem}.csv")
        tally.problems.extend(agree.problems)
        if agree.deviation is not None:
            agreement.merge(agree.deviation)
    (out / "spans.json").write_text(json.dumps(spans))

    metrics = layer_metrics(spans, cli_s)
    tally.attempted += sum(1 for s in spans if s["name"] in LAYERS)
    tally.failed += sum(metrics[f"{name}.failed"] for name in LAYERS)
    return metrics, {
        "trace_overhead_label": "in-process traced sweep layers minus untraced CLI sweep wall",
        "traced_vs_cli_rows": agreement.as_dict(),
        "spans_file": str((out / "spans.json").relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric with its unit and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name, unit in END_TO_END.items():
            print(f"end_to_end  {name:28s} {unit}")
        for name, unit in per_layer_units().items():
            print(f"per_layer   {name:28s} {unit}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, report = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


def run(wl: Workload, seed: int, seconds: float, trace: int, out: Path | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, report)."""
    deadline = time.monotonic() + DEADLINE_S
    runner = Runner.for_checkout(ROOT, deadline)
    out = out or OUT / f"{wl.name}_s{seed}_t{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = environment(ROOT)
    digests = checks.DigestBook(OUT / "csv_digests.json")
    tally = Tally()

    # fill the page cache and __pycache__ before anything is timed
    warm = runner.spawn([sys.executable, "-c", "import ssanc"], log=out / "warmup.log")
    runner.invocations.clear()
    if warm.returncode != 0:
        raise SetupError(f"import ssanc failed; see {out / 'warmup.log'}")

    if trace:
        values, detail = run_traced(runner, wl, seed, out, tally, digests, env["src_sha256"])
        units = per_layer_units()
    else:
        values, detail = run_end_to_end(runner, wl, seed, seconds, out, tally, digests, env["src_sha256"])
        units = END_TO_END
    digests.save()
    env["loadavg_end"] = list(os.getloadavg())

    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report = {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "env": env,
        "invocations": [
            {"args": inv.argv[4:] if inv.argv[1] == "-c" else inv.argv[1:], "wall_s": inv.wall_s,
             "cpu_s": inv.cpu_s, "maxrss_mb": inv.maxrss_mb, "rc": inv.returncode}
            for inv in runner.invocations
        ],
        **detail,
        **tally.report(),
    }
    (out / "report.json").write_text(json.dumps({"report": report, "result": result}, indent=1))
    return result, report


if __name__ == "__main__":
    sys.exit(main())
