"""Config-driven experiment harness and command-line interface.

Runs the delay-sweep experiment: for each target delay in a configured
range, build the spatial constraint, design the control filter,
simulate it on the rendered microphone signals and collect the metric
row.  Results go to CSV with a fixed column order.

The default configuration is desk-scale (short filters, K = 2,
synthetic scene) and sweeps in a few seconds.  The paper-scale
configuration (280-tap filters, K = 4, 141 delays) works the same way;
its input autocorrelation comes from the signals' cross-correlations
rather than the 2795-wide frame matrix, so the sweep is dominated by
the per-delay solve, simulation and metrics.
"""

import argparse
import csv
import json
import math
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ssanc import signals, wavio
from ssanc.convmat import build_conv_matrix, build_q, block_diag_secondary
from ssanc.metrics import evaluate_run
from ssanc.reir import ReIRSet, design_min_phase_highpass, estimate_reirs
from ssanc.scene import ScalingError, Scene, SceneLoadError, load_scene_wav, render_mics, synth_scene
from ssanc.simulate import apply_control, export_run_wavs
from ssanc.solver import (
    Constraint,
    ConvergenceError,
    DesignParams,
    InfeasibleConstraintError,
    SingularSystemError,
    _constraint_matrix,
    _constraint_vector,
    _DesignContext,
    build_constraint,
    design_control_filter,
    estimate_autocorrelation,
    input_frames,
    kkt_oracle,
    load_filter_json,
    save_filter_json,
)

CSV_COLUMNS = (
    "delta",
    "nr_db",
    "sdi_db",
    "quality_db",
    "effort",
    "constraint_residual",
    "design_ms",
    "error",
)

NUMERIC_ERRORS = (
    SingularSystemError,
    ConvergenceError,
    InfeasibleConstraintError,
    np.linalg.LinAlgError,
    FloatingPointError,
)


class ConfigError(ValueError):
    """The sweep configuration is missing, malformed or inconsistent."""


@dataclass(frozen=True)
class SweepRow:
    """Metrics for one target delay; ``error`` is empty on success."""

    delta: int
    nr_db: float = float("nan")
    sdi_db: float = float("nan")
    quality_db: float = float("nan")
    effort: float = float("nan")
    constraint_residual: float = float("nan")
    design_ms: float = float("nan")
    error: str = ""


def default_scene_dict() -> dict:
    """Desk-scale synthetic scene: speech ahead of reference 0, noise off to the side.

    The speech acoustic delay from the spatial reference (mic 0) to the
    error microphone is 4 samples.
    """
    return {
        "kind": "synthetic",
        "K": 2,
        "speech_delays": [6, 8, 10],
        "noise_delays": [9, 5, 7],
        "gains": [[1.0, 0.7], [0.8, 1.0], [0.6, 0.8]],
        "sec_delay": 2,
        "tail_amp": 0.3,
        "tail_decay": 12.0,
        "spatial_ref": None,
        "ir_len": None,
    }


def zero_latency_scene_dict() -> dict:
    """Synthetic scene with a zero-latency, mildly non-minimum-phase secondary path.

    Models a measured transducer path (immediate onset, one zero just
    outside the unit circle) supplied via explicit taps.  This is the
    scene used to demonstrate the reference-target causality behavior:
    target delays below the 4-sample acoustic delay force the design to
    work through the expensive early response, so noise reduction is
    worst at zero delay and recovers a few samples above the acoustic
    delay.  Not usable with closed-loop simulation (g[0] != 0).
    """
    g = np.zeros(48)
    g[0] = 0.7
    g[1] = 1.0
    g[2:16] = 0.55 ** np.arange(1, 15)
    scene = default_scene_dict()
    scene["noise_delays"] = [9, 5, 12]
    scene["gains"] = [[1.0, 0.7], [0.8, 1.0], [0.95, 0.8]]
    scene["g_taps"] = [float(v) for v in g]
    scene["seed"] = 4
    return scene


def _integer(key: str, value) -> int:
    """A JSON number with an integral value, as int; anything else is a config error."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _real(key: str, value) -> float:
    """A finite JSON number, as float; anything else is a config error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SweepConfig:
    """Everything one sweep needs; ``from_dict`` validates a JSON config."""

    fs: int = 16000
    scene: dict = field(default_factory=default_scene_dict)
    speech_wav: str | None = None
    noise_wav: str | None = None
    duration_s: float = 5.0
    snr_db: float = -5.0
    Lw: int = 48
    Lg: int = 48
    Lh: int = 48
    target_kind: str = "error_mic"
    delta_range: tuple[int, int, int] = (0, 24, 1)
    psi: float | None = None  # high-pass cutoff in Hz, or None for no weighting
    beta_div: float = 500.0
    rho_div: float = 30000.0
    reir_reg: float | None = None
    seed: int = 0
    out: str = "sweep.csv"

    _KEYS = (
        "fs", "scene", "speech_wav", "noise_wav", "duration_s", "snr_db",
        "Lw", "Lg", "Lh", "target_kind", "delta_range", "psi",
        "beta_div", "rho_div", "reir_reg", "seed", "out",
    )
    _INTEGERS = ("fs", "Lw", "Lg", "Lh", "seed")
    _REALS = ("duration_s", "snr_db", "beta_div", "rho_div")

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - set(cls._KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = {**{k: getattr(cls, k, None) for k in cls._KEYS}, **d}
        if "scene" not in d or d["scene"] is None:
            merged["scene"] = default_scene_dict()

        for key in cls._INTEGERS:
            merged[key] = _integer(key, merged[key])
        for key in cls._REALS:
            merged[key] = _real(key, merged[key])
        psi = merged["psi"]
        if psi in ("off", None):
            merged["psi"] = None
        elif isinstance(psi, str):
            raise ConfigError(f'psi must be "off" or a cutoff in Hz, got {psi!r}')
        else:
            merged["psi"] = _real("psi", psi)
        if merged["reir_reg"] is not None:
            merged["reir_reg"] = _real("reir_reg", merged["reir_reg"])

        dr = merged.get("delta_range")
        try:
            start, stop, step = (int(v) for v in dr)
        except (TypeError, ValueError):
            raise ConfigError(f"delta_range must be [start, stop, step], got {dr!r}") from None
        merged["delta_range"] = (start, stop, step)

        cfg = cls(**merged)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(payload)

    def validate(self) -> None:
        if self.fs <= 0:
            raise ConfigError(f"fs must be positive, got {self.fs}")
        if min(self.Lw, self.Lg, self.Lh) < 1:
            raise ConfigError("Lw, Lg, Lh must all be >= 1")
        if self.duration_s * self.fs < self.fs:
            raise ConfigError(f"signals must be at least 1 s, got {self.duration_s} s")
        if self.target_kind not in ("error_mic", "reference_mic"):
            raise ConfigError(f"target_kind must be error_mic or reference_mic, got {self.target_kind!r}")
        start, stop, step = self.delta_range
        if start < 0 or stop < start or step < 1:
            raise ConfigError(f"bad delta_range {self.delta_range}")
        L = self.Lg + self.Lw - 1
        max_delta = self.Lh - 1 if self.target_kind == "reference_mic" else L - 1
        if stop > max_delta:
            raise ConfigError(
                f"delta_range stop {stop} beyond the causality bound {max_delta} "
                f"for target_kind={self.target_kind}"
            )
        if self.psi is not None and not 0.0 < self.psi < self.fs / 2.0:
            raise ConfigError(f"psi cutoff {self.psi} Hz outside (0, fs/2)")
        if self.beta_div <= 0 or self.rho_div <= 0:
            raise ConfigError("beta_div and rho_div must be positive")
        if not isinstance(self.scene, dict) or self.scene.get("kind") not in ("synthetic", "manifest"):
            raise ConfigError('scene.kind must be "synthetic" or "manifest"')

    def deltas(self) -> list[int]:
        start, stop, step = self.delta_range
        return list(range(start, stop + 1, step))


@dataclass(frozen=True, eq=False)
class PreparedScene:
    """Scene, rendered signals and estimated ReIRs for one configuration."""

    scene: Scene
    mics: object
    reirs: ReIRSet
    psi: np.ndarray
    L: int


def _build_scene(config: SweepConfig) -> Scene:
    sc = dict(config.scene)
    kind = sc.pop("kind")
    if kind == "manifest":
        try:
            directory = sc.pop("dir")
            manifest = sc.pop("manifest")
        except KeyError as exc:
            raise ConfigError(f"manifest scene needs {exc} key") from exc
        scene = load_scene_wav(directory, manifest)
        if scene.fs != config.fs:
            raise ConfigError(f"scene fs {scene.fs} != config fs {config.fs}")
        return scene

    known = {"K", "speech_delays", "noise_delays", "gains", "sec_delay",
             "tail_amp", "tail_decay", "spatial_ref", "ir_len", "sec_gain", "sec_onset",
             "g_taps", "seed"}
    unknown = set(sc) - known
    if unknown:
        raise ConfigError(f"unknown synthetic-scene keys: {sorted(unknown)}")
    g_taps = sc.get("g_taps")
    try:
        scene = synth_scene(
            K=int(sc["K"]),
            speech_delays=sc["speech_delays"],
            noise_delays=sc["noise_delays"],
            gains=sc["gains"],
            sec_delay=int(sc["sec_delay"]),
            sec_ir_len=config.Lg,
            fs=config.fs,
            seed=int(sc["seed"]) if sc.get("seed") is not None else config.seed + 3,
            spatial_ref=sc.get("spatial_ref"),
            ir_len=sc.get("ir_len"),
            tail_amp=float(sc.get("tail_amp", 0.0)),
            tail_decay=float(sc.get("tail_decay", 6.0)),
            sec_gain=float(sc.get("sec_gain", 1.0)),
            sec_onset=float(sc.get("sec_onset", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad synthetic scene: {exc}") from exc
    if g_taps is not None:
        # explicit secondary-path taps, e.g. exported from a measurement;
        # unlike synth_scene's pulse model these may start at lag 0
        g = np.asarray(g_taps, dtype=float).ravel()
        if g.size < 1 or not np.all(np.isfinite(g)):
            raise ConfigError("g_taps must be a non-empty list of finite taps")
        scene = Scene(
            K=scene.K, ir_speech=scene.ir_speech, ir_noise=scene.ir_noise,
            g=g, fs=scene.fs, spatial_ref=scene.spatial_ref,
        )
    return scene


def _load_source(path, config: SweepConfig, n: int) -> np.ndarray:
    fs, data = wavio.read_wav_mono(path)
    if fs != config.fs:
        raise ConfigError(f"{path}: sample rate {fs} != config fs {config.fs}")
    if data.shape[0] < config.fs:
        raise ConfigError(f"{path}: shorter than 1 s")
    return data[:n] if data.shape[0] >= n else data


def prepare_scene(config: SweepConfig) -> PreparedScene:
    """Render microphone signals and estimate ReIRs for a configuration.

    Source seeds derive from the config seed: speech uses seed, noise
    seed+1, the white-noise ReIR excitation seed+2, scene tails seed+3.
    """
    scene = _build_scene(config)
    n = int(round(config.duration_s * config.fs))

    speech = (
        _load_source(config.speech_wav, config, n)
        if config.speech_wav
        else signals.speech_shaped_noise(n, config.fs, config.seed)
    )
    noise = (
        _load_source(config.noise_wav, config, n)
        if config.noise_wav
        else signals.speech_shaped_noise(n, config.fs, config.seed + 1)
    )
    n = min(speech.shape[0], noise.shape[0])
    speech, noise = speech[:n], noise[:n]

    white = signals.white_noise(n, config.seed + 2)
    mics_white = render_mics(scene, white)
    reirs = estimate_reirs(mics_white, scene.spatial_ref, config.Lh, reg=config.reir_reg)

    mics = render_mics(scene, speech, noise, config.snr_db)

    L = config.Lg + config.Lw - 1
    psi = (
        np.array([1.0])
        if config.psi is None
        else design_min_phase_highpass(config.psi, config.fs, L)
    )
    return PreparedScene(scene=scene, mics=mics, reirs=reirs, psi=psi, L=L)


def _fit_secondary(g, Lg: int) -> np.ndarray:
    """Zero-pad a short secondary path to Lg taps; never truncate silently."""
    g = np.asarray(g, dtype=float).ravel()
    if g.shape[0] > Lg:
        raise ConfigError(
            f"secondary path has {g.shape[0]} taps but config Lg is {Lg}; raise Lg"
        )
    if g.shape[0] < Lg:
        warnings.warn(
            f"zero-padding secondary path from {g.shape[0]} to Lg = {Lg} taps",
            stacklevel=2,
        )
        g = np.concatenate([g, np.zeros(Lg - g.shape[0])])
    return g


def run_sweep(config: SweepConfig, threads: int = 1) -> list[SweepRow]:
    """Design, simulate and score one filter per delay in the configured range.

    The scene rendering, ReIR estimation, input autocorrelation and all
    delay-independent factorizations are shared across the sweep; each
    delay then contributes one constraint vector, one solve and one
    simulation.  A failure at one delay yields an error row and the
    sweep continues.
    """
    prep = prepare_scene(config)
    scene, mics, reirs = prep.scene, prep.mics, prep.reirs
    g = _fit_secondary(scene.g, config.Lg)

    phi_xx = estimate_autocorrelation(input_frames(mics, prep.L))
    H = _constraint_matrix(reirs, prep.L)
    params = DesignParams(beta_div=config.beta_div, rho_div=config.rho_div)
    ctx = _DesignContext(phi_xx, g, H, params, scene.K, config.Lw)

    def one_delta(delta: int) -> SweepRow:
        try:
            t0 = time.perf_counter()
            f = _constraint_vector(reirs, prep.psi, config.target_kind, delta, prep.L)
            res = ctx.solve(f)
            design_ms = (time.perf_counter() - t0) * 1e3
            run = apply_control(
                res.filter, mics, g,
                target_kind=config.target_kind, delta=delta, spatial_ref=scene.spatial_ref,
            )
            mb = evaluate_run(run, mics)
            return SweepRow(
                delta=delta,
                nr_db=mb.nr_db,
                sdi_db=mb.sdi_db,
                quality_db=mb.quality_db,
                effort=mb.effort,
                constraint_residual=res.constraint_residual,
                design_ms=design_ms,
            )
        except Exception as exc:  # record and continue with the other deltas
            return SweepRow(delta=delta, error=f"{type(exc).__name__}: {exc}")

    deltas = config.deltas()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(one_delta, deltas))
    else:
        rows = [one_delta(d) for d in deltas]
    return rows


def _fmt(value) -> str:
    return repr(float(value))


def write_rows_csv(rows, path, timings: bool = False) -> None:
    """Write sweep rows as RFC-4180 CSV (UTF-8, CRLF, fixed column order).

    design_ms is wall time and varies run to run, so it is left empty
    unless ``timings`` is requested; this keeps the CSV byte-identical
    for identical configs and seeds.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([
                row.delta,
                _fmt(row.nr_db),
                _fmt(row.sdi_db),
                _fmt(row.quality_db),
                _fmt(row.effort),
                _fmt(row.constraint_residual),
                _fmt(row.design_ms) if timings else "",
                row.error,
            ])


def write_gnuplot_script(csv_path, script_path) -> None:
    csv_name = Path(csv_path).name
    text = f"""set datafile separator ','
set key autotitle columnhead
set xlabel 'target delay (samples)'
set terminal pngcairo size 900,900
set output '{Path(csv_name).stem}.png'
set multiplot layout 4,1
set ylabel 'NR (dB)'
plot '{csv_name}' using 1:2 with linespoints notitle
set ylabel 'SDI (dB)'
plot '{csv_name}' using 1:3 with linespoints notitle
set ylabel 'quality proxy (dB)'
plot '{csv_name}' using 1:4 with linespoints notitle
set ylabel 'control effort'
plot '{csv_name}' using 1:5 with linespoints notitle
unset multiplot
"""
    Path(script_path).write_text(text)


def verify_against_oracle(trials: int = 20, dims: tuple[int, int, int] | None = None, seed: int = 0):
    """Compare the closed-form design (rho = 0) against the KKT saddle solve.

    Random small instances with a feasible constraint (the target vector
    is synthesized from a random filter, so the equality constraint is
    consistent by construction).  Returns (max relative l2 deviation,
    per-trial list).
    """
    rng = np.random.default_rng(seed)
    gaps = []
    for _ in range(trials):
        K = int(rng.integers(1, 3))
        if dims is None:
            Lw, Lg, Lh = (int(rng.integers(3, 7)) for _ in range(3))
        else:
            Lw, Lg, Lh = dims
        L = Lg + Lw - 1
        dim = (K + 1) * L

        B = rng.standard_normal((dim, dim + 4))
        phi_xx = B @ B.T / (dim + 4)
        g = rng.standard_normal(Lg)
        reirs = ReIRSet(h=rng.standard_normal((K + 1, Lh)), spatial_ref=0)
        base = build_constraint(reirs, [1.0], "error_mic", 0, Lw, Lg)

        Gt = block_diag_secondary(build_conv_matrix(g, Lw), K)
        q = build_q(K, L).flat
        w0 = rng.standard_normal((K + 1) * Lw)
        constraint = replace_constraint_f(base, base.H.T @ (q + Gt @ w0))

        res = design_control_filter(phi_xx, g, constraint, DesignParams(rho=0.0), K, Lw)
        oracle = kkt_oracle(phi_xx, g, constraint, res.beta, K, Lw)
        num = np.linalg.norm(res.filter.stacked - oracle.stacked)
        den = max(np.linalg.norm(oracle.stacked), 1e-300)
        gaps.append(num / den)
    return max(gaps), gaps


def replace_constraint_f(constraint, f):
    """Constraint with the same matrix but a custom target vector."""
    return Constraint(
        H=constraint.H,
        f=np.asarray(f, dtype=float),
        target_kind=constraint.target_kind,
        delta=constraint.delta,
        psi=constraint.psi,
    )


def _cmd_sweep(args) -> int:
    config = SweepConfig.from_json(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    rows = run_sweep(config, threads=args.threads)
    out = args.out or config.out
    write_rows_csv(rows, out, timings=args.timings)
    failures = [r for r in rows if r.error]
    print(f"wrote {len(rows)} rows to {out}" + (f" ({len(failures)} failed)" if failures else ""))
    if args.gnuplot:
        script = Path(out).with_suffix(".gp")
        write_gnuplot_script(out, script)
        print(f"wrote {script}")
    return 0


def _cmd_design(args) -> int:
    config = SweepConfig.from_json(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    prep = prepare_scene(config)
    g = _fit_secondary(prep.scene.g, config.Lg)
    phi_xx = estimate_autocorrelation(input_frames(prep.mics, prep.L))
    constraint = build_constraint(
        prep.reirs, prep.psi, config.target_kind, args.delta, config.Lw, config.Lg
    )
    params = DesignParams(beta_div=config.beta_div, rho_div=config.rho_div)
    res = design_control_filter(phi_xx, g, constraint, params, prep.scene.K, config.Lw)
    out = args.out or f"design_delta{args.delta}.json"
    save_filter_json(res, out)
    norm = float(np.linalg.norm(res.filter.stacked))
    print(
        f"delta={args.delta} filter_norm={norm:.6g} beta={res.beta:.6g} rho={res.rho:.6g} "
        f"constraint_residual={res.constraint_residual:.6g} -> {out}"
    )
    return 0


def _cmd_simulate(args) -> int:
    config = SweepConfig.from_json(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    prep = prepare_scene(config)
    flt = load_filter_json(args.filter)
    run = apply_control(
        flt, prep.mics, prep.scene.g,
        target_kind=config.target_kind, delta=args.delta, spatial_ref=prep.scene.spatial_ref,
    )
    out = args.out or "simulation"
    export_run_wavs(run, out, config.fs)
    mb = evaluate_run(run, prep.mics)
    print(f"NR={mb.nr_db:.2f} dB SDI={mb.sdi_db:.2f} dB effort={mb.effort:.6g} -> {out}/")
    return 0


def _cmd_verify(args) -> int:
    dims = None
    if args.verify_dims:
        try:
            Lw, Lg, Lh = (int(v) for v in args.verify_dims.split(","))
        except ValueError:
            raise ConfigError(f"--verify-dims must be Lw,Lg,Lh, got {args.verify_dims!r}") from None
        dims = (Lw, Lg, Lh)
    worst, _ = verify_against_oracle(trials=args.trials, dims=dims, seed=args.seed or 0)
    print(f"max relative deviation vs KKT oracle over {args.trials} trials: {worst:.3e}")
    return 0 if worst <= 1e-8 else 2


def cli_main(argv=None) -> int:
    """Entry point; returns 0 on success, 1 on config errors, 2 on numeric failures."""
    parser = argparse.ArgumentParser(
        prog="ssanc",
        description="Design, sweep and simulate spatially selective noise-control filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a delay sweep and write CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--timings", action="store_true", help="record wall-clock design_ms in the CSV")
    p.add_argument("--gnuplot", action="store_true", help="emit a companion gnuplot script")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("design", help="design a single filter and export it as JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("simulate", help="apply an exported filter and write WAVs")
    p.add_argument("--config", required=True)
    p.add_argument("--filter", required=True)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="compare the closed form against the KKT oracle")
    p.add_argument("--verify-dims", default=None, help="Lw,Lg,Lh (default: random small dims)")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SceneLoadError, ScalingError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
