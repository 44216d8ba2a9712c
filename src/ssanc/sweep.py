"""Config-driven experiment harness and command-line interface.

Runs the delay-sweep experiment: for each target delay in a configured
range, build the spatial constraint, design the control filter,
score it on the scene's two sources and collect the metric row.
Results go to CSV with a fixed column order.

The speech and noise sources are independent, so every command draws
(or loads) the two at once, the speech on the calling thread and the
noise on another (``threads.thread_map``), and takes their lag
correlations once (``_sources``); the SNR gain is read from them and
scales the scene's noise responses.

No command renders a microphone stack: the design reads the stacks
only through lag correlations, which follow from the two sources' lag
correlations and the scene's responses.  Only the target vector
depends on the delay.  A sweep therefore stacks the target vectors of
its delays and designs their filters in a few multi-right-hand-side
solves.  Each delay's row is then one task, ``metrics._RowScores``,
which reads the same source correlations: NR, SDI and control effort
are quadratic forms in the responses the filter gives the drive and
the error microphone, and only the error signal is simulated, for the
quality proxy, from the sources' block spectra taken once.
The tasks are numpy transforms and ufuncs that release the GIL, so they
run on one thread per CPU, by the same ``thread_map``, after the sweep
has freed the design.
``ssanc simulate`` builds the same ``_RowScores`` for its one delay,
frees the sources, writes the WAVs of its run (``_RowScores.run``: the
drive, the error signal's speech and noise components and the target,
by the same overlap-save loop) and prints the sweep's row for that
delay.  ``prepare_scene``, which renders the stacks (``render_mics``),
``apply_control`` and ``evaluate_run`` stay only as the tests' oracle
and for the benchmark's traced pass (``perfbench/traced.py``).
The default configuration is desk-scale (short filters, K = 2,
synthetic scene) and sweeps in under a second; the paper-scale
configuration (280-tap filters, K = 4, 141 delays) works the same way
in a few seconds.
"""

import argparse
import csv
import json
import math
import os
import resource
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ssanc import signals, wavio
from ssanc.convmat import _TRIANGULAR_BLOCK, Blocks, build_conv_matrix, build_q, next_fast_len, per_channel
from ssanc.metrics import _QUALITY_BLOCK, QUALITY_FRAME, _FilteredEnergy, _lag_span, _RowScores
from ssanc.reir import ReIRSet, design_min_phase_highpass, estimate_reirs
from ssanc.scene import (
    ConfigError, MicSignals, Scene, default_ir_len, integer, load_scene_wav, render_mics, snr_gain,
    synth_scene,
)
from ssanc.simulate import export_run_wavs
from ssanc.solver import (
    DesignContext,
    DesignParams,
    InfeasibleConstraintError,
    SingularSystemError,
    TARGET_KINDS,
    _constraint_matrix,
    _constraint_vector,
    _filtered_correlations,
    kkt_oracle,
    load_filter_json,
    max_delay,
    save_filter_json,
    target_mic,
)
from ssanc.threads import cpu_count, thread_map

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
    InfeasibleConstraintError,
    np.linalg.LinAlgError,
    FloatingPointError,
)


# the SNR gain (``scene.snr_gain``) scales the noise by 10**(-snr_db/20), which leaves float64
# range near +-3000 dB; physical SNRs lie far inside this bound
MAX_SNR_DB = 300.0

# target vectors per solve of a sweep: bounds the solve's temporaries below the design's
_SOLVE_BATCH = 48


@dataclass(frozen=True)
class SweepRow:
    """Metrics for one target delay; ``error`` is empty on success."""

    delta: int
    nr_db: float = float("nan")
    sdi_db: float = float("nan")
    quality_db: float = float("nan")
    effort: float = float("nan")
    constraint_residual: float = float("nan")
    design_ms: float = float("nan")  # written empty (``write_rows_csv``)
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

    _INTEGERS = ("fs", "Lw", "Lg", "Lh", "seed")
    _REALS = ("duration_s", "snr_db", "beta_div", "rho_div")

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        keys = [f.name for f in fields(cls)]
        unknown = set(d) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = {**{k: getattr(cls, k, None) for k in keys}, **d}
        if "scene" not in d or d["scene"] is None:
            merged["scene"] = default_scene_dict()

        for key in cls._INTEGERS:
            merged[key] = integer(key, merged[key])
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
        if not isinstance(merged["out"], str):
            raise ConfigError(f"out must be a string, got {merged['out']!r}")
        for key in ("speech_wav", "noise_wav"):
            if not isinstance(merged[key], (str, type(None))):
                raise ConfigError(f"{key} must be a string or null, got {merged[key]!r}")

        dr = merged["delta_range"]
        if not isinstance(dr, (list, tuple)) or len(dr) != 3:
            raise ConfigError(f"delta_range must be [start, stop, step], got {dr!r}")
        merged["delta_range"] = tuple(integer("delta_range", v) for v in dr)

        cfg = cls(**merged)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(payload)

    def validate(self) -> None:
        if self.fs <= 0:
            raise ConfigError(f"fs must be positive, got {self.fs}")
        if min(self.Lw, self.Lg, self.Lh) < 1:
            raise ConfigError("Lw, Lg, Lh must all be >= 1")
        if self.duration_s * self.fs < self.fs:
            raise ConfigError(f"signals must be at least 1 s, got {self.duration_s} s")
        if abs(self.snr_db) > MAX_SNR_DB:
            raise ConfigError(f"snr_db must lie within +-{MAX_SNR_DB:g} dB, got {self.snr_db}")
        if self.target_kind not in TARGET_KINDS:
            raise ConfigError(f"target_kind must be {' or '.join(TARGET_KINDS)}, got {self.target_kind!r}")
        start, stop, step = self.delta_range
        if start < 0 or stop < start or step < 1:
            raise ConfigError(f"bad delta_range {self.delta_range}")
        self.check_delta(stop, "delta_range stop")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.psi is not None and not 0.0 < self.psi < self.fs / 2.0:
            raise ConfigError(f"psi cutoff {self.psi} Hz outside (0, fs/2)")
        if self.psi is not None and self.Lg + self.Lw - 1 < 8:
            raise ConfigError("psi weighting needs Lg + Lw - 1 >= 8 taps")
        if self.beta_div <= 0 or self.rho_div <= 0:
            raise ConfigError("beta_div and rho_div must be positive")
        if self.reir_reg is not None and self.reir_reg < 0:
            raise ConfigError(f"reir_reg must be >= 0, got {self.reir_reg}")
        if not isinstance(self.scene, dict) or self.scene.get("kind") not in ("synthetic", "manifest"):
            raise ConfigError('scene.kind must be "synthetic" or "manifest"')

    def check_delta(self, delta: int, name: str) -> None:
        """Refuse a target delay outside [0, ``solver.max_delay``]."""
        bound = max_delay(self.target_kind, self.Lh, self.Lg + self.Lw - 1)
        if not 0 <= delta <= bound:
            raise ConfigError(
                f"{name} {delta} outside [0, {bound}], the causality bound "
                f"for target_kind={self.target_kind}"
            )

    def deltas(self) -> list[int]:
        start, stop, step = self.delta_range
        return list(range(start, stop + 1, step))


@dataclass(frozen=True, eq=False)
class PreparedScene:
    """Scene, rendered signals and estimated ReIRs for one configuration."""

    scene: Scene
    mics: MicSignals
    reirs: ReIRSet
    psi: np.ndarray
    L: int


def _check_signal_length(config: SweepConfig, n: int, ir_len: int = 0) -> None:
    """Refuse n-sample signals too short for the run the config describes or
    not longer than ir_len-tap scene impulse responses."""
    for need, what in (
        (QUALITY_FRAME, "one quality-proxy frame"),
        (4 * config.Lh, "the ReIR fit (4 Lh)"),
        (config.Lg + config.Lw - 1, "the frame history (Lg + Lw - 1)"),
    ):
        if n < need:
            raise ConfigError(f"signals have {n} samples; {what} needs {need}")
    if ir_len >= n:
        raise ConfigError(
            f"scene impulse responses have {ir_len} taps; the {n}-sample signals must be longer"
        )


def _checked_scene(config: SweepConfig, design: bool, sim_taps: int | None) -> tuple[Scene, int]:
    """The configured scene, its secondary path fitted to Lg taps, and the
    length n = round(duration_s * fs) of its signals, with every refusal
    that needs no source signal.

    Refused: signals too short for the ReIR fit, the frame history, one
    quality-proxy frame or the scene's impulse responses; the arrays of
    the command (a design if ``design``, a simulation of sim_taps-tap
    filters unless None) if they will not fit in memory, for a synthetic
    scene before its responses are allocated, for a manifest scene,
    whose files bound them, once they are read; a spatial reference
    that hears no speech; and a silent secondary path.
    """
    n = int(round(config.duration_s * config.fs))
    sc = dict(config.scene)
    if sc.pop("kind") == "manifest":
        try:
            directory = sc.pop("dir")
            manifest = sc.pop("manifest")
        except KeyError as exc:
            raise ConfigError(f"manifest scene needs {exc} key") from exc
        if not isinstance(directory, str):
            raise ConfigError(f"scene.dir must be a string, got {directory!r}")
        if not isinstance(manifest, (str, dict)):
            raise ConfigError(f"scene.manifest must be a file name or an object, got {manifest!r}")
        scene = load_scene_wav(directory, manifest)
        if scene.fs != config.fs:
            raise ConfigError(f"scene fs {scene.fs} != config fs {config.fs}")
        _check_signal_length(config, n, scene.h.shape[-1])
        _refuse_unless_fits(config, scene.K, n, design, sim_taps, scene.h.shape[-1])
    else:
        scene = _synthetic_scene(config, sc, n, design, sim_taps)
    if not np.any(scene.h[0, scene.spatial_ref]):
        raise ConfigError(
            f"the speech response at the spatial reference microphone {scene.spatial_ref} "
            "is silent: its ReIRs and target are undefined"
        )
    if not np.any(scene.g):
        raise ConfigError("the secondary path is silent: the loudspeaker cannot reach the error microphone")
    return replace(scene, g=_fit_secondary(scene.g, config.Lg)), n


def _synthetic_scene(config: SweepConfig, sc: dict, n: int, design: bool, sim_taps: int | None) -> Scene:
    """The synthetic scene of the keys sc, for ``_checked_scene``."""
    known = {"K", "speech_delays", "noise_delays", "gains", "sec_delay",
             "tail_amp", "tail_decay", "spatial_ref", "ir_len", "g_taps", "seed"}
    unknown = set(sc) - known
    if unknown:
        raise ConfigError(f"unknown synthetic-scene keys: {sorted(unknown)}")

    def optional(key, check):
        return None if sc.get(key) is None else check(f"scene.{key}", sc[key])

    try:
        speech_delays = [integer("scene.speech_delays", d) for d in sc["speech_delays"]]
        noise_delays = [integer("scene.noise_delays", d) for d in sc["noise_delays"]]
        tail_amp = _real("scene.tail_amp", sc.get("tail_amp", 0.0))
        tail_decay = _real("scene.tail_decay", sc.get("tail_decay", 6.0))
        ir_len = optional("ir_len", integer)
        seed = optional("seed", integer)
        K = integer("scene.K", sc["K"])
        # refuse long responses and a run too large for memory before
        # synth_scene allocates the responses
        if ir_len is None:
            ir_len = default_ir_len(speech_delays + noise_delays, tail_amp, tail_decay)
        _check_signal_length(config, n, ir_len)
        _refuse_unless_fits(config, K, n, design, sim_taps, ir_len)
        scene = synth_scene(
            K=K,
            speech_delays=speech_delays,
            noise_delays=noise_delays,
            gains=[[_real("scene.gains", v) for v in pair] for pair in sc["gains"]],
            sec_delay=integer("scene.sec_delay", sc["sec_delay"]),
            sec_ir_len=config.Lg,
            fs=config.fs,
            seed=seed if seed is not None else config.seed + 3,
            spatial_ref=optional("spatial_ref", integer),
            ir_len=ir_len,
            tail_amp=tail_amp,
            tail_decay=tail_decay,
        )
        if sc.get("g_taps") is not None:
            # explicit secondary-path taps, e.g. exported from a measurement;
            # unlike synth_scene's pulse model these may start at lag 0
            scene = replace(scene, g=np.array([_real("scene.g_taps", v) for v in sc["g_taps"]]))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad synthetic scene: {exc}") from exc
    return scene


def _available_memory() -> int:
    """Bytes this process may hold: its address-space limit if set, else physical memory."""
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        return soft
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _design_bytes(config: SweepConfig, K: int) -> int:
    """Bytes of the matrices a ``DesignContext`` of K + 1 channels holds: the
    Cholesky factor Lc of Phi_rr, ((K+1) Lw)^2 floats, Y = Lc^-1 [A, phi],
    (K+1) Lw (F + 1) floats, and the factor of M0 + rho I, F^2 floats, with
    F = Lh + L - 1 the length of a target vector."""
    dim = (K + 1) * config.Lw
    F = config.Lh + config.Lg + config.Lw - 2
    return 8 * (dim**2 + dim * (F + 1) + F**2)


def _memory_need(
    config: SweepConfig, K: int, n: int, design: bool, sim_taps: int | None, ir_len: int, workers: int = 1
) -> int:
    """Bytes a command holds at most for K + 1 microphones, n-sample signals and
    scene responses of at most ir_len taps: the largest of its phases.

    Every command draws its two n-sample sources at once, on two threads,
    about three n-sample arrays each (``signals.speech_shaped_noise``),
    and renders no microphone stack.  Next to the sources it takes their
    lag correlations over P lags (``metrics._lag_span``), P floats per
    channel pair, with one chunk of ``lagged_products``' temporaries, and
    forms them as eight complex values per bin of an nfft >= 2P - 1 point
    grid, with three times four while it does (``_sources``); the SNR gain
    is read from them.  A design (``design``, ``sweep``) never forms
    Phi_xx or H: from the correlations it takes S, ((K+1) Lw)^2 floats,
    with two (K+1)^2 arrays of the grid's bins.  A design alone then frees
    the sources, a sweep keeps them and their correlations.  The ReIR fit
    holds less.  While it factorizes (``DesignContext``) it holds the
    matrices of ``_design_bytes``, each factorized or substituted in its
    own place (no copy, no LU factor and no A), and one panel of the
    blocked Cholesky factorization of M0 + rho I, ``_TRIANGULAR_BLOCK`` x
    F floats; or, as it solves, about three vectors of (K+1) Lw and three
    of F floats per target vector, one for ``design`` and ``_SOLVE_BATCH``
    at most for ``sweep``, which keeps every delay's filter.
    ``sweep`` frees the design after its solve, and it and ``simulate`` of
    sim_taps-tap filters score from the sources alone
    (``metrics._RowScores``): next to the sweep's filters and the sources'
    correlations they take the spectra of the scene's 2 (K+1) responses
    and of g on their grid, the block spectra of both sources in the
    ``convmat.Blocks`` layout of the response f the filter gives the
    error microphone, sim_taps + Lg + ir_len - 2 taps, and one copy of the
    target microphone's speech row led by the last delay's zeros, the
    one convolution of a source, on one thread, with one chunk of its
    overlap-save temporaries (the block spectra, their product with the
    response, its inverse transform and, at the edges, a copied span: four
    arrays of a chunk's samples); then they free the sources.  ``simulate``
    then fills the run's y, e_s and e_v (``_RowScores.run``) and forms e
    as it writes them.  Each of a sweep's ``workers`` threads, and
    ``simulate``'s one, then holds the e of one delay and either one chunk
    of e's spectra and their inverse transform or the quality proxy's
    three (``_QUALITY_BLOCK``, ``QUALITY_FRAME``) frame batches.
    A command is refused only if its need on one thread does not fit, and
    a sweep starts as many threads as fit (``_workers``).
    """
    C = K + 1
    sources = 16 * n
    sweep = design and sim_taps is not None
    filters = 8 * C * config.Lw * len(config.deltas()) if sweep else 0
    last = config.delta_range[1]
    P = ir_len - 1 + max(config.Lg + (config.Lw if sim_taps is None else sim_taps) - 1, last + 1)
    bins = next_fast_len(2 * P - 1) // 2 + 1
    correlations = 16 * 8 * bins
    lags = Blocks(n, min(P, n) - 1)
    phases = [3 * sources, sources + 8 * 4 * P + max(16 * 12 * bins, 8 * 4 * 2 * lags.per_chunk * lags.nfft)]
    if design:
        dim, F = C * config.Lw, config.Lh + config.Lg + config.Lw - 2
        targets = min(len(config.deltas()), _SOLVE_BATCH) if sweep else 1
        phases += [
            sources + correlations + 8 * dim**2 + 16 * 2 * C**2 * bins,
            (sources if sweep else 0) + _design_bytes(config, K)
            + max(8 * _TRIANGULAR_BLOCK * F, 24 * targets * (dim + F) + filters),
        ]
    if sim_taps is not None:
        blocks = Blocks(n, sim_taps + config.Lg + ir_len - 3)  # the layout of f, less one tap
        render = Blocks(n, ir_len - 1)  # the target's
        spectra = 16 * 2 * blocks.count * (blocks.nfft // 2 + 1)
        held = filters + correlations + 16 * (2 * C + 1) * bins + spectra + 8 * (n + last)
        frames = 3 * 8 * _QUALITY_BLOCK * QUALITY_FRAME
        per_worker = 8 * n + max(16 * blocks.per_chunk * blocks.nfft, frames)
        phases += [sources + held + 32 * render.per_chunk * render.nfft, held + workers * per_worker]
        if not design:
            phases.append(held + 8 * 4 * n)  # the run's y, e_s, e_v and e
    return max(phases)


def _refuse_unless_fits(config: SweepConfig, K: int, n: int, design: bool, sim_taps: int | None, ir_len: int) -> None:
    """Refuse, as a config error, a command whose ``_memory_need`` exceeds ``_available_memory()``."""
    need, have = _memory_need(config, K, n, design, sim_taps, ir_len), _available_memory()
    if need > have:
        raise ConfigError(
            f"{n}-sample signals of {K + 1} microphones"
            + (f", the design matrices of K = {K}, Lw = {config.Lw} and Lg = {config.Lg}" if design else "")
            + (f", the simulation spectra of {sim_taps}-tap filters" if sim_taps is not None else "")
            + f" need at least {need / 2**30:.3g} GiB; only {have / 2**30:.3g} GiB of memory is available"
        )


def _load_source(path, config: SweepConfig, n: int) -> np.ndarray:
    """The first n samples of a WAV source, read and converted without the rest of the file."""
    try:
        fs, data = wavio.read_wav_mono(path, frames=n)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if fs != config.fs:
        raise ConfigError(f"{path}: sample rate {fs} != config fs {config.fs}")
    if data.shape[0] < config.fs:
        raise ConfigError(f"{path}: shorter than 1 s")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"{path}: samples must be finite")
    return data


def _draw_sources(config: SweepConfig, scene: Scene, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The speech and noise sources of the scene, before the SNR gain.

    Speech uses the config seed and noise seed+1 (synthetic scene tails
    use seed+3).  The two sources are drawn or loaded at once, the
    speech on the calling thread and the noise on another
    (``threads.thread_map``).  A WAV source shorter than n samples
    shortens both, and its length is checked by the same rules against
    the scene.
    """
    def source(path, seed) -> np.ndarray:
        return _load_source(path, config, n) if path else signals.speech_shaped_noise(n, config.fs, seed)

    speech, noise = thread_map(source, (config.speech_wav, config.noise_wav), (config.seed, config.seed + 1))
    m = min(speech.shape[0], noise.shape[0])
    if m < n:
        _check_signal_length(config, m, scene.h.shape[-1])
    return speech[:m], noise[:m]


def _sources(config: SweepConfig, scene: Scene, n: int, P: int) -> tuple[np.ndarray, _FilteredEnergy, Scene]:
    """The (2, N) stack of the speech and noise sources (``_draw_sources``), their lag
    correlations over P lags (``convmat._FilteredEnergy``), and the scene with its
    noise responses scaled by the SNR gain.

    The gain is ``render_mics``' rule, of the energies of the unscaled
    speech and noise at the error microphone, h_K on each source: the
    correlations' energies at lag 0, so no row is convolved.  It scales
    the scene's noise responses, not the N-sample noise.
    """
    sources = np.stack(_draw_sources(config, scene, n))
    energy = _FilteredEnergy(sources, P)
    # source s through h_K of source s, and the other source through nothing
    gain = snr_gain(*energy(np.fft.rfft(np.eye(2)[:, :, None] * scene.h[:, -1], energy.nfft)), config.snr_db)
    return sources, energy, replace(scene, h=np.stack([scene.h[0], gain * scene.h[1]]))


def prepare_scene(config: SweepConfig, simulate: bool = True) -> PreparedScene:
    """Render microphone signals and estimate ReIRs for a configuration.

    Everything a design and, unless ``simulate`` is false, a simulation
    of the configured filter length needs is refused before any source
    is drawn (``_checked_scene``).  The speech and noise sources are
    drawn and rendered on two threads at once (``render_mics``).  The ReIRs
    are fitted to the speech responses' response to white noise with its
    own seed, seed+2, so they do not change the microphone signals; the
    noise is read through its correlations and never rendered
    (``estimate_reirs``).  No command calls this: it stays, with the
    stacks it renders, as the tests' oracle and for the benchmark's
    traced pass (``perfbench/traced.py``).
    """
    scene, n = _checked_scene(config, design=True, sim_taps=config.Lw if simulate else None)
    mics = render_mics(scene, *_draw_sources(config, scene, n), config.snr_db)
    reirs = _reirs(config, scene, mics.N)
    return PreparedScene(scene=scene, mics=mics, reirs=reirs, psi=_psi(config), L=config.Lg + config.Lw - 1)


def _reirs(config: SweepConfig, scene: Scene, n: int) -> ReIRSet:
    """The ReIRs of the scene's speech responses, fitted to n samples of white noise seeded seed+2."""
    return estimate_reirs(scene, signals.white_noise(n, config.seed + 2), config.Lh, reg=config.reir_reg)


def _psi(config: SweepConfig) -> np.ndarray:
    """The taps of the target's spectral weighting: the configured high-pass, or [1]."""
    if config.psi is None:
        return np.array([1.0])
    return design_min_phase_highpass(config.psi, config.fs, config.Lg + config.Lw - 1)


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


@dataclass(frozen=True, eq=False)
class PreparedDesign:
    """What a design leaves next to its ``DesignContext``: the scene, ReIRs, target
    weighting and frame history of ``PreparedScene``, without the microphone stacks,
    and, for a sweep (None for a design alone), the (2, N) stack of its speech and
    noise sources and their lag correlations (``convmat._FilteredEnergy``), which its
    rows are scored from (``metrics._RowScores``)."""

    scene: Scene
    reirs: ReIRSet
    psi: np.ndarray
    L: int
    sources: np.ndarray | None
    energy: _FilteredEnergy | None


def _prepare_design(config: SweepConfig, simulate: bool = True) -> tuple[PreparedDesign, DesignContext]:
    """Scene and factorized design: all that no delay changes.

    ``run_sweep`` and ``ssanc design`` (which does not simulate) both
    start here; ``ctx.solve`` then designs the filter for one target
    vector.  The design is taken from the signals' correlations
    (``DesignContext.from_correlations``): no Phi_xx and no H is formed,
    and no microphone stack is rendered.  The observed stack is read only
    through its lag products and its first and last L-1 samples
    (``_filtered_correlations``), and those follow from the two sources
    through the scene's responses: one ``lagged_products`` pass over the
    sources (``convmat._FilteredEnergy``), over the lags the sweep's
    scores read too (``metrics._lag_span``), gives them, and the SNR gain
    (``_sources``).  A sweep (``simulate``) keeps the sources and their
    correlations for its rows; a design alone frees them before the ReIRs
    are fitted.
    """
    scene, n = _checked_scene(config, design=True, sim_taps=config.Lw if simulate else None)
    psi = _psi(config)  # first, while little is held: its transforms are 2^17 points on paper_scale
    L = config.Lg + config.Lw - 1
    sources, energy, scene = _sources(config, scene, n, _lag_span(scene, L, config.deltas()[-1]))
    N = sources.shape[1]
    # each microphone's responses to the two sources, (K+1, 2) spectra on the energy's grid
    H = np.fft.rfft(scene.h, energy.nfft).transpose(1, 0, 2)
    S, phi, power = _filtered_correlations(*energy.products(H, L), scene.g, config.Lw)
    if not simulate:
        sources = energy = None
    prep = PreparedDesign(
        scene=scene, reirs=_reirs(config, scene, N), psi=psi, L=L,
        sources=sources, energy=energy,
    )
    params = DesignParams(beta_div=config.beta_div, rho_div=config.rho_div)
    return prep, DesignContext.from_correlations(S, phi, power, scene.g, prep.reirs, params, config.Lw)


def _workers(config: SweepConfig, K: int, n: int, ir_len: int) -> int:
    """Threads a sweep of n-sample signals from K + 1 microphones and responses of
    at most ir_len taps scores on: one per CPU it may run on
    (``threads.cpu_count``), the calling thread included, at most one per delay,
    and as many as fit in ``_available_memory()``, but at least the one a refusal
    checked."""
    have = _available_memory()
    return max(
        (t for t in range(2, min(cpu_count(), len(config.deltas())) + 1)
         if _memory_need(config, K, n, True, config.Lw, ir_len, t) <= have),
        default=1,
    )


def _failed(delta: int, exc: Exception) -> SweepRow:
    return SweepRow(delta=delta, error=f"{type(exc).__name__}: {exc}")


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Design and score one filter per delay in the configured range.

    The sources, ReIR estimation, all delay-independent factorizations,
    the sources' lag correlations, which the design's statistics are
    taken from too, and their block spectra are shared across the sweep,
    and the filters come from batched solves of ``_SOLVE_BATCH`` delays
    each.  Each delay is then one task, ``metrics._RowScores``: NR, SDI
    and effort are quadratic forms in the responses the filter gives the
    drive and the error microphone, over those lag correlations, and only
    the error signal is simulated, for the quality proxy, on the
    ``convmat.Blocks`` layout of those responses.  No microphone stack is
    rendered (``_prepare_design``), and the sweep frees the factorized
    design before it scores; the tasks, numpy transforms that release
    the GIL, then run on ``_workers`` threads, the calling thread one of
    them (``threads.thread_map``), and the rows come back in delay
    order, agreeing with ``apply_control`` and ``evaluate_run`` up to
    rounding whatever the number of threads.
    A numeric failure at one delay yields an error row and the sweep
    continues; any other exception propagates.
    """
    prep, ctx = _prepare_design(config)
    deltas = config.deltas()
    designs = []
    for start in range(0, len(deltas), _SOLVE_BATCH):
        designs += ctx.solve(np.column_stack([
            _constraint_vector(prep.reirs, prep.psi, config.target_kind, delta, prep.L)
            for delta in deltas[start : start + _SOLVE_BATCH]
        ]))
    del ctx  # only the solve needs the factorized design

    scene = prep.scene
    workers = _workers(config, scene.K, prep.sources.shape[1], scene.h.shape[-1])
    mic = target_mic(config.target_kind, scene.spatial_ref)
    score = _RowScores(prep.energy, prep.sources, scene, config.Lw, deltas[-1], mic)
    del prep  # the sources: _RowScores keeps only their spectra and correlations

    def row(delta: int, res) -> SweepRow:
        """The row of delay delta from its design result, or the numeric failure that stopped it."""
        try:
            if isinstance(res, Exception):
                raise res
            scores = score(res.filter, delta)
        except NUMERIC_ERRORS as exc:  # record and continue with the other deltas
            return _failed(delta, exc)
        return SweepRow(delta=delta, constraint_residual=res.constraint_residual, **asdict(scores))

    return thread_map(row, deltas, designs, threads=workers)


def _fmt(value) -> str:
    return repr(float(value))


def write_rows_csv(rows, path) -> None:
    """Write sweep rows as RFC-4180 CSV (UTF-8, CRLF, fixed column order).

    The design_ms column is always empty, whatever a row carries, so the
    CSV of identical configs and seeds is byte-identical.
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
                "",
                row.error,
            ])


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
        H = _constraint_matrix(ReIRSet(h=rng.standard_normal((K + 1, Lh)), spatial_ref=0), L)

        w0 = rng.standard_normal((K + 1) * Lw)
        f = H.T @ (build_q(K, L) + per_channel(build_conv_matrix(g, Lw), w0))

        res = DesignContext.from_dense(phi_xx, g, H, DesignParams(rho=0.0), K, Lw).solve(f)
        oracle = kkt_oracle(phi_xx, g, H, f, res.beta, K, Lw)
        num = np.linalg.norm(res.filter - oracle)
        den = max(np.linalg.norm(oracle), 1e-300)
        gaps.append(num / den)
    return max(gaps), gaps


def _load_config(args) -> SweepConfig:
    """The config named by ``--config``, with ``--seed`` applied and validated."""
    config = SweepConfig.from_json(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
        config.validate()
    return config


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    rows = run_sweep(config)
    out = args.out or config.out
    write_rows_csv(rows, out)
    failures = [r for r in rows if r.error]
    print(f"wrote {len(rows)} rows to {out}" + (f" ({len(failures)} failed)" if failures else ""))
    return 0


def _cmd_design(args) -> int:
    config = _load_config(args)
    config.check_delta(args.delta, "--delta")
    prep, ctx = _prepare_design(config, simulate=False)
    res = ctx.solve(_constraint_vector(prep.reirs, prep.psi, config.target_kind, args.delta, prep.L))
    out = args.out or f"design_delta{args.delta}.json"
    save_filter_json(res, out)
    norm = float(np.linalg.norm(res.filter))
    print(
        f"delta={args.delta} filter_norm={norm:.6g} beta={res.beta:.6g} rho={res.rho:.6g} "
        f"constraint_residual={res.constraint_residual:.6g} -> {out}"
    )
    return 0


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    config.check_delta(args.delta, "--delta")
    try:
        w = load_filter_json(args.filter)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read filter {args.filter}: {exc}") from None
    scene, n = _checked_scene(config, design=False, sim_taps=w.shape[1])
    if w.shape[0] - 1 != scene.K:
        raise ConfigError(
            f"filter {args.filter} has {w.shape[0] - 1} reference channels, the scene has {scene.K}"
        )
    if n > wavio.MAX_FRAMES:
        raise ConfigError(
            f"{n}-sample signals overflow the 32-bit sizes of a float64 WAV file, which holds at most "
            f"{wavio.MAX_FRAMES} samples ({wavio.MAX_FRAMES / config.fs:.6g} s at {config.fs} Hz)"
        )
    sources, energy, scene = _sources(config, scene, n, _lag_span(scene, config.Lg + w.shape[1] - 1, args.delta))
    mic = target_mic(config.target_kind, scene.spatial_ref)
    score = _RowScores(energy, sources, scene, w.shape[1], args.delta, mic)
    del sources  # the run and the scores read only their spectra and correlations
    out = args.out or "simulation"
    export_run_wavs(score.run(w, args.delta), out, config.fs)
    row = score(w, args.delta)  # the sweep's row for this delay
    print(
        f"NR={row.nr_db:.2f} dB SDI={row.sdi_db:.2f} dB quality={row.quality_db:.2f} dB "
        f"effort={row.effort:.6g} -> {out}/"
    )
    return 0


def _cmd_verify(args) -> int:
    dims = None
    if args.verify_dims:
        try:
            Lw, Lg, Lh = (int(v) for v in args.verify_dims.split(","))
        except ValueError:
            raise ConfigError(f"--verify-dims must be Lw,Lg,Lh, got {args.verify_dims!r}") from None
        if min(Lw, Lg, Lh) < 1:
            raise ConfigError(f"--verify-dims must all be >= 1, got {args.verify_dims!r}")
        dims = (Lw, Lg, Lh)
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    seed = args.seed or 0
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    worst, _ = verify_against_oracle(trials=args.trials, dims=dims, seed=seed)
    print(f"max relative deviation vs KKT oracle over {args.trials} trials: {worst:.3e}")
    return 0 if worst <= 1e-8 else 2


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line as a config error, not with exit 2; its subparsers are one too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def cli_main(argv=None) -> int:
    """Entry point; returns 0 on success, 1 on a ``ConfigError`` or ``OSError`` (a malformed
    command line too) and on running out of memory, 2 on numeric failures."""
    parser = _Parser(
        prog="ssanc",
        description="Design, sweep and simulate spatially selective noise-control filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a delay sweep and write CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
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

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the estimate fits, the address space does not
        print(f"config error: out of memory{f': {exc}' if str(exc) else ''}; try a smaller problem", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
