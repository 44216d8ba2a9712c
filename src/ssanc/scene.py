"""Acoustic scenes: impulse responses, secondary path, microphone rendering.

A scene holds one impulse response per (source, microphone) pair for a
speech and a noise source, plus the secondary path from the loudspeaker
to the error microphone.  Channel layout is fixed throughout the
package: indices 0..K-1 are the reference microphones, index K is the
error microphone.  Rendered signals keep that layout as two (K+1, N)
stacks, speech and noise, so every consumer takes rows of one array.

``ConfigError`` refuses every input from outside the program (the CLI's one
``config error:`` line, exit 1); ``synth_scene`` and ``Scene`` refuse bad
arguments with a plain ``ValueError``, which the config reader wraps in one.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ssanc import wavio
from ssanc.convmat import Blocks
from ssanc.threads import thread_map


class ConfigError(ValueError):
    """An input from outside the program is refused: a config value, a scene, a
    WAV file, an SNR that a silent component cannot meet or a filter file."""


def integer(key: str, value) -> int:
    """A JSON number with an integral value, as int; anything else (a bool, a string,
    a fractional float) is a ``ConfigError``: nothing is truncated or converted."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class Scene:
    """Impulse-response description of one acoustic setup.

    ir_speech / ir_noise hold K+1 responses each (error microphone
    last); g is the secondary path from the loudspeaker to the error
    microphone; spatial_ref is the 0-based reference-microphone index
    used as the anchor for relative impulse responses.
    """

    K: int
    ir_speech: tuple[np.ndarray, ...]
    ir_noise: tuple[np.ndarray, ...]
    g: np.ndarray
    fs: int
    spatial_ref: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if len(self.ir_speech) != self.K + 1 or len(self.ir_noise) != self.K + 1:
            raise ValueError("need K+1 impulse responses per source (error mic last)")
        for ir in (*self.ir_speech, *self.ir_noise, self.g):
            if len(ir) < 1:
                raise ValueError("impulse responses and the secondary path need at least one tap")
            if not np.all(np.isfinite(ir)):
                raise ValueError("impulse responses must be finite-valued")
        if not 0 <= self.spatial_ref < self.K:
            raise ValueError(
                f"spatial_ref {self.spatial_ref} outside reference range [0, {self.K})"
            )


@dataclass(frozen=True, eq=False)
class MicSignals:
    """Microphone signals as speech and noise channel stacks.

    s / v are the (K+1, N) speech and noise components: rows 0..K-1 are
    the reference microphones, row K is the error microphone, as in
    ``Scene``.  The observable signals are s + v; p_s / p_v are the
    error-microphone rows, as views.
    """

    s: np.ndarray
    v: np.ndarray

    @property
    def K(self) -> int:
        return self.s.shape[0] - 1

    @property
    def N(self) -> int:
        return self.s.shape[1]

    @property
    def p_s(self) -> np.ndarray:
        return self.s[-1]

    @property
    def p_v(self) -> np.ndarray:
        return self.v[-1]


def _pulse_ir(gain: float, delay: int, length: int, tail_amp: float, tail_decay: float, rng) -> np.ndarray:
    ir = np.zeros(length)
    ir[delay] = gain
    if tail_amp > 0.0 and delay + 1 < length:
        t = np.arange(length - delay - 1)
        ir[delay + 1 :] = (
            tail_amp * gain * rng.standard_normal(length - delay - 1) * np.exp(-t / tail_decay)
        )
    return ir


def default_ir_len(delays, tail_amp: float, tail_decay: float) -> int:
    """Impulse-response length of ``synth_scene``: the latest pulse plus four tail time constants."""
    return max(delays) + 1 + (int(round(4 * tail_decay)) if tail_amp > 0.0 else 0)


def synth_scene(
    K: int,
    speech_delays,
    noise_delays,
    gains,
    sec_delay: int,
    sec_ir_len: int,
    fs: int,
    seed: int,
    *,
    spatial_ref: int | None = None,
    ir_len: int | None = None,
    tail_amp: float = 0.0,
    tail_decay: float = 6.0,
) -> Scene:
    """Build a sparse synthetic scene from per-microphone delays and gains.

    speech_delays / noise_delays give the sample delay of each source's
    arrival at microphones 0..K (error microphone last); gains is a
    sequence of (speech_gain, noise_gain) pairs per microphone.  Each
    impulse response is a scaled unit pulse plus, when tail_amp > 0, a
    small seeded decaying random tail starting one sample after the
    pulse (tail_decay sets its exponential time constant in samples).
    The secondary path must have at least one sample of latency
    (sec_delay >= 1), for the acoustic and converter delay of a real
    loudspeaker-to-microphone path.

    spatial_ref defaults to the reference microphone with the smallest
    speech delay, i.e. the one closest to the desired source.
    """
    speech_delays = [int(d) for d in speech_delays]
    noise_delays = [int(d) for d in noise_delays]
    gains = [(float(gs), float(gv)) for gs, gv in gains]
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if len(speech_delays) != K + 1 or len(noise_delays) != K + 1 or len(gains) != K + 1:
        raise ValueError("need K+1 delays per source and K+1 gain pairs")
    if min(speech_delays) < 0 or min(noise_delays) < 0:
        raise ValueError("delays must be >= 0")
    if sec_delay < 1:
        raise ValueError("sec_delay must be >= 1 (a secondary path has at least one sample of latency)")
    if sec_ir_len <= sec_delay:
        raise ValueError(f"sec_ir_len {sec_ir_len} must exceed sec_delay {sec_delay}")
    if tail_amp > 0.0 and tail_decay <= 0.0:
        raise ValueError(f"tail_decay must be > 0, got {tail_decay}")

    if ir_len is None:
        ir_len = default_ir_len(speech_delays + noise_delays, tail_amp, tail_decay)
    if max(*speech_delays, *noise_delays) >= ir_len:
        raise ValueError(f"ir_len {ir_len} must exceed every source delay")

    if spatial_ref is None:
        spatial_ref = int(np.argmin(speech_delays[:K]))

    rng = np.random.default_rng(seed)
    ir_speech = tuple(
        _pulse_ir(gains[k][0], speech_delays[k], ir_len, tail_amp, tail_decay, rng)
        for k in range(K + 1)
    )
    ir_noise = tuple(
        _pulse_ir(gains[k][1], noise_delays[k], ir_len, tail_amp, tail_decay, rng)
        for k in range(K + 1)
    )
    g = _pulse_ir(1.0, sec_delay, sec_ir_len, tail_amp, tail_decay, rng)
    return Scene(
        K=K, ir_speech=ir_speech, ir_noise=ir_noise, g=g, fs=int(fs), spatial_ref=spatial_ref
    )


def load_scene_wav(directory, manifest) -> Scene:
    """Load a scene from mono WAV files named by a JSON manifest.

    ``manifest`` is a dict or a path to a JSON file with keys: fs, mics
    (= K+1), speech_irs, noise_irs (lists of K+1 filenames, error mic
    last), secondary, spatial_ref (0-based reference index).  fs, mics
    and spatial_ref must be integers by ``integer``'s rule.  Filenames
    resolve relative to ``directory``.  An unreadable or inconsistent
    manifest or impulse-response file raises ``ConfigError``.
    """
    directory = Path(directory)
    if not isinstance(manifest, dict):
        manifest_path = Path(manifest)
        if not manifest_path.is_absolute():
            manifest_path = directory / manifest_path
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read manifest {manifest_path}: {exc}") from exc

    try:
        fs = integer("manifest fs", manifest["fs"])
        mics = integer("manifest mics", manifest["mics"])
        speech_names = manifest["speech_irs"]
        noise_names = manifest["noise_irs"]
        secondary_name = manifest["secondary"]
        spatial_ref = integer("manifest spatial_ref", manifest.get("spatial_ref", 0))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"manifest missing or malformed field: {exc}") from exc
    if not (isinstance(speech_names, list) and isinstance(noise_names, list)):
        raise ConfigError("manifest speech_irs and noise_irs must be lists of file names")

    if mics < 2:
        raise ConfigError(f"need at least 2 microphones (1 reference + error), got {mics}")
    if len(speech_names) != mics or len(noise_names) != mics:
        raise ConfigError(
            f"manifest lists {len(speech_names)} speech and {len(noise_names)} noise IRs, "
            f"expected {mics} each"
        )

    def load_ir(name):
        if not isinstance(name, str):
            raise ConfigError(f"impulse-response file names must be strings, got {name!r}")
        path = directory / name
        if not path.exists():
            raise ConfigError(f"missing impulse-response file {path}")
        try:
            wav_fs, data = wavio.read_wav_mono(path)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if wav_fs != fs:
            raise ConfigError(f"{path}: sample rate {wav_fs} != manifest fs {fs}")
        return data

    ir_speech = tuple(load_ir(n) for n in speech_names)
    ir_noise = tuple(load_ir(n) for n in noise_names)
    g = load_ir(secondary_name)
    try:
        return Scene(
            K=mics - 1, ir_speech=ir_speech, ir_noise=ir_noise, g=g, fs=fs, spatial_ref=spatial_ref
        )
    except ValueError as exc:
        raise ConfigError(f"manifest scene in {directory}: {exc}") from exc


def render_mics(scene: Scene, speech, noise=None, snr_db: float | None = None) -> MicSignals:
    """Convolve source signals through the scene and scale noise to a target SNR.

    Components are truncated to the source length N (same-length
    convention) so speech and noise parts stay aligned.  When snr_db is
    given, the noise components are scaled by ``snr_gain`` of the error
    microphone's rows, so the speech-to-noise energy ratio there is
    exactly snr_db.  ``noise=None``
    renders a desired-source-only scene with zero noise components.
    Each source is convolved by overlap-save (``_convolved``): its block
    spectra are taken once and shared by all K+1 microphones.  The two
    sources are independent, so they are convolved at once, the speech
    on the calling thread and the noise on another
    (``threads.thread_map``), and joined before the scaling.  No command
    renders the stacks (``sweep._sources`` takes the gain from the
    sources' lag correlations): this stays as the tests' oracle and for
    the benchmark's traced pass.
    """
    speech = np.asarray(speech, dtype=float).ravel()
    N = speech.shape[0]
    max_ir = max(len(ir) for ir in (*scene.ir_speech, *scene.ir_noise))
    if N <= max_ir:
        raise ValueError(f"signal length {N} must exceed the longest IR ({max_ir} taps)")

    if noise is None:
        s = _convolved(scene.ir_speech, speech)
        # np.zeros, not zeros_like: the pages are calloc'd and never written
        return MicSignals(s=s, v=np.zeros(s.shape))

    noise = np.asarray(noise, dtype=float).ravel()
    if noise.shape[0] != N:
        raise ValueError(f"speech and noise lengths differ: {N} vs {noise.shape[0]}")
    s, v = thread_map(_convolved, (scene.ir_speech, scene.ir_noise), (speech, noise))
    if snr_db is not None:
        v *= snr_gain(float(np.vdot(s[-1], s[-1])), float(np.vdot(v[-1], v[-1])), snr_db)
    return MicSignals(s=s, v=v)


def snr_gain(es: float, ev: float, snr_db: float) -> float:
    """The gain that scales the noise to a speech-to-noise energy ratio of snr_db at
    the error microphone, where the unscaled speech and noise have the energies es
    and ev; a ``ConfigError`` if either is silent.  The one rule of ``render_mics``,
    which passes the energies of its rows, and of every command, which takes them
    from the sources' lag correlations (``sweep._sources``)."""
    if ev <= 0.0:
        raise ConfigError("noise component at the error microphone is silent; cannot set SNR")
    if es <= 0.0:
        raise ConfigError("speech component at the error microphone is silent; cannot set SNR")
    return float(np.sqrt(es / (ev * 10.0 ** (snr_db / 10.0))))


def _led_speech_row(scene: Scene, speech: np.ndarray, mic: int, lead: int) -> np.ndarray:
    """Microphone mic's row of ``render_mics``' speech stack, bit for bit, led by lead
    zeros: lead + N samples.  Its response is zero-padded to the longest speech
    response, so the row is convolved on the stack's layout.  The one convolution
    of a source any command makes: the target of ``metrics._RowScores``."""
    ir, longest = scene.ir_speech[mic], max(map(len, scene.ir_speech))
    row = np.zeros(lead + speech.shape[0])
    _convolved((np.pad(ir, (0, longest - len(ir))),), speech, out=row[None, lead:])
    return row


def _responses(scene: Scene) -> np.ndarray:
    """The (2, K+1, Lir) responses of the speech, then of the noise, at each microphone,
    zero-padded to the longest, Lir taps."""
    h = np.zeros((2, scene.K + 1, max(map(len, (*scene.ir_speech, *scene.ir_noise)))))
    for rows, irs in zip(h, (scene.ir_speech, scene.ir_noise)):
        for row, ir in zip(rows, irs):
            row[: len(ir)] = ir
    return h


def _convolved(irs, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The (len(irs), N) stack whose row k is ``np.convolve(irs[k], x)[:N]``, by overlap-save,
    written to out if given.

    x runs through the ``convmat.Blocks`` layout of the longest
    response.  Each chunk's block spectra are taken once and multiplied
    by every response's, and each response's product is inverted on its
    own straight into its row of the result, so the temporaries do not
    grow with N or with the number of responses, and the cost per
    sample grows with log(nfft), not with the responses' length.
    """
    blocks = Blocks(x.shape[0], max(len(ir) for ir in irs) - 1)
    spectra = [np.fft.rfft(ir, blocks.nfft) for ir in irs]
    if out is None:
        out = np.empty((len(irs), x.shape[0]))
    for chunk in blocks.chunks:
        X = blocks.spectra(x[None], chunk)[0]
        for row, spectrum in zip(out, spectra):
            blocks.put(row, chunk, X * spectrum)
    return out
