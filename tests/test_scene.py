import json
import struct
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from ssanc import wavio
from ssanc.convmat import Blocks, build_conv_matrix
from ssanc.reir import estimate_reirs
from ssanc.scene import (
    ConfigError,
    Scene,
    _convolved,
    load_scene_wav,
    render_mics,
    synth_scene,
)
from ssanc.signals import speech_shaped_noise, white_noise
from ssanc.solver import input_frames
from ssanc.sweep import SweepConfig, _checked_scene


def default_scene(tail_amp=0.0, seed=0):
    return synth_scene(
        K=4,
        speech_delays=[6, 8, 9, 11, 10],
        noise_delays=[9, 5, 7, 4, 8],
        gains=[(1.0, 0.7), (0.8, 1.0), (0.7, 0.9), (0.9, 1.0), (0.6, 0.8)],
        sec_delay=2,
        sec_ir_len=16,
        fs=16000,
        seed=seed,
        tail_amp=tail_amp,
    )


def test_synth_scene_known_acoustic_delay():
    scene = default_scene()
    assert scene.spatial_ref == 0  # smallest speech delay
    # speech acoustic delay from spatial ref to error mic is 10 - 6 = 4
    d_ref = int(np.argmax(np.abs(scene.h[0, scene.spatial_ref])))
    d_err = int(np.argmax(np.abs(scene.h[0, scene.K])))
    assert d_err - d_ref == 4


def test_synth_scene_pure_pulses_without_tails():
    scene = default_scene(tail_amp=0.0)
    for ir, delay, gain in zip(scene.h[0], [6, 8, 9, 11, 10], [1.0, 0.8, 0.7, 0.9, 0.6]):
        assert ir[delay] == gain
        assert np.count_nonzero(ir) == 1


def test_synth_scene_identical_pulses_trivial_case():
    scene = synth_scene(
        K=2,
        speech_delays=[0, 0, 0],
        noise_delays=[0, 0, 0],
        gains=[(1.0, 1.0)] * 3,
        sec_delay=1,
        sec_ir_len=4,
        fs=16000,
        seed=1,
    )
    for ir in scene.h.reshape(-1, scene.h.shape[-1]):
        np.testing.assert_array_equal(ir, scene.h[0, 0])


def test_synth_scene_deterministic_given_seed():
    a = default_scene(tail_amp=0.1, seed=42)
    b = default_scene(tail_amp=0.1, seed=42)
    for ia, ib in ((a.h, b.h), (a.g, b.g)):
        np.testing.assert_array_equal(ia, ib)


def test_synth_scene_rejects_zero_secondary_delay():
    with pytest.raises(ValueError):
        synth_scene(
            K=1,
            speech_delays=[0, 1],
            noise_delays=[1, 0],
            gains=[(1, 1), (1, 1)],
            sec_delay=0,
            sec_ir_len=8,
            fs=16000,
            seed=0,
        )


def test_secondary_path_has_latency():
    scene = default_scene(tail_amp=0.2, seed=5)
    assert scene.g[0] == 0.0
    assert scene.g[2] == 1.0


def test_render_mics_snr_is_exact():
    scene = default_scene(tail_amp=0.05, seed=3)
    speech = speech_shaped_noise(16000, 16000, 10)
    noise = speech_shaped_noise(16000, 16000, 11)
    mics = render_mics(scene, speech, noise, snr_db=-5.0)
    measured = 10.0 * np.log10(np.sum(mics.p_s**2) / np.sum(mics.p_v**2))
    assert measured == pytest.approx(-5.0, abs=1e-9)
    # scaled noise energy matches the closed form for -5 dB
    assert np.sum(mics.p_v**2) == pytest.approx(np.sum(mics.p_s**2) * 10**0.5, rel=1e-12)


def test_render_mics_identical_irs_make_channels_proportional():
    scene = synth_scene(
        K=2,
        speech_delays=[3, 3, 3],
        noise_delays=[3, 3, 3],
        gains=[(1.0, 1.0)] * 3,
        sec_delay=1,
        sec_ir_len=4,
        fs=16000,
        seed=0,
    )
    sig = white_noise(4000, 1)
    mics = render_mics(scene, sig, sig, snr_db=0.0)
    np.testing.assert_allclose(mics.s[0], mics.s[1], atol=1e-12)
    np.testing.assert_allclose(mics.v[0], mics.s[0], atol=1e-12)


def test_render_matches_convolution_matrix_form():
    scene = default_scene(tail_amp=0.1, seed=7)
    speech = white_noise(400, 2)
    mics = render_mics(scene, speech)
    ir = scene.h[0, 1]
    full = build_conv_matrix(ir, len(speech)) @ speech
    np.testing.assert_allclose(mics.s[1], full[: len(speech)], atol=1e-10)
    # the layout: one row per scene response, reference mics first, error mic last
    noise = white_noise(400, 3)
    mics = render_mics(scene, speech, noise)
    assert mics.s.shape == mics.v.shape == (scene.K + 1, len(speech))
    for k in range(scene.K + 1):
        for row, ir, source in ((mics.s[k], scene.h[0, k], speech), (mics.v[k], scene.h[1, k], noise)):
            ref = np.convolve(ir, source)[:400]
            np.testing.assert_allclose(row, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
    assert np.shares_memory(mics.p_s, mics.s) and np.shares_memory(mics.p_v, mics.v)


@pytest.mark.parametrize(
    "n, lengths",
    [(3000, (40, 1, 17)), (200000, (1500, 900, 1)), (50000, (2049, 3, 700))],
    ids=["one-block", "long-responses", "unequal-lengths"],
)
def test_render_matches_direct_convolution(n, lengths):
    """Each overlap-save row is np.convolve(ir, x)[:N] to 1e-12 of the row's scale:
    on one block (N + M < 4096), on blocks longer than 4096 (M > 1024) and for
    responses of unequal lengths, speech and noise each."""
    rng = np.random.default_rng(n)
    irs = tuple(rng.standard_normal(m) * np.exp(-np.arange(m) / 300.0) for m in lengths)
    h = np.zeros((len(lengths), max(lengths)))
    for row, ir in zip(h, irs):
        row[: ir.shape[0]] = ir
    scene = Scene(h=np.stack([h, h[::-1]]), g=np.ones(1), fs=16000, spatial_ref=0)
    speech, noise = white_noise(n, 1), white_noise(n, 2)
    mics = render_mics(scene, speech, noise)
    for stack, responses, source in ((mics.s, irs, speech), (mics.v, irs[::-1], noise)):
        for row, ir in zip(stack, responses):
            ref = np.convolve(ir, source)[:n]
            assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_render_mics_silent_noise_cannot_scale():
    scene = default_scene()
    speech = white_noise(2000, 3)
    with pytest.raises(ConfigError):
        render_mics(scene, speech, np.zeros(2000), snr_db=-5.0)


def test_render_mics_desired_only():
    scene = default_scene()
    mics = render_mics(scene, white_noise(2000, 4))
    assert not mics.v.any() and not mics.p_v.any()
    assert mics.p_s.shape == (2000,)


def test_components_sum_exactly():
    scene = default_scene(tail_amp=0.05, seed=9)
    mics = render_mics(scene, white_noise(3000, 5), white_noise(3000, 6), snr_db=2.0)
    observed = input_frames(mics, 1).channels
    np.testing.assert_array_equal(observed[-1], mics.p_s + mics.p_v)
    np.testing.assert_array_equal(observed[:-1], mics.s[:-1] + mics.v[:-1])


def test_stack_consumers_make_no_stack_copies(traced_peak):
    """On a (3, 960000) rendering, as for a 60 s recording, the observed sum,
    the simulation set-up beyond the spectra it keeps and the ReIR fit from
    a 960000-sample source each peak under 1.25 stacks: none of them
    re-stacks or re-sums the channels, and the fit renders none."""
    scene = synth_scene(
        K=2, speech_delays=[6, 8, 10], noise_delays=[9, 5, 7],
        gains=[(1.0, 0.7), (0.8, 1.0), (0.6, 0.8)], sec_delay=2, sec_ir_len=48,
        fs=16000, seed=3, tail_amp=0.3, tail_decay=12.0,
    )
    n = 960000
    mics = render_mics(scene, white_noise(n, 0), white_noise(n, 1), snr_db=-5.0)
    stack = mics.s.nbytes
    _, peak = traced_peak(lambda: input_frames(mics, 95))
    assert peak < 1.25 * stack
    X, peak = traced_peak(lambda: Blocks(n, 48 + scene.g.shape[0] - 2).all_spectra(mics.s))
    assert peak - X.nbytes < 1.25 * stack
    del X
    white = white_noise(n, 2)
    _, peak = traced_peak(lambda: estimate_reirs(scene, white, 48))
    assert peak < 1.25 * stack


def test_convolution_temporaries_do_not_grow_with_the_responses(traced_peak):
    """``_convolved`` inverts one response's product at a time, straight into
    its row: on paper_scale's five speech responses its tracemalloc peak
    exceeds the output by less than 2.5 MiB, about three chunks of
    ``convmat._BLOCK_CHUNK`` samples (a (K+1)-row inverse transform took 5.66 MiB)."""
    config = SweepConfig.from_json(Path(__file__).parents[1] / "configs" / "paper_scale.json")
    scene, n = _checked_scene(config, design=True, sim_taps=None)
    x = speech_shaped_noise(n, config.fs, 0)
    expected = _convolved(scene.h[0], x)
    out, peak = traced_peak(lambda: _convolved(scene.h[0], x))
    np.testing.assert_array_equal(out, expected)
    assert peak - out.nbytes < 2.5 * 2**20, (peak - out.nbytes) / 2**20


def test_scene_validation():
    """Scene refuses a response array that is not (2, K+1, Lir), K < 1, an empty
    response or secondary path, and a non-finite tap of either."""
    nan_tap = np.ones((2, 2, 2))
    nan_tap[1, 0, 1] = np.nan
    for h, g, match in (
        (np.ones((2, 2)), np.ones(2), "array of responses"),  # no source axis
        (np.ones((3, 2, 2)), np.ones(2), "array of responses"),  # three sources
        (np.ones((2, 1, 2)), np.ones(2), "K must be >= 1, got 0"),
        (np.ones((2, 2, 0)), np.ones(2), "at least one tap"),
        (np.ones((2, 2, 2)), np.zeros(0), "at least one tap"),
        (nan_tap, np.ones(2), "finite"),
        (np.ones((2, 2, 2)), np.array([1.0, np.inf]), "finite"),
    ):
        with pytest.raises(ValueError, match=match):
            Scene(h=h, g=g, fs=16000, spatial_ref=0)


# ---------------------------------------------------------------------------
# WAV manifest loading
# ---------------------------------------------------------------------------


def write_manifest_scene(tmp_path, fs=16000, mics=5, fs_override=None, skip_file=None):
    rng = np.random.default_rng(0)
    names = {"speech_irs": [], "noise_irs": []}
    for role in ("speech_irs", "noise_irs"):
        for m in range(mics):
            name = f"{role[:-4]}_{m}.wav"
            wavio.write_wav(tmp_path / name, fs_override or fs, rng.standard_normal(32))
            names[role].append(name)
    g = np.zeros(16)
    g[2] = 1.0
    wavio.write_wav(tmp_path / "g.wav", fs_override or fs, g)
    manifest = {
        "fs": fs,
        "mics": mics,
        "speech_irs": names["speech_irs"],
        "noise_irs": names["noise_irs"],
        "secondary": "g.wav",
        "spatial_ref": 2,
    }
    if skip_file:
        (tmp_path / skip_file).unlink()
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def test_load_scene_manifest_of_eleven_files(tmp_path):
    write_manifest_scene(tmp_path)
    scene = load_scene_wav(tmp_path, "manifest.json")
    assert scene.K == 4
    assert scene.spatial_ref == 2
    assert scene.fs == 16000
    assert scene.h.shape == (2, 5, 32)


def test_load_scene_unit_impulse_wav(tmp_path):
    manifest = write_manifest_scene(tmp_path)
    pulse = np.zeros(8)
    pulse[0] = 1.0
    wavio.write_wav(tmp_path / "speech_0.wav", 16000, pulse)
    scene = load_scene_wav(tmp_path, manifest)
    np.testing.assert_array_equal(scene.h[0, 0], np.pad(pulse, (0, 24)))


def test_load_scene_missing_file(tmp_path):
    write_manifest_scene(tmp_path, skip_file="noise_3.wav")
    with pytest.raises(ConfigError, match="missing"):
        load_scene_wav(tmp_path, "manifest.json")


def test_load_scene_sample_rate_mismatch(tmp_path):
    write_manifest_scene(tmp_path, fs=16000, fs_override=8000)
    with pytest.raises(ConfigError, match="sample rate"):
        load_scene_wav(tmp_path, "manifest.json")


@pytest.mark.parametrize("key, value", [("speech_irs", [1, 2, 3, 4, 5]), ("secondary", ["g.wav"])])
def test_load_scene_rejects_non_string_file_names(tmp_path, key, value):
    manifest = write_manifest_scene(tmp_path)
    with pytest.raises(ConfigError, match="file names must be strings"):
        load_scene_wav(tmp_path, {**manifest, key: value})


MALFORMED_MANIFEST_FIELDS = [
    ("fs", 16000.5),
    ("fs", "16000"),
    ("mics", 3.9),
    ("spatial_ref", 1.7),
    ("spatial_ref", True),
    ("speech_irs", "abc"),
]


@pytest.mark.parametrize("key, value", MALFORMED_MANIFEST_FIELDS)
def test_load_scene_refuses_malformed_numbers_and_lists(tmp_path, key, value):
    """Integers follow the config's rule (no truncation, no bool, no string); name lists are lists."""
    manifest = {**write_manifest_scene(tmp_path, mics=3), "spatial_ref": 0}
    load_scene_wav(tmp_path, manifest)
    with pytest.raises(ConfigError, match=key):
        load_scene_wav(tmp_path, {**manifest, key: value})


def test_load_scene_accepts_integral_floats(tmp_path):
    manifest = write_manifest_scene(tmp_path, mics=3)
    scene = load_scene_wav(tmp_path, {**manifest, "fs": 16000.0, "mics": 3.0, "spatial_ref": 1.0})
    assert (scene.fs, scene.K, scene.spatial_ref) == (16000, 2, 1)
    assert all(isinstance(v, int) for v in (scene.fs, scene.K, scene.spatial_ref))


def test_load_scene_rejects_stereo(tmp_path):
    manifest = write_manifest_scene(tmp_path)
    wavio.write_wav(tmp_path / "speech_1.wav", 16000, np.zeros((16, 2)))
    with pytest.raises(ConfigError, match="mono"):
        load_scene_wav(tmp_path, manifest)


@pytest.mark.parametrize(
    "name, data, match",
    [
        ("g.wav", np.zeros(0), "at least one tap"),
        ("speech_0.wav", np.array([1.0, np.nan, 0.5]), "finite"),
        ("speech_1.wav", np.zeros(0), "at least one tap"),
    ],
)
def test_load_scene_rejects_empty_or_non_finite_ir(tmp_path, name, data, match):
    manifest = write_manifest_scene(tmp_path)
    wavio.write_wav(tmp_path / name, 16000, data)
    with pytest.raises(ConfigError, match=match):
        load_scene_wav(tmp_path, manifest)


# ---------------------------------------------------------------------------
# WAV round trips
# ---------------------------------------------------------------------------


def test_wav_float64_round_trip_is_exact(tmp_path):
    data = np.random.default_rng(1).standard_normal(257)
    wavio.write_wav(tmp_path / "x.wav", 16000, data)
    fs, back = wavio.read_wav_mono(tmp_path / "x.wav")
    assert fs == 16000
    np.testing.assert_array_equal(back, data)
    wavfile.write(str(tmp_path / "scipy.wav"), 16000, data)
    assert (tmp_path / "x.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


def test_wav_float32_round_trip_within_cast(tmp_path):
    data = np.random.default_rng(2).standard_normal(100)
    wavfile.write(str(tmp_path / "x.wav"), 16000, data.astype(np.float32))
    _, back = wavio.read_wav_mono(tmp_path / "x.wav")
    np.testing.assert_array_equal(back, data.astype(np.float32).astype(np.float64))


def test_wav_pcm16_round_trip_within_quantization(tmp_path):
    data = 0.5 * np.sin(np.linspace(0, 20, 400))
    wavfile.write(str(tmp_path / "x.wav"), 16000, np.round(data * 2.0**15).astype(np.int16))
    _, back = wavio.read_wav_mono(tmp_path / "x.wav")
    np.testing.assert_allclose(back, data, atol=2.0**-16)


def test_wav_big_endian_pcm16_is_scaled_as_little_endian(tmp_path):
    """A RIFX file's big-endian 16-bit samples read as the same values as a RIFF file's."""
    samples = np.round(0.5 * np.sin(np.linspace(0, 20, 400)) * 2.0**15).astype(np.int16)
    wavfile.write(str(tmp_path / "le.wav"), 16000, samples)
    raw = samples.astype(">i2").tobytes()
    body = b"WAVE" + b"fmt " + struct.pack(">IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
    body += b"data" + struct.pack(">I", len(raw)) + raw
    (tmp_path / "be.wav").write_bytes(b"RIFX" + struct.pack(">I", len(body)) + body)
    for name in ("le.wav", "be.wav"):
        np.testing.assert_array_equal(wavio.read_wav_mono(tmp_path / name)[1], samples / 2.0**15)


def test_wav_pcm24_read(tmp_path):
    # hand-roll a 24-bit PCM WAV: scipy reads it back as int32 (high bytes)
    samples = [0, 1 << 8, -(1 << 8), (1 << 22)]
    raw = b"".join(struct.pack("<i", s)[0:3] for s in samples)
    header = b"RIFF" + struct.pack("<I", 36 + len(raw)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 16000 * 3, 3, 24)
    header += b"data" + struct.pack("<I", len(raw))
    (tmp_path / "p24.wav").write_bytes(header + raw)
    fs, back = wavio.read_wav_mono(tmp_path / "p24.wav")
    assert fs == 16000
    np.testing.assert_allclose(back, np.array(samples) / 2**23, atol=1e-12)


def write_pcm24(path, samples, channels=1):
    """A 24-bit PCM WAV of the int samples, interleaved, with a LIST chunk before the data."""
    raw = np.asarray(samples, dtype="<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    fmt = struct.pack("<HHIIHH", 1, channels, 16000, 16000 * 3 * channels, 3 * channels, 24)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"LIST" + struct.pack("<I", 5) + b"INFOx\0"  # odd size: a pad byte follows
    body += b"data" + struct.pack("<I", len(raw)) + raw
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def test_wav_pcm24_first_frames_are_read_without_the_rest(tmp_path, traced_peak):
    """1 s of a 10 s 24-bit PCM WAV reads as the first 16000 samples of scipy's
    whole read, and peaks under twice the float64 samples it keeps: only
    their bytes are read, from a memory map of the data chunk."""
    rng = np.random.default_rng(4)
    samples = rng.integers(-(1 << 23), 1 << 23, 160000)
    write_pcm24(tmp_path / "p24.wav", samples)
    whole = wavfile.read(str(tmp_path / "p24.wav"))[1]
    wavio.read_wav_mono(tmp_path / "p24.wav", frames=1)  # import the reader outside the trace
    (fs, data), peak = traced_peak(lambda: wavio.read_wav_mono(tmp_path / "p24.wav", frames=16000))
    assert fs == 16000
    np.testing.assert_array_equal(data, whole[:16000] / 2.0**31)
    np.testing.assert_array_equal(data, samples[:16000] / 2.0**23)
    assert peak < 2 * data.nbytes, peak / data.nbytes
    np.testing.assert_array_equal(wavio.read_wav_mono(tmp_path / "p24.wav")[1], whole / 2.0**31)
    write_pcm24(tmp_path / "stereo.wav", samples[:200], channels=2)
    with pytest.raises(ValueError, match="mono"):
        wavio.read_wav_mono(tmp_path / "stereo.wav", frames=10)


def write_wav_bytes(path, order, tag, bits, raw, extensible=False):
    """A mono WAV of the raw sample bytes, RIFF (order '<') or RIFX ('>'), with an
    odd-sized LIST chunk before the data; ``extensible`` wraps the tag in a
    WAVE_FORMAT_EXTENSIBLE fmt chunk."""
    fmt = struct.pack(order + "HHIIHH", 0xFFFE if extensible else tag, 1, 16000, 2000 * bits, bits // 8, bits)
    if extensible:  # cbSize, valid bits, channel mask, subformat GUID {tag-0000-0010-8000-00AA00389B71}
        fmt += struct.pack(order + "HHIIHH", 22, bits, 4, tag, 0, 0x10) + b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
    chunks = [(b"fmt ", fmt), (b"LIST", b"INFOx"), (b"data", raw)]
    body = b"WAVE" + b"".join(
        name + struct.pack(order + "I", len(data)) + data + b"\0" * (len(data) % 2) for name, data in chunks
    )
    path.write_bytes((b"RIFF" if order == "<" else b"RIFX") + struct.pack(order + "I", len(body)) + body)


@pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
@pytest.mark.parametrize("order", ["<", ">"], ids=["RIFF", "RIFX"])
@pytest.mark.parametrize("kind", ["u1", "i2", "i4", "f4", "f8"])
def test_wav_formats_read_as_scipy_reads_them(tmp_path, kind, order, extensible):
    """Every mapped sample type, in either byte order and either fmt chunk,
    reads as ``scipy.io.wavfile.read`` scaled to float64, whole or cut."""
    rng = np.random.default_rng(5)
    dtype = np.dtype(order + kind)
    if dtype.kind == "f":
        samples = rng.standard_normal(101).astype(dtype)
    else:
        info = np.iinfo(dtype)
        samples = rng.integers(info.min, info.max, 101, endpoint=True).astype(dtype)
    tag = 3 if dtype.kind == "f" else 1
    write_wav_bytes(tmp_path / "x.wav", order, tag, 8 * dtype.itemsize, samples.tobytes(), extensible)
    fs, ref = wavfile.read(str(tmp_path / "x.wav"))
    assert ref.dtype.kind == dtype.kind and ref.dtype.itemsize == dtype.itemsize
    ref = ref.astype(np.float64)
    if dtype.kind == "i":
        ref /= 2.0 ** (8 * dtype.itemsize - 1)
    elif dtype.kind == "u":
        ref = (ref - 128.0) / 128.0
    for frames in (None, 7):
        rate, back = wavio.read_wav_mono(tmp_path / "x.wav", frames=frames)
        assert rate == fs == 16000 and back.dtype == np.float64
        np.testing.assert_array_equal(back, ref[:frames])


@pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
@pytest.mark.parametrize("order", ["<", ">"], ids=["RIFF", "RIFX"])
def test_wav_pcm24_reads_the_written_samples(tmp_path, order, extensible):
    samples = np.random.default_rng(6).integers(-(1 << 23), 1 << 23, 101)
    raw = samples.astype(order + "i4").view(np.uint8).reshape(-1, 4)
    raw = raw[:, :3] if order == "<" else raw[:, 1:]  # the low three bytes of each int32
    write_wav_bytes(tmp_path / "x.wav", order, 1, 24, raw.tobytes(), extensible)
    for frames in (None, 7):
        rate, back = wavio.read_wav_mono(tmp_path / "x.wav", frames=frames)
        assert rate == 16000
        np.testing.assert_array_equal(back, samples[:frames] / 2.0**23)


@pytest.mark.parametrize("frames", [None, 1])
@pytest.mark.parametrize("bits", [16, 24])
def test_wav_data_chunk_past_the_end_is_refused(tmp_path, bits, frames):
    """A data chunk that claims more bytes than the file holds is refused,
    whatever the bit depth and however few frames are asked for."""
    write_wav_bytes(tmp_path / "x.wav", "<", 1, bits, bytes(bits // 8 * 100))
    whole = (tmp_path / "x.wav").read_bytes()
    (tmp_path / "x.wav").write_bytes(whole[: -bits // 8 * 50])
    with pytest.raises(ValueError, match="past the end of the file"):
        wavio.read_wav_mono(tmp_path / "x.wav", frames=frames)
