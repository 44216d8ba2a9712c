import numpy as np
import pytest

from ssanc.signals import speech_shaped_noise, white_noise


def test_white_noise_deterministic_and_unit_scale():
    a = white_noise(20000, 3)
    b = white_noise(20000, 3)
    np.testing.assert_array_equal(a, b)
    assert np.std(a) == pytest.approx(1.0, rel=0.05)
    assert not np.array_equal(a, white_noise(20000, 4))


def test_speech_shaped_noise_deterministic_unit_rms():
    a = speech_shaped_noise(32000, 16000, 7)
    b = speech_shaped_noise(32000, 16000, 7)
    np.testing.assert_array_equal(a, b)
    assert np.sqrt(np.mean(a**2)) == pytest.approx(1.0, abs=1e-9)


def plain_speech_shaped_noise(n, fs, seed):
    """speech_shaped_noise written as plain expressions, one new array per step."""
    rng = np.random.default_rng(seed)
    spec = np.fft.rfft(rng.standard_normal(n))
    f = np.fft.rfftfreq(n, 1.0 / fs)
    shape = (f / 90.0) ** 2 / (1.0 + (f / 90.0) ** 2)
    shape /= np.sqrt(1.0 + (f / 500.0) ** 2)
    x = np.fft.irfft(spec * shape, n)
    m = max(8, int(round(4.0 * n / fs)) + 2)
    slow = np.interp(np.arange(n), np.linspace(0, n - 1, m), rng.standard_normal(m))
    env = 0.35 + 0.65 * np.abs(slow) / max(np.max(np.abs(slow)), 1e-12)
    x = x * env
    rms = np.sqrt(np.mean(x**2))
    return x / max(rms, 1e-12)


@pytest.mark.parametrize("n, seed", [(16, 0), (1001, 1), (80000, 2), (80001, 3)])
def test_speech_shaped_noise_matches_plain_expressions(n, seed):
    np.testing.assert_array_equal(speech_shaped_noise(n, 16000.0, seed), plain_speech_shaped_noise(n, 16000.0, seed))


def test_speech_shaped_noise_peaks_near_its_output(traced_peak):
    """The generator holds at most about three n-sample arrays at once: its
    tracemalloc peak is at most 3.25 times the output's bytes, so that the
    two sources drawn at once need less than a third stack."""
    speech_shaped_noise(1000, 16000.0, 0)  # numpy's FFT plans outside the trace
    x, peak = traced_peak(lambda: speech_shaped_noise(960000, 16000.0, 0))
    assert peak <= 3.25 * x.nbytes, peak / x.nbytes


def test_speech_shaped_noise_spectrum_rolls_off():
    x = speech_shaped_noise(1 << 16, 16000.0, 11)
    spec = np.abs(np.fft.rfft(x)) ** 2
    f = np.fft.rfftfreq(len(x), 1 / 16000.0)

    def band_power(lo, hi):
        return float(np.mean(spec[(f >= lo) & (f < hi)]))

    mid = band_power(200, 800)
    assert band_power(4000, 7000) < mid / 4  # high band well below the speech band
    assert band_power(0, 40) < mid / 10      # rumble suppressed


def test_speech_shaped_noise_has_envelope_dynamics():
    x = speech_shaped_noise(80000, 16000.0, 5)
    frames = x[: 80000 - 80000 % 1024].reshape(-1, 1024)
    rms = np.sqrt(np.mean(frames**2, axis=1))
    assert rms.max() / rms.min() > 1.5  # syllabic-like level fluctuation


def test_generators_validate_args():
    with pytest.raises(ValueError):
        white_noise(0, 1)
    with pytest.raises(ValueError):
        speech_shaped_noise(8, 16000, 0)
    with pytest.raises(ValueError):
        speech_shaped_noise(1000, -1, 0)
