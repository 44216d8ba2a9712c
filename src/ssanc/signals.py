"""Seeded synthetic test signals.

Ships a speech-shaped noise generator so the simulation and test suites
need no external speech corpora.  All generators are deterministic for
a given seed.
"""

import numpy as np


def white_noise(n: int, seed: int) -> np.ndarray:
    """Unit-variance Gaussian white noise."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return np.random.default_rng(seed).standard_normal(n)


def speech_shaped_noise(n: int, fs: float, seed: int) -> np.ndarray:
    """Noise with a speech-like long-term spectrum and syllabic amplitude modulation.

    Gaussian noise is shaped in the frequency domain (rising below 500 Hz,
    falling ~6 dB/octave above, rolled off under 90 Hz), then multiplied by
    a slow (~4 Hz) envelope so frame energies fluctuate like running speech.
    Output is normalized to unit RMS.
    """
    if n < 16:
        raise ValueError(f"n must be >= 16, got {n}")
    if fs <= 0:
        raise ValueError(f"fs must be positive, got {fs}")
    rng = np.random.default_rng(seed)

    # each full-length step in place, in the order of the plain expressions
    spec = np.fft.rfft(rng.standard_normal(n))
    f = np.fft.rfftfreq(n, 1.0 / fs)
    shape = np.square(f / 90.0)
    shape /= shape + 1.0                   # high-pass knee ~90 Hz
    f /= 500.0
    np.square(f, out=f)
    f += 1.0
    shape /= np.sqrt(f, out=f)             # -6 dB/oct above 500 Hz
    spec *= shape
    del f, shape
    x = np.fft.irfft(spec, n)
    del spec

    # syllabic envelope: rectified slow noise with ~4 control points per second;
    # a float ramp, so that np.interp converts no second n-sample array
    m = max(8, int(round(4.0 * n / fs)) + 2)
    env = np.interp(np.arange(n, dtype=float), np.linspace(0, n - 1, m), rng.standard_normal(m))
    np.abs(env, out=env)
    peak = max(np.max(env), 1e-12)
    env *= 0.65
    env /= peak
    env += 0.35
    x *= env
    del env

    rms = np.sqrt(np.mean(np.square(x)))
    x /= max(rms, 1e-12)
    return x
