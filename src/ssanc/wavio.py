"""Thin WAV helpers on top of scipy.io.wavfile.

Reads 16/24-bit PCM and 32/64-bit float WAV, always returning float64,
and writes float64 WAV.  PCM is normalized to [-1, 1); floats pass
through unchanged, so a write/read round trip is exact.
"""

from pathlib import Path

import numpy as np
from scipy.io import wavfile

# scipy promotes 24-bit PCM to int32 with the payload in the high bytes,
# so a single full-scale divisor per integer dtype is correct for both.
_PCM_SCALE = {np.dtype(np.int16): 2.0**15, np.dtype(np.int32): 2.0**31}


def read_wav(path) -> tuple[int, np.ndarray]:
    """Read a WAV file, returning (sample_rate, float64 array).

    Multichannel data keeps its (frames, channels) shape.
    """
    fs, data = wavfile.read(str(path))
    if data.dtype in _PCM_SCALE:
        data = data.astype(np.float64) / _PCM_SCALE[data.dtype]
    elif data.dtype == np.uint8:
        data = (data.astype(np.float64) - 128.0) / 128.0
    else:
        data = data.astype(np.float64)
    return int(fs), data


def read_wav_mono(path) -> tuple[int, np.ndarray]:
    """Read a WAV file that must be single-channel."""
    fs, data = read_wav(path)
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono WAV, got {data.shape[1]} channels")
    return fs, data


def write_wav(path, fs: int, data: np.ndarray) -> None:
    """Write ``data`` as float64 WAV, creating the parent directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    wavfile.write(str(path), int(fs), np.asarray(data, np.float64))
