"""Thin WAV helpers.

Reads mono 16/24-bit PCM and 32/64-bit float WAV through scipy.io.wavfile,
always returning float64, and writes float64 WAV with the standard
library alone.  PCM is normalized to [-1, 1); floats pass through
unchanged, so a write/read round trip is exact.
"""

import struct
from pathlib import Path

import numpy as np

# scipy promotes 24-bit PCM to int32 with the payload in the high bytes,
# so a single full-scale divisor per integer dtype is correct for both.
_PCM_SCALE = {np.dtype(np.int16): 2.0**15, np.dtype(np.int32): 2.0**31}

_WAVE_FORMAT_IEEE_FLOAT = 3


def read_wav_mono(path, frames: int | None = None) -> tuple[int, np.ndarray]:
    """Read a WAV file that must be single-channel, returning (sample_rate, float64 array).

    With ``frames``, only the first ``frames`` samples are kept.  They are
    cut before they are converted, from a memory map of the file, so a
    long recording is neither read nor converted whole; 24-bit PCM, which
    has no mappable sample type, is read whole and then cut.
    """
    from scipy.io import wavfile  # deferred: only reading needs scipy

    try:
        fs, data = wavfile.read(str(path), mmap=True)
    except ValueError:  # 24-bit PCM; a malformed file fails again below
        fs, data = wavfile.read(str(path))
    if data.ndim != 1:
        raise ValueError(f"expected mono WAV, got {data.shape[1]} channels")
    data = np.asarray(data)[:frames]  # a plain view of the map: only the samples kept are converted
    if data.dtype in _PCM_SCALE:
        data = data.astype(np.float64) / _PCM_SCALE[data.dtype]
    elif data.dtype == np.uint8:
        data = (data.astype(np.float64) - 128.0) / 128.0
    else:
        data = data.astype(np.float64)
    return int(fs), data


def write_wav(path, fs: int, data: np.ndarray) -> None:
    """Write ``data`` as float64 WAV, creating the parent directory.

    A 1-D array is one channel; a (frames, channels) array is
    interleaved.  The layout is that of ``scipy.io.wavfile.write``: an
    18-byte IEEE-float fmt chunk, a fact chunk with the frame count,
    then the little-endian samples.
    """
    data = np.asarray(data, dtype="<f8")
    channels = 1 if data.ndim == 1 else data.shape[1]
    fmt = struct.pack("<HHIIHHH", _WAVE_FORMAT_IEEE_FLOAT, channels, int(fs),
                      int(fs) * 8 * channels, 8 * channels, 64, 0)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"fact" + struct.pack("<II", 4, data.shape[0])
            + b"data" + struct.pack("<I", data.nbytes))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", len(body) + data.nbytes) + body)
        f.write(np.ascontiguousarray(data).data)
