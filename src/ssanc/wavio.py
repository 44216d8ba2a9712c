"""Thin WAV helpers.

Reads mono 16/24-bit PCM and 32/64-bit float WAV through scipy.io.wavfile,
always returning float64, and writes float64 WAV with the standard
library alone.  PCM is normalized to [-1, 1); floats pass through
unchanged, so a write/read round trip is exact.
"""

import struct
from pathlib import Path

import numpy as np

_WAVE_FORMAT_IEEE_FLOAT = 3


def read_wav_mono(path, frames: int | None = None) -> tuple[int, np.ndarray]:
    """Read a WAV file that must be single-channel, returning (sample_rate, float64 array).

    With ``frames``, only the first ``frames`` samples are kept.  They are
    cut before they are converted, from a memory map of the file, so a
    long recording is neither read nor converted whole; 24-bit PCM, which
    has no mappable sample type, is mapped as bytes (``_pcm24``).
    """
    from scipy.io import wavfile  # deferred: only reading needs scipy

    try:
        fs, data = wavfile.read(str(path), mmap=True)
    except ValueError:  # 24-bit PCM, mapped as bytes; anything else fails again below, read whole
        fs, data = _pcm24(path, frames) or wavfile.read(str(path))
    if data.ndim != 1:
        raise ValueError(f"expected mono WAV, got {data.shape[1]} channels")
    data = np.asarray(data)[:frames]  # a plain view of the map: only the samples kept are converted
    out = data.astype(np.float64)
    if data.dtype.kind == "i":  # full scale of the container; 24-bit PCM arrives as int32
        out /= 2.0 ** (8 * data.dtype.itemsize - 1)
    elif data.dtype == np.uint8:
        out = (out - 128.0) / 128.0
    return int(fs), out


def _pcm24(path, frames: int | None) -> tuple[int, np.ndarray] | None:
    """(rate, first ``frames`` samples) of a mono little-endian 24-bit PCM WAV as scipy reads
    them (int32, high three bytes) from a memory map of the data chunk; None for other files."""
    with open(path, "rb") as f:
        riff, fmt, head = f.read(12)[:4], None, f.read(8)
        while riff == b"RIFF" and len(head) == 8 and head[:4] != b"data":
            size = int.from_bytes(head[4:], "little")
            if head[:4] == b"fmt ":  # tag, channels, rate, bytes per second, bytes per frame
                fmt, size = struct.unpack("<HHIIH", f.read(14)), size - 14
            f.seek(size + size % 2, 1)
            head = f.read(8)
        if head[:4] != b"data" or fmt is None or fmt[0] not in (1, 0xFFFE) or (fmt[1], fmt[4]) != (1, 3):
            return None
        n, offset = int.from_bytes(head[4:], "little") // 3, f.tell()
    n = n if frames is None else min(n, frames)
    data = np.zeros((n, 4), dtype=np.uint8)
    data[:, 1:] = np.memmap(path, np.uint8, "r", offset, (n, 3))
    return fmt[2], data.view("<i4")[:, 0]


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
