"""Thin WAV helpers on numpy and the standard library.

Reads mono 8-bit (unsigned), 16/24/32-bit PCM and 32/64-bit float WAV,
``RIFF`` (little-endian) or ``RIFX`` (big-endian), plain or
``WAVE_FORMAT_EXTENSIBLE``, through one chunk walker, always returning
float64; any other file (``RF64`` included) raises a one-line
``ValueError``.  Writes float64 WAV.  PCM is normalized to [-1, 1);
floats pass through unchanged, so a write/read round trip is exact.
"""

import os
import struct
from pathlib import Path

import numpy as np

_WAVE_FORMAT_IEEE_FLOAT = 3
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# (format tag, bits per sample) -> sample type; 24-bit PCM has none and is mapped as bytes
_SAMPLE_TYPES = {(1, 8): "u1", (1, 16): "i2", (1, 24): "V3", (1, 32): "i4", (3, 32): "f4", (3, 64): "f8"}


def read_wav_mono(path, frames: int | None = None) -> tuple[int, np.ndarray]:
    """Read a WAV file that must be single-channel, returning (sample_rate, float64 array).

    With ``frames``, only the first ``frames`` samples are kept.  They are
    cut before they are converted, from a memory map of the data chunk, so
    a long recording is neither read nor converted whole.  24-bit PCM is
    widened to int32 (its high three bytes), as ``scipy.io.wavfile`` reads it.
    """
    with open(path, "rb") as f:
        end, head = os.fstat(f.fileno()).st_size, f.read(12)
        order = {b"RIFF": "<", b"RIFX": ">"}.get(head[:4])
        if order is None or head[8:] != b"WAVE":
            raise ValueError(f"not a RIFF or RIFX WAVE file (it starts {head!r})")
        fmt = None
        while True:
            chunk = f.read(8)
            if len(chunk) < 8:
                raise ValueError("no data chunk")
            name, size, start = chunk[:4], struct.unpack(order + "I", chunk[4:])[0], f.tell()
            if start + size > end:
                raise ValueError(f"{name!r} chunk of {size} bytes runs past the end of the file")
            if name == b"data":
                break
            if name == b"fmt ":
                fmt = _sample_format(f.read(size), order)
            f.seek(start + size + size % 2)
    if fmt is None:
        raise ValueError("no fmt chunk before the data chunk")
    fs, dtype = fmt
    n = size // dtype.itemsize if frames is None else min(size // dtype.itemsize, frames)
    if dtype.kind == "V":  # 24-bit PCM: its bytes become the high three of an int32
        wide, high = np.zeros((n, 4), np.uint8), slice(1, 4) if order == "<" else slice(0, 3)
        wide[:, high] = np.memmap(path, np.uint8, "r", start, (n, 3))
        data = wide.view(order + "i4")[:, 0]
    else:
        data = np.memmap(path, dtype, "r", start, (n,))
    out = np.array(data, dtype=np.float64)
    if data.dtype.kind == "i":  # full scale of the container
        out /= 2.0 ** (8 * data.dtype.itemsize - 1)
    elif data.dtype.kind == "u":
        out = (out - 128.0) / 128.0
    return fs, out


def _sample_format(fmt: bytes, order: str) -> tuple[int, np.dtype]:
    """(sample rate, sample type) of a mono fmt chunk in the byte order ``order``."""
    if len(fmt) < 16:
        raise ValueError(f"fmt chunk of {len(fmt)} bytes; it needs at least 16")
    tag, channels, fs, _, align, bits = struct.unpack(order + "HHIIHH", fmt[:16])
    if tag == _WAVE_FORMAT_EXTENSIBLE:  # the subformat GUID starts with the format tag
        if len(fmt) < 40:
            raise ValueError(f"WAVE_FORMAT_EXTENSIBLE fmt chunk of {len(fmt)} bytes; it needs 40")
        tag = struct.unpack(order + "I", fmt[24:28])[0]
    if channels != 1:
        raise ValueError(f"expected mono WAV, got {channels} channels")
    if (tag, bits) not in _SAMPLE_TYPES or align != bits // 8:
        raise ValueError(f"unsupported WAV format: tag {tag:#06x}, {bits}-bit samples in {align}-byte frames")
    return fs, np.dtype(order + _SAMPLE_TYPES[tag, bits])


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
