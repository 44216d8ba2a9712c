"""Correctness checks on the outputs of the ssanc CLI.

Every output of a benchmark run is checked for finiteness and shape, and,
where the benchmark ships a reference captured for that config and seed,
compared with it:

* numbers are compared normwise: a value fails when it is further than
  ``RTOL`` times the largest magnitude of its group (one CSV column, the
  taps of one filter, one WAV file) from the reference;
* WAV references hold a SHA-256 of the whole file and every
  ``WAV_STRIDE``-th sample, so deviations are measured on that subset and
  byte identity on the whole file.

Sweep CSVs must also be byte-identical whenever the same code runs the
same config and seed again in this checkout (``DigestBook``).
"""

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

RTOL = 1e-6
WAV_STRIDE = 128
WAV_NAMES = ("y", "e", "e_s", "e_v", "t")
CSV_HEADER = ["delta", "nr_db", "sdi_db", "quality_db", "effort", "constraint_residual", "design_ms", "error"]
CSV_NUMERIC = ("nr_db", "sdi_db", "quality_db", "effort", "constraint_residual")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Deviation:
    """Largest deviation from a reference: absolute, and relative to the group's scale."""

    max_abs: float = 0.0
    max_rel: float = 0.0
    compared: int = 0
    byte_identical: bool = True

    def add(self, actual, ref) -> np.ndarray:
        """Fold one group in; return a mask of the elements outside tolerance."""
        actual = np.asarray(actual, dtype=float)
        ref = np.asarray(ref, dtype=float)
        diff = np.abs(actual - ref)
        scale = float(np.max(np.abs(ref))) if ref.size else 0.0
        if diff.size:
            worst = float(np.max(diff))
            self.max_abs = max(self.max_abs, worst)
            if scale > 0.0:
                self.max_rel = max(self.max_rel, worst / scale)
        self.compared += int(diff.size)
        return ~(diff <= RTOL * scale)

    def merge(self, other: "Deviation") -> None:
        self.max_abs = max(self.max_abs, other.max_abs)
        self.max_rel = max(self.max_rel, other.max_rel)
        self.compared += other.compared
        self.byte_identical &= other.byte_identical

    def as_dict(self) -> dict:
        return {
            "max_abs": self.max_abs,
            "max_rel": self.max_rel,
            "values_compared": self.compared,
            "byte_identical": self.byte_identical,
        }


@dataclass
class CheckResult:
    """Operations attempted and failed by one CLI output, with reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    deviation: Deviation | None = None

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.problems.append(reason)


def reference_stem(config_path, seed: int) -> Path:
    return REFERENCE_DIR / f"{Path(config_path).stem}_s{seed}"


def read_sweep_csv(data: bytes) -> list[dict]:
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header}")
    return [dict(zip(CSV_HEADER, row)) for row in reader]


def _numeric(rows: list[dict]) -> np.ndarray:
    """The metric columns of sweep rows; empty or malformed cells become NaN."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return float("nan")

    return np.array([[cell(r[c]) for c in CSV_NUMERIC] for r in rows]).reshape(len(rows), len(CSV_NUMERIC))


def _compare_csv(data: bytes, ref_data: bytes, res: CheckResult, label: str) -> np.ndarray:
    """Deviation of one sweep CSV from another; returns the rows outside tolerance."""
    rows, ref_rows = read_sweep_csv(data), read_sweep_csv(ref_data)
    res.deviation = Deviation(byte_identical=data == ref_data)
    if [r["delta"] for r in rows] != [r["delta"] for r in ref_rows]:
        res.problems.append(f"{label}: deltas differ")
        return np.ones(len(rows), dtype=bool)
    values, ref_values = _numeric(rows), _numeric(ref_rows)
    bad = np.zeros(len(rows), dtype=bool)
    for j, name in enumerate(CSV_NUMERIC):
        off = res.deviation.add(values[:, j], ref_values[:, j])
        if off.any():
            res.problems.append(f"{label}: {name} outside tolerance in {int(off.sum())} rows")
        bad |= off
    return bad


def check_sweep(csv_path, deltas, ref_stem: Path | None, digests: "DigestBook | None", key: str) -> CheckResult:
    """One operation per expected row: present, no error, finite, within tolerance."""
    res = CheckResult(attempted=len(deltas))
    try:
        data = Path(csv_path).read_bytes()
        rows = read_sweep_csv(data)
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        res.fail(len(deltas), f"{csv_path}: {exc}")
        return res
    if [r["delta"] for r in rows] != [str(d) for d in deltas]:
        res.fail(len(deltas), f"{csv_path}: rows do not match deltas {deltas[0]}..{deltas[-1]}")
        return res

    bad = np.array([bool(r["error"]) for r in rows]) | ~np.all(np.isfinite(_numeric(rows)), axis=1)
    for row in (r for r, b in zip(rows, bad) if b):
        res.problems.append(f"{csv_path}: delta {row['delta']}: {row['error'] or 'non-finite value'}")
    ref_path = ref_stem.with_suffix(".csv") if ref_stem else None
    if ref_path is not None and ref_path.exists():
        bad |= _compare_csv(data, ref_path.read_bytes(), res, f"{csv_path} vs {ref_path.name}")
    res.failed += int(bad.sum())

    if digests is not None:
        previous = digests.record(key, hashlib.sha256(data).hexdigest())
        if previous is not None:
            res.problems.append(f"{csv_path}: not byte-identical to an earlier run of the same code and seed")
    return res


def check_design(json_path, ref_stem: Path | None) -> CheckResult:
    """One operation: a finite (K+1, Lw) filter within tolerance of the reference."""
    res = CheckResult(attempted=1)
    try:
        payload = json.loads(Path(json_path).read_text())
        w = np.asarray(payload["w"], dtype=float)
        diag = payload["diagnostics"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        res.fail(1, f"{json_path}: {exc}")
        return res
    if w.shape != (payload.get("K", -2) + 1, payload.get("Lw", -1)):
        res.fail(1, f"{json_path}: taps shape {w.shape} does not match K and Lw")
        return res
    if not (np.all(np.isfinite(w)) and all(math.isfinite(v) for v in diag.values())):
        res.fail(1, f"{json_path}: non-finite taps or diagnostics")
        return res
    ref_path = ref_stem.with_suffix(".design.json") if ref_stem else None
    if ref_path is not None and ref_path.exists():
        ref = json.loads(ref_path.read_text())
        res.deviation = Deviation(byte_identical=Path(json_path).read_bytes() == ref_path.read_bytes())
        ref_w = np.asarray(ref["w"], dtype=float)
        if ref_w.shape != w.shape or sorted(ref["diagnostics"]) != sorted(diag):
            res.fail(1, f"{json_path}: layout differs from reference {ref_path.name}")
            return res
        off = res.deviation.add(w, ref_w).any()
        for name, value in ref["diagnostics"].items():
            off |= bool(res.deviation.add([diag[name]], [value]).any())
        if off:
            res.fail(1, f"{json_path}: outside tolerance of {ref_path.name}")
    return res


def read_wav(path) -> np.ndarray:
    _, data = wavfile.read(str(path))
    return np.asarray(data, dtype=float)


def wav_fingerprint(directory) -> dict:
    """SHA-256 and every WAV_STRIDE-th sample of each simulate output."""
    out = {}
    for name in WAV_NAMES:
        path = Path(directory) / f"{name}.wav"
        out[f"{name}.sha256"] = np.array(hashlib.sha256(path.read_bytes()).hexdigest())
        out[name] = read_wav(path)[::WAV_STRIDE]
    return out


def check_simulate(directory, ref_stem: Path | None) -> CheckResult:
    """One operation: all WAVs present and finite, within tolerance of the reference."""
    res = CheckResult(attempted=1)
    directory = Path(directory)
    try:
        signals = {name: read_wav(directory / f"{name}.wav") for name in WAV_NAMES}
    except (OSError, ValueError) as exc:
        res.fail(1, f"{directory}: {exc}")
        return res
    if not all(np.all(np.isfinite(s)) and s.size for s in signals.values()):
        res.fail(1, f"{directory}: empty or non-finite WAV")
        return res
    ref_path = ref_stem.with_suffix(".sim.npz") if ref_stem else None
    if ref_path is not None and ref_path.exists():
        res.deviation = Deviation()
        off = False
        with np.load(ref_path, allow_pickle=False) as ref:
            for name, sig in signals.items():
                sha = hashlib.sha256((directory / f"{name}.wav").read_bytes()).hexdigest()
                res.deviation.byte_identical &= sha == str(ref[f"{name}.sha256"])
                sub = sig[::WAV_STRIDE]
                if sub.shape != ref[name].shape:
                    off = True
                    continue
                off |= bool(res.deviation.add(sub, ref[name]).any())
        if off:
            res.fail(1, f"{directory}: outside tolerance of {ref_path.name}")
    return res


def compare_rows(csv_path, other_csv_path) -> CheckResult:
    """Deviation of one sweep CSV from another; problems only, no operations."""
    res = CheckResult()
    try:
        _compare_csv(Path(csv_path).read_bytes(), Path(other_csv_path).read_bytes(), res,
                     f"{csv_path} vs {other_csv_path}")
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        res.problems.append(f"{csv_path}: {exc}")
    return res


class DigestBook:
    """SHA-256 of every sweep CSV, keyed by source digest, config and seed.

    Persisted in the checkout's output directory, so the second run of a
    seed with the same code checks that the CSV is byte-identical.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        try:
            self._book = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self._book = {}

    def record(self, key: str, digest: str) -> str | None:
        """Store the digest; return the earlier one if it differs."""
        previous = self._book.setdefault(key, digest)
        return previous if previous != digest else None

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self._book, indent=1, sort_keys=True))
