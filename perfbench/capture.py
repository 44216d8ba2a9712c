"""Capture the reference outputs that benchmark runs are compared against.

    python3 perfbench/capture.py [paper] [desk] [long]

Runs each named workload (all by default) end to end at seed 0 and
stores, per config and command seed, the sweep CSV, the design JSON and
a fingerprint of the simulate WAVs (see checks.py) in
perfbench/reference/.  The references pin the numbers of the commit that
captured them, so rerun this only on purpose, and say why.
"""

import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import run


def capture(name: str) -> bool:
    wl = run.WORKLOADS[name]
    out = run.OUT / f"capture_{name}"
    result, report = run.run(wl, seed=0, seconds=0.0, trace=0, out=out)
    if result["failed"]:
        print(f"{name}: {result['failed']} operations failed; nothing captured", file=sys.stderr)
        print("\n".join(report["problems"]), file=sys.stderr)
        return False
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for it in range(len(report["iterations"])):
        for config, _ in wl.configs:
            cs = run.command_seed(0, it)
            stem = f"{Path(config).stem}_s{cs}"
            ref = checks.reference_stem(config, cs)
            shutil.copyfile(out / f"{stem}.csv", ref.with_suffix(".csv"))
            shutil.copyfile(out / f"{stem}.design.json", ref.with_suffix(".design.json"))
            np.savez_compressed(ref.with_suffix(".sim.npz"), **checks.wav_fingerprint(out / f"{stem}_wavs"))
            print(f"{name}: captured {ref.name}")
    return True


def main(names) -> int:
    names = names or sorted(run.WORKLOADS)
    unknown = set(names) - set(run.WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    return 0 if all([capture(name) for name in names]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
