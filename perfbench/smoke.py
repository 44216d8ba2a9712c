"""Smoke test of the benchmark itself, in seconds.

    python3 perfbench/smoke.py

Runs a tiny config through the end-to-end runner and the traced runner
and checks that every metric BENCHMARK.json names is emitted with its
unit, that no operation failed and that the traced rows match the CLI's.
Exits 0 when all checks pass, 1 otherwise.
"""

import json
import sys

import run

TINY = run.Workload("smoke", (("perfbench/configs/tiny.json", 2),), 1, 2)


def check(trace: int, declared: dict) -> list[str]:
    result, report = run.run(TINY, seed=0, seconds=0.0, trace=trace, out=run.OUT / f"smoke_t{trace}")
    errors = [f"trace {trace}: {p}" for p in report["problems"]]
    metrics = result["metrics"]
    for name, unit in declared.items():
        if name not in metrics:
            errors.append(f"trace {trace}: metric {name} not emitted")
        elif metrics[name]["unit"] != unit:
            errors.append(f"trace {trace}: {name} has unit {metrics[name]['unit']}, declared {unit}")
    extra = set(metrics) - set(declared)
    if extra:
        errors.append(f"trace {trace}: metrics not declared in BENCHMARK.json: {sorted(extra)}")
    if result["failed"] != 0 or not result["correct"]:
        errors.append(f"trace {trace}: failed={result['failed']} correct={result['correct']}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"trace {trace}: result keys {sorted(result)}")
    return errors


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        errors += check(trace, {m["name"]: m["unit"] for m in spec[key]})
    for line in errors:
        print(f"FAIL {line}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
