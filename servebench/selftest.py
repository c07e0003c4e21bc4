#!/usr/bin/env python3
"""Seconds-long self-test of the benchmark on tiny workload variants.

Usage, from the root of a checkout::

    python3 servebench/selftest.py

Checks that every metric BENCHMARK.json names is emitted, with its
unit, in both trace modes on every workload; that the layer tracer puts
every patched function back; and that the determinism check fires when
two samples were made from different seeds. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import servebench  # noqa: E402,F401  (host-noise hygiene before numpy loads)
from servebench import measure  # noqa: E402
from servebench.tracer import LayerTracer, current_targets  # noqa: E402
from servebench.workloads import WORKLOADS, make_workload  # noqa: E402


def _declared() -> dict[str, dict[str, str]]:
    """``{"end_to_end"|"per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        group: {entry["name"]: entry["unit"] for entry in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def main() -> int:
    from repro.serve.service import LocalizationService

    declared = _declared()
    before = current_targets()
    prepare_before = LocalizationService.__dict__["prepare"]
    failures: list[str] = []
    for name in WORKLOADS:
        workload = make_workload(name, seed=1, tiny=True)
        jiffies_start = measure.cpu_jiffies()
        plain = measure.run_sample(workload)
        with LayerTracer() as tracer:
            traced = measure.run_sample(workload, tracer)
        # Same seed, traced or not: the gate must pass ...
        measure.check_determinism([plain, traced])
        # ... and a different seed must trip it.
        other = measure.run_sample(make_workload(name, seed=2, tiny=True))
        try:
            measure.check_determinism([plain, other])
            failures.append(f"{name}: determinism check missed a seed change")
        except measure.GateError:
            pass
        result = measure.RunResult(
            samples=[plain, traced],
            metrics=measure.summarize(
                [plain, traced], jiffies_start, measure.cpu_jiffies()
            ),
            attempted=plain.submitted,
            failed=plain.errors,
        )
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            emitted = {
                key: entry["unit"]
                for key, entry in measure.payload(result, trace)["metrics"].items()
            }
            if emitted != declared[group]:
                failures.append(
                    f"{name} trace={int(trace)}: emitted {emitted} "
                    f"!= BENCHMARK.json {declared[group]}"
                )
        print(f"{name}: checked ({plain.submitted} windows per tiny sample)")
    if current_targets() != before:
        failures.append("the tracer left a patched function behind")
    if LocalizationService.__dict__["prepare"] is not prepare_before:
        failures.append("the set-up clock left prepare() patched")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("self-test:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
