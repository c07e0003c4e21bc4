#!/usr/bin/env python3
"""Serving benchmark: one command per (workload, seed, trace mode).

Usage, from the root of a checkout::

    python3 servebench/run.py --workload steady --seed 1 --seconds 40 --trace 0

Prints every metric the run measured as ``name value unit clock``, runs
the correctness gate, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
Exit status: 0 on success, 1 when the gate fails, 2 when the program's
source tree is missing or the arguments are bad. See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
sys.path[:0] = [str(ROOT), str(SOURCE)]

import servebench  # noqa: E402,F401  (host-noise hygiene before numpy loads)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SOURCE}", file=sys.stderr)
        return 2

    from servebench.measure import END_TO_END, PER_LAYER, GateError, measure, payload
    from servebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}",
            file=sys.stderr,
        )
        return 2

    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        final = payload(result, bool(args.trace))
    except GateError as error:
        print(f"correctness gate FAILED: {error}", file=sys.stderr)
        # The gate stops the run, so no window counts exist: report the
        # run itself as one failed attempt.
        print(
            json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
        )
        return 1

    samples = result.samples
    traced = sum(1 for s in samples if s.traced)
    print(
        f"== servebench {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(samples) - traced} untraced + {traced} traced samples, "
        f"{samples[0].submitted} windows each =="
    )
    for name, unit, clock in END_TO_END + PER_LAYER:
        if name in result.metrics:
            print(f"{name:36s} {result.metrics[name]:>16.6g} {unit:10s} {clock}")
    print("correctness gate: ok (identities hold, virtual outputs identical)")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
