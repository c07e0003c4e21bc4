#!/usr/bin/env python
"""Non-gating benchmark regression check: one table, one row per check.

Compares one number of a freshly measured benchmark report against the
committed baseline and emits a GitHub Actions ``::warning::``
annotation — *not* a failure — when it moved the wrong way by more than
the threshold. Wall-clock rows (solve, serve) are noisy on shared
runners; virtual-time rows (policy, portfolio) only move on behaviour
changes. Either way the annotation makes a move loud in the PR checks
without blocking a merge.

Checks (``CHECKS`` below):

* ``solve`` — BENCH_estimator.json, batched ``lm_solve`` solve stage
  [ms], relative, lower is better;
* ``serve`` — BENCH_serve.json, 1-shard thread wall throughput
  [windows/s], relative, higher is better;
* ``policy`` — BENCH_serve.json, learned-policy mean energy saving,
  absolute, higher is better;
* ``portfolio`` — BENCH_portfolio.json, marginal fleet window +
  reconfiguration energy [J], relative, lower is better; also warns
  when the portfolio no longer Pareto-dominates the single config.

A report without the row's section (say, a BENCH_serve.json made
without ``--policy``) gives a ``::warning::`` and no comparison.

Usage::

    PYTHONPATH=src python benchmarks/perf/check_regression.py CHECK \\
        --baseline BASELINE.json --current CURRENT.json [--threshold T]

Always exits 0 unless an input file is missing or malformed (exit 2):
a broken harness should be visible, a changed number should be a
warning.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _serve_throughput(shards: dict) -> float:
    point = next(
        p
        for p in shards["points"]
        if p["num_shards"] == 1 and p["backend"] == "thread"
    )
    return float(point["wall_throughput_wps"])


def _marginal_energy(fleets: list) -> float:
    fleet = next(f for f in fleets if f["label"] == "portfolio-marginal")
    return float(fleet["energy_j"]) + float(fleet["reconfig_energy_j"])


@dataclass(frozen=True)
class Check:
    """One regression row: where the number lives and which way is bad."""

    label: str
    section: str  # top-level report key the extractor reads
    extract: Callable[[object], float]
    higher_is_better: bool
    relative: bool  # relative change vs baseline, else absolute difference
    threshold: float
    must_hold: str = ""  # optional top-level flag that must stay true


CHECKS: dict[str, Check] = {
    "solve": Check(
        "batched solve stage [ms]",
        "backends",
        lambda backends: float(
            backends["batched"]["lm_solve"]["stage_ms"]["solve_ms"]
        ),
        higher_is_better=False,
        relative=True,
        threshold=0.25,
    ),
    "serve": Check(
        "steady serve wall throughput [windows/s]",
        "shards",
        _serve_throughput,
        higher_is_better=True,
        relative=True,
        threshold=0.25,
    ),
    "policy": Check(
        "learned-policy mean energy saving",
        "policy",
        lambda policy: float(policy["mean_energy_saving"]),
        higher_is_better=True,
        relative=False,
        threshold=0.02,
    ),
    "portfolio": Check(
        "portfolio fleet energy [J]",
        "fleets",
        _marginal_energy,
        higher_is_better=False,
        relative=True,
        threshold=0.25,
        must_hold="portfolio_dominates_single",
    ),
}


def compare(name: str, baseline: dict, current: dict, threshold: float) -> list[str]:
    """The lines to print for one check; raises on a malformed report."""
    check = CHECKS[name]
    if not baseline.get(check.section) or not current.get(check.section):
        return [
            f"::warning::{name} check: a report has no {check.section!r} "
            "section; skipping comparison"
        ]
    base = check.extract(baseline[check.section])
    cur = check.extract(current[check.section])
    if check.relative and base <= 0.0:
        return [f"::warning::{name} check: baseline is {base}; skipping comparison"]
    change = (cur - base) / base if check.relative else cur - base
    worse = -change if check.higher_is_better else change
    shown = f"{change:+.1%}" if check.relative else f"{change:+.4g}"
    summary = f"{check.label}: baseline {base:.4g}, current {cur:.4g} ({shown})"
    lines = []
    if worse > threshold:
        lines.append(
            f"::warning title={name} regression::{summary} exceeds the "
            f"{threshold:g} budget — investigate before merging"
        )
    else:
        lines.append(summary)
    if check.must_hold and not current.get(check.must_hold, False):
        lines.append(f"::warning::{name} check: {check.must_hold} no longer holds")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=sorted(CHECKS))
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--current", type=Path, required=True)
    parser.add_argument(
        "--threshold",
        type=float,
        help="worst tolerated move the wrong way: a fraction of the "
        "baseline for relative checks, an absolute difference otherwise "
        "(default: the check's own)",
    )
    args = parser.parse_args(argv)
    threshold = (
        CHECKS[args.check].threshold if args.threshold is None else args.threshold
    )
    try:
        lines = compare(
            args.check,
            json.loads(args.baseline.read_text()),
            json.loads(args.current.read_text()),
            threshold,
        )
    except (OSError, KeyError, ValueError, TypeError, StopIteration) as error:
        print(f"::error::{args.check} regression check could not read inputs: {error}")
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
