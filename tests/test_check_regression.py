"""Tests for the table-driven benchmark regression checker
(``benchmarks/perf/check_regression.py``), fed synthetic reports."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _PATH)
check_regression = importlib.util.module_from_spec(_spec)
# Registered first: the module's dataclass resolves its annotations
# through sys.modules.
sys.modules[_spec.name] = check_regression
_spec.loader.exec_module(check_regression)


def solve_report(solve_ms):
    return {"backends": {"batched": {"lm_solve": {"stage_ms": {"solve_ms": solve_ms}}}}}


def serve_report(wps):
    return {
        "shards": {
            "points": [
                {"num_shards": 2, "backend": "process", "wall_throughput_wps": 1.0},
                {"num_shards": 1, "backend": "thread", "wall_throughput_wps": wps},
            ]
        }
    }


def policy_report(saving):
    return {"policy": {"mean_energy_saving": saving, "digest": "abc"}}


def portfolio_report(energy, dominates=True):
    return {
        "fleets": [
            {"label": "single", "energy_j": 0.1, "reconfig_energy_j": 0.0},
            {"label": "portfolio-marginal", "energy_j": energy, "reconfig_energy_j": 0.5},
        ],
        "portfolio_dominates_single": dominates,
    }


# (check, report factory, baseline value, value within budget, regressed value)
ROWS = [
    ("solve", solve_report, 10.0, 12.0, 13.0),
    ("serve", serve_report, 100.0, 80.0, 70.0),
    ("policy", policy_report, 0.05, 0.04, 0.02),
    ("portfolio", portfolio_report, 1.5, 1.9, 2.5),
]


def run(tmp_path, capsys, check, baseline, current, *extra):
    base = tmp_path / "baseline.json"
    cur = tmp_path / "current.json"
    base.write_text(json.dumps(baseline))
    cur.write_text(json.dumps(current))
    code = check_regression.main(
        [check, "--baseline", str(base), "--current", str(cur), *extra]
    )
    return code, capsys.readouterr().out


@pytest.mark.parametrize("check,build,base,within,regressed", ROWS)
class TestRows:
    def test_unchanged_is_quiet(self, tmp_path, capsys, check, build, base, within, regressed):
        code, out = run(tmp_path, capsys, check, build(base), build(base))
        assert code == 0 and "::warning" not in out

    def test_move_within_budget_is_quiet(
        self, tmp_path, capsys, check, build, base, within, regressed
    ):
        code, out = run(tmp_path, capsys, check, build(base), build(within))
        assert code == 0 and "::warning" not in out

    def test_regression_warns(self, tmp_path, capsys, check, build, base, within, regressed):
        code, out = run(tmp_path, capsys, check, build(base), build(regressed))
        assert code == 0 and f"::warning title={check} regression::" in out

    def test_threshold_flag_overrides_default(
        self, tmp_path, capsys, check, build, base, within, regressed
    ):
        code, out = run(
            tmp_path, capsys, check, build(base), build(regressed), "--threshold", "10"
        )
        assert code == 0 and "::warning" not in out

    def test_missing_section_skips_with_warning(
        self, tmp_path, capsys, check, build, base, within, regressed
    ):
        section = check_regression.CHECKS[check].section
        code, out = run(tmp_path, capsys, check, build(base), {section: None})
        assert code == 0
        assert out.startswith(f"::warning::{check} check: a report has no")

    def test_malformed_report_exits_two(
        self, tmp_path, capsys, check, build, base, within, regressed
    ):
        section = check_regression.CHECKS[check].section
        code, out = run(tmp_path, capsys, check, build(base), {section: {"x": 1}})
        assert code == 2 and out.startswith("::error::")


def test_unreadable_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code = check_regression.main(
        ["solve", "--baseline", str(missing), "--current", str(missing)]
    )
    assert code == 2
    assert capsys.readouterr().out.startswith("::error::")


def test_lost_domination_warns(tmp_path, capsys):
    code, out = run(
        tmp_path,
        capsys,
        "portfolio",
        portfolio_report(1.5),
        portfolio_report(1.5, dominates=False),
    )
    assert code == 0
    assert "::warning::portfolio check: portfolio_dominates_single no longer holds" in out
