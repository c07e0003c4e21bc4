"""Process-local metrics: counters, gauges, log-binned histograms.

This is the single home of the fixed-bin log-scale latency histogram
(previously a private implementation inside ``repro.serve.telemetry``;
the serve tier now re-exports it from here). A :class:`MetricsRegistry`
collects named metrics, dumps them in Prometheus text-exposition format
for eyeballing/scraping, and exports a canonical ``OBS_METRICS.json``
(sorted keys, fixed layout) so two deterministic runs agree iff their
files are byte-identical. Stdlib only.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path

# Log-spaced latency bins: 0.05 ms .. ~53 s, 20 bins per decade. Fixed
# edges (rather than adaptive ones) keep histograms mergeable and the
# JSON export stable across runs.
BIN_FLOOR_S = 5e-5
BINS_PER_DECADE = 20
NUM_BINS = 120


def bin_index(seconds: float) -> int:
    if seconds <= BIN_FLOOR_S:
        return 0
    index = int(math.floor(math.log10(seconds / BIN_FLOOR_S) * BINS_PER_DECADE)) + 1
    return min(index, NUM_BINS - 1)


def bin_upper_edge_s(index: int) -> float:
    if index == 0:
        return BIN_FLOOR_S
    return BIN_FLOOR_S * 10.0 ** (index / BINS_PER_DECADE)


class LatencyHistogram:
    """Fixed-bin log-scale histogram with exact count/mean/max tracking.

    Percentiles are reported as the upper edge of the bin containing the
    requested rank — a deterministic, merge-friendly estimate whose
    relative error is bounded by the bin width (~12%).
    """

    def __init__(self) -> None:
        self.counts = [0] * NUM_BINS
        self.total = 0
        self.sum_s = 0.0
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        self.counts[bin_index(seconds)] += 1
        self.total += 1
        self.sum_s += seconds
        self.max_s = max(self.max_s, seconds)

    def percentile(self, q: float) -> float:
        """Latency (seconds) at quantile ``q`` in [0, 1]."""
        if self.total == 0:
            return 0.0
        # Clamp to rank >= 1: ceil(0 * total) is 0, and a rank-0 probe
        # would satisfy ``seen >= rank`` on the very first (possibly
        # empty) bin, reporting the bin floor instead of the smallest
        # observed bin.
        rank = max(1, math.ceil(q * self.total))
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return min(bin_upper_edge_s(index), self.max_s)
        return self.max_s

    @property
    def mean_s(self) -> float:
        return self.sum_s / self.total if self.total else 0.0

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram (fixed bins make this exact
        for counts/max and exact-in-float for the mean). Returns self."""
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum_s += other.sum_s
        self.max_s = max(self.max_s, other.max_s)
        return self

    def as_dict(self) -> dict:
        return {
            "count": self.total,
            "mean_ms": self.mean_s * 1e3,
            "max_ms": self.max_s * 1e3,
            "p50_ms": self.percentile(0.50) * 1e3,
            "p95_ms": self.percentile(0.95) * 1e3,
            "p99_ms": self.percentile(0.99) * 1e3,
            # Sparse bin dump (index -> count) so two runs can be diffed
            # bin by bin, not just at the summary percentiles.
            "bins": {str(i): c for i, c in enumerate(self.counts) if c},
        }


class Counter:
    """A monotonically increasing value."""

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down."""

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class MetricsRegistry:
    """Named counters/gauges/histograms for one process or one run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name, help)
            return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name, help)
            return metric

    def histogram(self, name: str) -> LatencyHistogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = LatencyHistogram()
            return metric

    def register_histogram(self, name: str, histogram: LatencyHistogram) -> None:
        """Attach an externally owned histogram under ``name`` (the serve
        telemetry snapshots its live histograms this way)."""
        with self._lock:
            self._histograms[name] = histogram

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def to_prometheus(self) -> str:
        """Prometheus text-exposition dump of every metric."""
        lines: list[str] = []
        for name, counter in sorted(self._counters.items()):
            if counter.help:
                lines.append(f"# HELP {name} {counter.help}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {counter.value:g}")
        for name, gauge in sorted(self._gauges.items()):
            if gauge.help:
                lines.append(f"# HELP {name} {gauge.help}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {gauge.value:g}")
        for name, hist in sorted(self._histograms.items()):
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for index, count in enumerate(hist.counts):
                if not count:
                    continue
                cumulative += count
                edge = bin_upper_edge_s(index)
                lines.append(f'{name}_bucket{{le="{edge:.6g}"}} {cumulative}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {hist.total}')
            lines.append(f"{name}_sum {hist.sum_s:g}")
            lines.append(f"{name}_count {hist.total}")
        return "\n".join(lines) + "\n"

    def export_json(self, path: str | Path) -> Path:
        """Write the canonical ``OBS_METRICS.json`` (byte-stable for a
        deterministic run: sorted keys, fixed layout)."""
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n")
        return path
