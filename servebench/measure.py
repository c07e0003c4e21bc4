"""Sampling, host clocks, virtual metrics and the correctness gate.

One *sample* builds the workload's service(s) on fresh in-memory
engines (set-up) and serves the whole workload once (serve). Set-up
ends the moment the last ``LocalizationService.prepare()`` returns; a
fleet coordinator prepares its shards inside ``run()``, so that is the
only split point every runner shares.

Three clocks, never mixed in one metric:

* host wall (``perf_counter``): ``setup_s``, ``host_wps``;
* host CPU (``os.times``, this process plus reaped worker children):
  ``serve_cpu_ms_per_window``, ``host.setup_cpu_s``;
* virtual (the service's simulated seconds, read from its spans and
  metrics): latency, energy, drift, rates. These are deterministic per
  workload and seed, and the gate checks they are byte-identical across
  every sample of a run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from servebench import tracer as layer_tracer
from servebench.workloads import make_workload

WALL, CPU, VIRTUAL, MEM = "host-wall", "host-cpu", "virtual", "host-mem"

# (name, unit, clock). The end-to-end set is what --trace 0 reports; the
# per-layer set is what --trace 1 reports. BENCHMARK.json lists the same
# names and units (the self-test checks that).
END_TO_END = (
    ("setup_s", "s", WALL),
    ("host_wps", "windows/s", WALL),
    ("serve_cpu_ms_per_window", "ms", CPU),
    ("peak_rss_mb", "MB", MEM),
    ("virtual_p50_ms", "ms", VIRTUAL),
    ("virtual_p95_ms", "ms", VIRTUAL),
    ("energy_j", "J", VIRTUAL),
    ("drift_m", "m", VIRTUAL),
    ("served_rate", "fraction", VIRTUAL),
    ("on_time_rate", "fraction", VIRTUAL),
)
PER_LAYER = (
    ("data.make_sequence.s", "s", WALL),
    ("data.make_sequence.calls", "count", WALL),
    ("engine.run.calls", "count", WALL),
    ("engine.memo_hit_ratio", "fraction", WALL),
    ("portfolio.solve.s", "s", WALL),
    ("portfolio.route.s", "s", WALL),
    ("portfolio.route.calls", "count", WALL),
    ("slam.step.s", "s", WALL),
    ("slam.step.calls", "count", WALL),
    ("slam.frontend.s", "s", WALL),
    ("slam.lm.s", "s", WALL),
    ("slam.lm.calls", "count", WALL),
    ("slam.lm.iterations", "count", WALL),
    ("slam.lm.accept_ratio", "fraction", WALL),
    ("slam.build.s", "s", WALL),
    ("slam.cost.s", "s", WALL),
    ("slam.cost.calls", "count", WALL),
    ("slam.marginalize.s", "s", WALL),
    ("slam.marginalize.calls", "count", WALL),
    ("linalg.solve.s", "s", WALL),
    ("linalg.solve.calls", "count", WALL),
    ("linalg.plans_built", "count", WALL),
    ("runtime.decide.s", "s", WALL),
    ("runtime.decide.calls", "count", WALL),
    ("serve.admit.s", "s", WALL),
    ("serve.admit.calls", "count", WALL),
    ("serve.shed.s", "s", WALL),
    ("serve.shed.calls", "count", WALL),
    ("serve.charge.s", "s", WALL),
    ("serve.dispatch.s", "s", WALL),
    ("serve.dispatch.calls", "count", WALL),
    ("serve.dispatch.windows_per_call", "windows", WALL),
    ("serve.wire.bytes_per_window", "bytes", WALL),
    ("serve.loop.self_s", "s", WALL),
    ("serve.fleet.merge.s", "s", WALL),
    ("serve.fleet.shard_skew", "ratio", WALL),
    ("serve.queue_wait_p50_ms", "ms", VIRTUAL),
    ("serve.utilization", "fraction", VIRTUAL),
    ("serve.batch_occupancy", "windows", VIRTUAL),
    ("serve.degraded_rate", "fraction", VIRTUAL),
    ("host.setup_cpu_s", "s", CPU),
    ("host.steal_share", "fraction", WALL),
    ("tracer.overhead_ratio", "ratio", WALL),
)

MIN_SAMPLES = 2  # per run; a traced run alternates untraced and traced
HARD_STOP_S = 140.0  # never start a sample after this (exit within 180 s)


class GateError(Exception):
    """The correctness gate failed; the message says which identity."""


@dataclass
class Sample:
    setup_s: float
    serve_s: float
    setup_cpu_s: float
    serve_cpu_s: float
    submitted: int
    errors: int
    virtual: dict
    digest: str
    traced: bool
    layers: dict = field(default_factory=dict)


class _SetupClock:
    """Stamps the wall and CPU clocks when a service's first
    ``LocalizationService.prepare()`` returns; the last stamp ends
    set-up (``run()`` calls ``prepare()`` again, as a no-op)."""

    def __enter__(self) -> "_SetupClock":
        from repro.serve.service import LocalizationService

        self._owner = LocalizationService
        self._original = LocalizationService.__dict__["prepare"]
        self.stamp = None
        original = self._original
        prepared: set[int] = set()

        def prepare(service):
            original(service)
            if id(service) not in prepared:
                prepared.add(id(service))
                self.stamp = (perf_counter(), os.times())

        LocalizationService.prepare = prepare
        return self

    def __exit__(self, *exc) -> None:
        self._owner.prepare = self._original


def _cpu(times) -> float:
    return times.user + times.system


def _children_cpu(times) -> float:
    return times.children_user + times.children_system


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: an actual sample, no interpolation."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _strip_cache(value):
    """The metrics dict without its engine cache counters."""
    if isinstance(value, dict):
        return {k: _strip_cache(v) for k, v in value.items() if k != "cache"}
    if isinstance(value, list):
        return [_strip_cache(v) for v in value]
    return value


def _reports(report) -> list:
    """The per-service reports behind a service or fleet report."""
    shard_reports = getattr(report, "shard_reports", None)
    if shard_reports is None:
        return [report]
    return [r for r in shard_reports if r is not None]


def virtual_metrics(report) -> tuple[dict, list[float], str]:
    """Virtual metrics of one served run, its exact latencies, and the
    digest of everything virtual it produced."""
    metrics = report.metrics
    ready: dict[tuple, float] = {}
    waits: list[float] = []
    done: dict[tuple, float] = {}
    for service_report in _reports(report):
        for span in service_report.trace.spans:
            key = (span.attributes.get("session"), span.attributes.get("frame"))
            if span.name == "queue_wait":
                ready[key] = span.start_s
                waits.append(span.duration_s)
            elif span.name == "service":
                done[key] = span.start_s + span.duration_s
    latencies = [done[key] - ready[key] for key in sorted(done)]
    totals, scheduler = metrics["totals"], metrics["scheduler"]
    submitted = scheduler["submitted"]
    served = totals["windows_served"]
    drift_sum = sum(s["mean_drift_m"] * s["windows_served"] for s in metrics["sessions"])
    instances = metrics["instances"]
    virtual = {
        "virtual_p50_ms": _percentile(latencies, 0.50) * 1e3,
        "virtual_p95_ms": _percentile(latencies, 0.95) * 1e3,
        "energy_j": totals["energy_j"] + totals["reconfig_energy_j"],
        "drift_m": drift_sum / served,
        "served_rate": served / submitted,
        "on_time_rate": (served - totals["deadline_misses"]) / submitted,
        "serve.queue_wait_p50_ms": _percentile(waits, 0.50) * 1e3,
        "serve.utilization": sum(i["utilization"] for i in instances) / len(instances),
        "serve.batch_occupancy": metrics["batches"]["mean_occupancy"],
        "serve.degraded_rate": scheduler["degraded"] / submitted,
    }
    canonical = json.dumps(
        {"metrics": _strip_cache(metrics), "latencies": latencies}, sort_keys=True
    )
    return virtual, latencies, hashlib.sha256(canonical.encode()).hexdigest()


def check_identities(report, latencies: list[float]) -> None:
    """The accounting identities every served run must satisfy."""
    metrics = report.metrics
    totals, scheduler = metrics["totals"], metrics["scheduler"]
    failures = []
    admitted = scheduler["accepted"] + scheduler["degraded"]
    if admitted + scheduler["shed"] != scheduler["submitted"]:
        failures.append(f"accepted+degraded+shed != submitted: {scheduler}")
    if totals["windows_served"] + totals["errors"] != admitted:
        failures.append(
            f"served {totals['windows_served']} + errors {totals['errors']} "
            f"!= dispatched {admitted}"
        )
    if len(latencies) != totals["windows_served"]:
        failures.append(
            f"{len(latencies)} latencies for {totals['windows_served']} served"
        )
    if totals["errors"]:
        failures.append(f"{totals['errors']} errored windows")
    shards = metrics.get("shards")
    if shards is not None:
        for key, merged in totals.items():
            if key in ("shed_fraction", "makespan_s", "throughput_wps"):
                continue
            summed = sum(shard["totals"][key] for shard in shards)
            if not math.isclose(merged, summed, rel_tol=1e-12, abs_tol=0.0):
                failures.append(f"fleet {key} {merged} != shard sum {summed}")
        for key in ("submitted", "accepted", "degraded", "shed"):
            summed = sum(shard["scheduler"][key] for shard in shards)
            if scheduler[key] != summed:
                failures.append(f"fleet {key} {scheduler[key]} != shard sum {summed}")
    if failures:
        raise GateError("; ".join(failures))


def run_sample(workload, tracer=None) -> Sample:
    """Set up and serve the workload once, on the host clocks."""
    from repro.linalg.plan import reset_default_plan_cache

    gc.collect()
    # Every sample starts with no solver plans, as a fresh server does.
    reset_default_plan_cache()
    with _SetupClock() as clock:
        started, cpu_start = perf_counter(), os.times()
        report = workload.serve_once()
        ended, cpu_end = perf_counter(), os.times()
    setup_end, cpu_setup = clock.stamp
    virtual, latencies, digest = virtual_metrics(report)
    check_identities(report, latencies)
    scheduler = report.metrics["scheduler"]
    layers = {}
    if tracer is not None:
        spans = tracer.take()
        layers.update(layer_tracer.setup_layers([s for s in spans if s[1] < setup_end]))
        serve_spans = [s for s in spans if s[1] >= setup_end]
        layers.update(layer_tracer.serve_layers(serve_spans))
        dispatched = sum(s[4][0] for s in serve_spans if s[0] == "serve.dispatch")
        if dispatched != scheduler["accepted"] + scheduler["degraded"]:
            raise GateError(
                f"traced dispatch saw {dispatched} windows, scheduler admitted "
                f"{scheduler['accepted'] + scheduler['degraded']}"
            )
    return Sample(
        setup_s=setup_end - started,
        serve_s=ended - setup_end,
        setup_cpu_s=_cpu(cpu_setup) - _cpu(cpu_start),
        serve_cpu_s=(_cpu(cpu_end) - _cpu(cpu_setup))
        + (_children_cpu(cpu_end) - _children_cpu(cpu_start)),
        submitted=scheduler["submitted"],
        errors=report.metrics["totals"]["errors"],
        virtual=virtual,
        digest=digest,
        traced=tracer is not None,
        layers=layers,
    )


def cpu_jiffies() -> tuple[int, int] | None:
    """``(steal, total)`` jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is KiB on Linux


@dataclass
class RunResult:
    samples: list[Sample]
    metrics: dict  # name -> value, every metric this run measured
    attempted: int
    failed: int


def measure(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    """Warm up, then alternate set-up and serve samples for ``seconds``.

    With ``trace`` every other sample runs under the layer tracer; the
    untraced ones still give the host numbers and the tracer overhead.
    Raises :class:`GateError` when an identity or the determinism check
    fails.
    """
    run_start = perf_counter()
    jiffies_start = cpu_jiffies()
    # Discarded warm-up: imports, lazy module state and the design's
    # reconfiguration table are paid once per process, not per sample.
    run_sample(make_workload(name, seed, tiny=True))
    workload = make_workload(name, seed)
    deadline = perf_counter() + seconds
    samples: list[Sample] = []
    tracer = layer_tracer.LayerTracer()
    while True:
        traced = trace and len(samples) % 2 == 1
        sample_start = perf_counter()
        if traced:
            with tracer:
                samples.append(run_sample(workload, tracer))
        else:
            samples.append(run_sample(workload))
        now = perf_counter()
        took = now - sample_start
        enough = len(samples) >= MIN_SAMPLES
        if now - run_start > HARD_STOP_S or (enough and now + took > deadline):
            break
    check_determinism(samples)
    jiffies_end = cpu_jiffies()
    return RunResult(
        samples=samples,
        metrics=summarize(samples, jiffies_start, jiffies_end),
        attempted=sum(s.submitted for s in samples),
        failed=sum(s.errors for s in samples),
    )


def check_determinism(samples: list[Sample]) -> None:
    """Every sample of a run must produce byte-identical virtual outputs."""
    digests = {s.digest for s in samples}
    if len(digests) != 1:
        raise GateError(f"virtual outputs differ across samples: {sorted(digests)}")


def summarize(samples: list[Sample], jiffies_start, jiffies_end) -> dict:
    """Medians of the host clocks plus the (identical) virtual metrics."""
    plain = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    median = statistics.median
    out = {
        "setup_s": median(s.setup_s for s in plain),
        "host_wps": median(s.submitted / s.serve_s for s in plain),
        "serve_cpu_ms_per_window": median(
            s.serve_cpu_s / s.submitted * 1e3 for s in plain
        ),
        "peak_rss_mb": _peak_rss_mb(),
        "host.setup_cpu_s": median(s.setup_cpu_s for s in plain),
    }
    out.update(samples[0].virtual)
    if jiffies_start and jiffies_end:
        total = jiffies_end[1] - jiffies_start[1]
        out["host.steal_share"] = (
            (jiffies_end[0] - jiffies_start[0]) / total if total else 0.0
        )
    if traced:
        for key in traced[0].layers:
            out[key] = median(s.layers[key] for s in traced)
        out["tracer.overhead_ratio"] = median(
            s.setup_s + s.serve_s for s in traced
        ) / median(s.setup_s + s.serve_s for s in plain)
    return out


def payload(result: RunResult, trace: bool) -> dict:
    """The final JSON object: end-to-end metrics, or per-layer ones."""
    reported = PER_LAYER if trace else END_TO_END
    missing = [name for name, _, _ in reported if name not in result.metrics]
    if missing:
        raise GateError(f"metrics not measured: {missing}")
    return {
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit, _ in reported
        },
    }
