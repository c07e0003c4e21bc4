"""Sharded serving: shared-nothing shards behind a fleet coordinator.

One :class:`~repro.serve.service.LocalizationService` is a single EDF
queue over one session set — a *shard*. This module scales the tier out
by running N shards side by side, each an independent shared-nothing
service with its own scheduler, admission regimes, virtual clock, seeded
arrival streams, engine memo, and plan caches:

* **Placement** is consistent hashing of the global session id onto a
  ring of shard virtual nodes (:class:`HashRing`), with bounded loads:
  no shard takes more than ``ceil(sessions / shards)``. Removing a
  shard — drain or failure — moves that shard's sessions, each to a
  deterministic surviving shard, plus at most a cap's worth of overflow
  rebalancing; everyone else stays put.
* **Execution**: every shard's event loop runs on its own coordinator
  thread, and each shard carries its own execution backend
  (:mod:`repro.serve.backend`). With ``backend="process"`` the NLS
  numerics of different shards run in different OS processes — the
  fleet finally uses all host cores — while the thread backend remains
  the byte-exact small-scale oracle.
* **Correctness anchor**: because shards share nothing, an N-shard fleet
  run over a session set *is* the union of N single-shard runs — each
  shard's ``SERVE_METRICS.json`` is byte-identical to running its
  session slice through a standalone service, regardless of backend or
  worker count. The merged fleet metrics are a fold of the shards'
  telemetry plus their per-shard dicts (:func:`merge_shard_metrics`).
"""

from __future__ import annotations

import bisect
import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import reduce
from pathlib import Path

from repro.engine import Engine
from repro.errors import ConfigurationError, ServeError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import CLOCK_VIRTUAL, Trace
from repro.serve.loadgen import LoadProfile
from repro.serve.service import LocalizationService, ServeReport
from repro.serve.telemetry import METRICS_SCHEMA_VERSION, Telemetry, export_metrics

DEFAULT_VNODES = 64


def _ring_hash(key: str) -> int:
    """Stable 64-bit ring position (sha256 prefix; never Python hash())."""
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


class HashRing:
    """Consistent hashing of session ids onto shards.

    Each shard contributes ``vnodes`` points; a session lands on the
    first point clockwise from its own hash. The property the drain
    logic leans on: removing one shard's points reassigns only the keys
    that mapped to them.
    """

    def __init__(self, shard_ids: list[int], vnodes: int = DEFAULT_VNODES) -> None:
        if not shard_ids:
            raise ConfigurationError("a hash ring needs at least one shard")
        if vnodes < 1:
            raise ConfigurationError("vnodes must be >= 1")
        self._points = sorted(
            (_ring_hash(f"shard:{sid}:vnode:{v}"), sid)
            for sid in set(shard_ids)
            for v in range(vnodes)
        )

    def preference(self, session_id: int):
        """Distinct shards in clockwise order from the session's point.

        The first element is the session's home shard; the rest are its
        deterministic overflow order for bounded-load placement.
        """
        probe = (_ring_hash(f"session:{session_id}"), -1)
        start = bisect.bisect_right(self._points, probe)
        seen: set[int] = set()
        for offset in range(len(self._points)):
            shard = self._points[(start + offset) % len(self._points)][1]
            if shard not in seen:
                seen.add(shard)
                yield shard

    def assign(self, session_id: int) -> int:
        """The shard owning ``session_id`` (first point clockwise)."""
        return next(self.preference(session_id))


@dataclass(frozen=True)
class ShardSpec:
    """One shard's share of the fleet: sessions and instances."""

    shard_id: int
    session_ids: tuple[int, ...]
    num_instances: int


def plan_shards(
    profile: LoadProfile,
    num_shards: int,
    drained: frozenset[int] | set[int] = frozenset(),
    vnodes: int = DEFAULT_VNODES,
) -> tuple[ShardSpec, ...]:
    """Deterministic fleet plan: session placement + instance split.

    Placement is consistent hashing **with bounded loads**: each session
    goes to its home shard (first ring point clockwise) unless that
    shard is already at the ``ceil(sessions / shards)`` cap, in which
    case it walks the ring to the next shard with room. The cap matters
    because the slowest shard bounds the fleet's wall clock — pure
    consistent hashing over a handful of keys routinely lands 40% of
    them on one shard, capping multicore speedup well below N.

    ``drained`` shards are excluded from the ring, so their sessions
    rehash onto survivors; every other session keeps its shard unless
    the tighter per-survivor cap forces a bounded number of overflow
    moves. The profile's instances are spread round-robin across active
    shards (never below one per shard, so a small pool over many shards
    overprovisions rather than starving a shard).
    """
    if num_shards < 1:
        raise ConfigurationError("need at least one shard")
    active = [sid for sid in range(num_shards) if sid not in set(drained)]
    if not active:
        raise ConfigurationError("cannot drain every shard in the fleet")
    ring = HashRing(active, vnodes=vnodes)
    cap = -(-profile.num_sessions // len(active))  # ceil division
    sessions_by_shard: dict[int, list[int]] = {sid: [] for sid in active}
    for session_id in range(profile.num_sessions):
        for shard_id in ring.preference(session_id):
            if len(sessions_by_shard[shard_id]) < cap:
                sessions_by_shard[shard_id].append(session_id)
                break
    base, remainder = divmod(profile.num_instances, len(active))
    return tuple(
        ShardSpec(
            shard_id=sid,
            session_ids=tuple(sessions_by_shard[sid]),
            num_instances=max(1, base + (1 if index < remainder else 0)),
        )
        for index, sid in enumerate(active)
    )


def shard_service(
    profile: LoadProfile,
    spec: ShardSpec,
    engine=None,
    fidelity: str = "analytical",
    backend: str = "thread",
    workers: int | None = None,
) -> LocalizationService:
    """The standalone service equivalent of one fleet shard.

    Both the coordinator and the union-equivalence tests build shards
    through here, so "fleet shard" and "single-shard run" are the same
    object by construction.
    """
    return LocalizationService(
        replace(profile, num_instances=spec.num_instances),
        engine=engine if engine is not None else Engine(use_disk=False),
        fidelity=fidelity,
        backend=backend,
        workers=workers,
        session_ids=spec.session_ids,
        shard_id=spec.shard_id,
    )


@dataclass
class FleetReport:
    """Merged outcome of one sharded run (plus every shard's report)."""

    profile: LoadProfile
    specs: tuple[ShardSpec, ...]
    shard_reports: list[ServeReport]
    metrics: dict  # merged + per-shard; deterministic
    wall_seconds: float

    def write_metrics(self, path: str | Path) -> Path:
        return export_metrics(self.metrics, path)

    def merged_trace(self) -> Trace:
        """All shards' virtual-time spans on one trace, tagged by shard.

        Spans are concatenated in shard order, so the export is
        byte-identical across repeats and backends like its inputs.
        """
        trace = Trace(clock=CLOCK_VIRTUAL, name=f"serve:{self.profile.name}:fleet")
        for spec, report in zip(self.specs, self.shard_reports):
            if report is None or report.trace is None:
                continue
            trace.spans.extend(
                replace(span, attributes={**span.attributes, "shard": spec.shard_id})
                for span in report.trace.spans
            )
        return trace

    def write_trace(self, path: str | Path) -> Path:
        return self.merged_trace().export_jsonl(path)

    def write_chrome_trace(self, path: str | Path) -> Path:
        return self.merged_trace().export_chrome(path)

    def to_registry(self) -> MetricsRegistry:
        """Fleet-level counters/gauges/histograms as a
        :class:`repro.obs.MetricsRegistry` (canonical OBS_METRICS.json):
        the shards' folded telemetry plus the shard count."""
        registry = fold_telemetry(self.shard_reports).to_registry()
        registry.gauge("serve_num_shards", "shards in the fleet").set(
            self.metrics["fleet"]["num_shards"]
        )
        return registry

    def write_obs_metrics(self, path: str | Path) -> Path:
        return self.to_registry().export_json(path)

    def render(self) -> str:
        totals = self.metrics["totals"]
        latency = self.metrics["latency_ms"]
        fleet = self.metrics["fleet"]
        drained = (
            f" (drained: {fleet['drained']})" if fleet["drained"] else ""
        )
        lines = [
            f"== serve fleet: {self.profile.name} ==",
            (
                f"shards {len(self.specs)} of {fleet['num_shards']}{drained}  "
                f"sessions {self.profile.num_sessions}  "
                f"instances {self.profile.num_instances}  seed {self.profile.seed}"
            ),
        ]
        for spec, report in zip(self.specs, self.shard_reports):
            if report is None:
                lines.append(
                    f"  shard {spec.shard_id}: 0 sessions (empty slice)"
                )
                continue
            shard_totals = report.metrics["totals"]
            lines.append(
                f"  shard {spec.shard_id}: {len(spec.session_ids)} sessions on "
                f"{spec.num_instances} instance(s)  "
                f"served {shard_totals['windows_served']}  "
                f"shed {shard_totals['windows_shed']}  "
                f"p99 {report.metrics['latency_ms']['p99_ms']:.2f} ms"
            )
        lines += [
            (
                f"served {totals['windows_served']}  shed {totals['windows_shed']}  "
                f"degraded {totals['windows_degraded']}  "
                f"deadline-missed {totals['deadline_misses']}  "
                f"errors {totals['errors']}"
            ),
            (
                f"latency p50 {latency['p50_ms']:.2f} ms  "
                f"p95 {latency['p95_ms']:.2f} ms  p99 {latency['p99_ms']:.2f} ms"
            ),
            (
                f"throughput {totals['throughput_wps']:.1f} windows/s over "
                f"{totals['makespan_s']:.2f} virtual s  "
                f"(wall {self.wall_seconds:.2f} s)"
            ),
            f"energy {totals['energy_j']:.3f} J across the fleet",
        ]
        return "\n".join(lines)


def fold_telemetry(shard_reports: list[ServeReport | None]) -> Telemetry:
    """The shards' live telemetry folded into one fleet-level value."""
    return reduce(
        Telemetry.merge,
        (report.telemetry for report in shard_reports if report is not None),
        Telemetry(),
    )


def merge_shard_metrics(
    shard_reports: list[ServeReport],
    profile: LoadProfile,
    num_shards: int,
    drained: frozenset[int] | set[int] = frozenset(),
) -> dict:
    """Fold per-shard reports into one fleet-level metrics dict.

    The telemetry sections (``totals``/``latency_ms``/``queue``/...) are
    the shards' folded :class:`Telemetry` through the same serializer a
    single service uses. Only the fleet-only sections are assembled
    here: the shared run identity, scheduler and cache sums, instances
    tagged by shard, the ``fleet`` summary, and the full per-shard dicts
    under ``"shards"``. Pure and deterministic: merging the reports of
    N standalone shard runs gives the byte-identical fleet artifact.
    """
    if not shard_reports:
        raise ServeError("cannot merge zero shard metric sets")
    shard_metrics = [report.metrics for report in shard_reports]

    def total(section: str, key: str) -> int:
        return sum(m[section][key] for m in shard_metrics)

    first = shard_metrics[0]
    return {
        **fold_telemetry(shard_reports).as_dict(),
        "schema": METRICS_SCHEMA_VERSION,
        "profile": asdict(profile),
        "fidelity": first["fidelity"],
        "design": first["design"],
        # Each shard solves its own instance slice; the fleet-level view
        # is the merged "configs" section (and the per-shard solutions
        # under "shards"), so only the forecast name is lifted here.
        "portfolio": {"name": first["portfolio"]["name"]},
        # Every shard resolves the same frozen artifact (the profile
        # names it), so lifting the first shard's identity is exact.
        "policy": first["policy"],
        "scheduler": {
            **{
                key: total("scheduler", key)
                for key in ("submitted", "accepted", "degraded", "shed")
            },
            "max_queue": profile.max_queue,
            "backpressure": profile.backpressure,
            "batch_size": profile.batch_size,
        },
        "instances": [
            {"shard_id": m["shard"]["shard_id"], **entry}
            for m in shard_metrics
            for entry in m["instances"]
        ],
        "cache": {
            key: total("cache", key) for key in ("memo_hits", "distinct_artifacts")
        },
        "fleet": {
            "num_shards": num_shards,
            "drained": sorted(drained),
            "shards": [
                {
                    "shard_id": m["shard"]["shard_id"],
                    "session_ids": m["shard"]["session_ids"],
                    "num_instances": m["profile"]["num_instances"],
                    "windows_served": m["totals"]["windows_served"],
                    "makespan_s": m["totals"]["makespan_s"],
                    "throughput_wps": m["totals"]["throughput_wps"],
                }
                for m in shard_metrics
            ],
        },
        "shards": shard_metrics,
    }


class FleetCoordinator:
    """Launches shards, runs them side by side, merges their telemetry.

    ``engine_factory`` builds one engine *per shard* (default: a fresh
    in-memory engine) — shards must share nothing, or their cache
    counters would depend on cross-shard timing.
    """

    def __init__(
        self,
        profile: LoadProfile,
        num_shards: int,
        backend: str = "thread",
        workers: int | None = None,
        fidelity: str = "analytical",
        drained: frozenset[int] | set[int] = frozenset(),
        engine_factory=None,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        self.profile = profile
        self.num_shards = num_shards
        self.backend = backend
        self.workers = workers
        self.fidelity = fidelity
        self.drained = frozenset(drained)
        self.engine_factory = engine_factory or (lambda: Engine(use_disk=False))
        self.specs = plan_shards(
            profile, num_shards, drained=self.drained, vnodes=vnodes
        )

    def run(self) -> FleetReport:
        started = time.perf_counter()
        # Build + fork sequentially on the calling thread (fork safety),
        # then run every shard's event loop on its own thread. Thread
        # backends stay GIL-bound (the oracle); process backends put each
        # shard's numerics on separate cores.
        live: list[tuple[ShardSpec, LocalizationService]] = []
        for spec in self.specs:
            if not spec.session_ids:
                continue
            service = shard_service(
                self.profile,
                spec,
                engine=self.engine_factory(),
                fidelity=self.fidelity,
                backend=self.backend,
                workers=self.workers,
            )
            service.prepare()
            live.append((spec, service))
        if not live:
            raise ServeError("fleet plan left every shard empty")

        with ThreadPoolExecutor(max_workers=len(live)) as executor:
            futures = [
                (spec, executor.submit(service.run)) for spec, service in live
            ]
            reports_by_shard: dict[int, ServeReport] = {}
            errors = []
            for spec, future in futures:
                try:
                    reports_by_shard[spec.shard_id] = future.result()
                except Exception as error:  # noqa: BLE001 — reported below
                    errors.append((spec.shard_id, error))
        if errors:
            detail = "; ".join(f"shard {sid}: {err}" for sid, err in errors)
            raise ServeError(f"fleet run failed: {detail}")

        shard_reports = [
            reports_by_shard.get(spec.shard_id) for spec in self.specs
        ]
        merged = merge_shard_metrics(
            [r for r in shard_reports if r is not None],
            self.profile,
            self.num_shards,
            drained=self.drained,
        )
        return FleetReport(
            profile=self.profile,
            specs=self.specs,
            shard_reports=shard_reports,
            metrics=merged,
            wall_seconds=time.perf_counter() - started,
        )


def run_fleet(
    profile: LoadProfile,
    num_shards: int,
    backend: str = "thread",
    workers: int | None = None,
    fidelity: str = "analytical",
    drained: frozenset[int] | set[int] = frozenset(),
    engine_factory=None,
) -> FleetReport:
    """Convenience wrapper: plan, launch, run, merge."""
    return FleetCoordinator(
        profile,
        num_shards,
        backend=backend,
        workers=workers,
        fidelity=fidelity,
        drained=drained,
        engine_factory=engine_factory,
    ).run()
