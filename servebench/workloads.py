"""The benchmark's three workloads, each built from a registered profile.

Every workload keeps the shape of the ``repro.serve.loadgen`` profile it
starts from (arrival discipline, pool, dispatch, admission knobs) and is
resized only along axes that leave that shape intact: session count
and recording length. Set-up cost grows with both, and a KITTI
recording costs several times a EuRoC one; sessions 0-4 replay the five
EuRoC recordings, so ``steady`` and ``overload`` stay at five sessions
and get their window count (>= 200 served, so ``virtual_p95_ms`` has
>= 10 samples beyond it) from longer recordings.

``seed`` is the only input: it becomes the profile seed, which drives
the Poisson arrival streams and the portfolio's traffic forecast. The
recordings do not depend on it, so neither does set-up work.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
POLICY_PATH = REPO_ROOT / "POLICY.json"
WORKLOADS = ("steady", "overload", "fleet")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a profile plus how it is served."""

    name: str
    profile: object  # repro.serve.loadgen.LoadProfile
    backend: str
    workers: int
    # A fleet's shards; empty = one standalone service.
    shards: tuple = ()  # of repro.serve.fleet.ShardSpec

    def serve_once(self):
        """Build the service(s) and serve the workload once; returns the
        service or fleet report. Every build gets fresh in-memory
        engines, so each set-up starts cold. A fleet coordinator
        prepares its shards inside ``run()``; a standalone service is
        prepared first, so ``run()`` times the event loop alone."""
        from repro.engine import Engine
        from repro.serve.fleet import FleetCoordinator
        from repro.serve.service import LocalizationService

        if self.shards:
            coordinator = FleetCoordinator(
                self.profile,
                len(self.shards),
                backend=self.backend,
                workers=self.workers,
                engine_factory=lambda: Engine(use_disk=False),
            )
            coordinator.specs = self.shards
            return coordinator.run()
        service = LocalizationService(
            self.profile,
            engine=Engine(use_disk=False),
            backend=self.backend,
            workers=self.workers,
        )
        service.prepare()
        return service.run()


def _fleet_shards(profile, seed: int, num_shards: int) -> tuple:
    """The profile's robots dealt to shards by a seeded shuffle.

    The seed cannot go into the profile here: the profile seed also
    seeds the portfolio's traffic forecast, and the solved portfolio
    changes with it (README.md), which would swamp every virtual metric.
    So the robots and their arrival streams stay the registered ones and
    the seed decides which robots share a shard, and so its instances.
    """
    from repro.serve.fleet import ShardSpec

    ids = list(range(profile.num_sessions))
    random.Random(seed).shuffle(ids)
    return tuple(
        ShardSpec(
            shard_id=shard,
            session_ids=tuple(sorted(ids[shard::num_shards])),
            num_instances=profile.num_instances // num_shards,
        )
        for shard in range(num_shards)
    )


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """The named workload at ``seed``; ``tiny`` shrinks it to a
    seconds-long variant of the same shape (self-test and warm-up)."""
    from repro.serve.loadgen import resolve_profile

    if name == "steady":
        profile = replace(
            resolve_profile("steady"),
            num_sessions=2 if tiny else 5,
            num_instances=1 if tiny else 4,
            duration_s=3.0 if tiny else 20.0,
            sequence_duration_s=1.0 if tiny else 8.2,
            seed=seed,
        )
        # Thread-pool width never changes results; more threads than
        # CPUs only adds GIL contention to the wall clock.
        return Workload(
            name,
            profile,
            "thread",
            workers=min(profile.num_instances, _cpus()),
        )
    if name == "overload":
        profile = replace(
            resolve_profile("overload"),
            num_sessions=3 if tiny else 5,
            max_queue=2 if tiny else 4,
            backpressure=1 if tiny else 2,
            rate_hz=200.0,
            sequence_duration_s=1.0 if tiny else 18.0,
            policy=str(POLICY_PATH),
            seed=seed,
        )
        return Workload(name, profile, "thread", workers=1)
    if name == "fleet":
        profile = replace(
            resolve_profile("portfolio-mixed"),
            num_sessions=4 if tiny else 8,
            duration_s=3.0 if tiny else 16.0,
            sequence_duration_s=1.0 if tiny else 5.2,
        )
        return Workload(
            name,
            profile,
            "process",
            workers=1,
            shards=_fleet_shards(profile, seed, num_shards=2),
        )
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
