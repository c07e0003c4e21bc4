"""Tests for the multi-session serving tier (``repro.serve``)."""

import json
from dataclasses import replace
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.serve.service as service_module
from repro.engine import Engine
from repro.errors import ConfigurationError, ServeError
from repro.serve import (
    Admission,
    LatencyHistogram,
    LoadProfile,
    LocalizationService,
    Scheduler,
    Telemetry,
    WindowOutcome,
    WindowRequest,
    available_profiles,
    open_loop_arrivals,
    resolve_profile,
    session_sequence_config,
)
from repro.serve.backend import ThreadBackend
from repro.serve.session import SessionState
from repro.serve.telemetry import export_metrics


def make_request(seq, deadline=1.0, session_id=0, degraded=False):
    return WindowRequest(
        session_id=session_id,
        frame_id=seq,
        ready_time=0.0,
        deadline=deadline,
        iterations=4,
        config=None,
        reconfigured=False,
        degraded=degraded,
        seq=seq,
    )


def mini_profile(**overrides):
    base = dict(
        name="mini",
        num_sessions=3,
        num_instances=2,
        rate_hz=8.0,
        duration_s=1.5,
        sequence_duration_s=2.0,
        seed=7,
    )
    base.update(overrides)
    return LoadProfile(**base)


def run_mini(profile, fidelity="analytical"):
    service = LocalizationService(
        profile, engine=Engine(use_disk=False), fidelity=fidelity
    )
    return service.run()


class TestLoadProfile:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            mini_profile(num_sessions=0)
        with pytest.raises(ConfigurationError):
            mini_profile(arrival="push")
        with pytest.raises(ConfigurationError):
            mini_profile(rate_hz=0.0)
        with pytest.raises(ConfigurationError):
            mini_profile(backpressure=100, max_queue=10)
        with pytest.raises(ConfigurationError):
            mini_profile(deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            mini_profile(max_pending_per_session=0)

    def test_registry_and_did_you_mean(self):
        assert {"smoke", "steady", "overload", "closed-loop"} <= set(
            available_profiles()
        )
        assert resolve_profile("smoke").name == "smoke"
        with pytest.raises(ConfigurationError, match="did you mean"):
            resolve_profile("smokey")

    def test_sessions_cycle_the_catalog(self):
        profile = mini_profile()
        names = {session_sequence_config(profile, i).name for i in range(4)}
        assert len(names) == 4
        config = session_sequence_config(profile, 0)
        assert config.duration == profile.sequence_duration_s

    def test_open_loop_arrivals_deterministic_and_bounded(self):
        profile = mini_profile()
        a = open_loop_arrivals(profile, 1, 100)
        b = open_loop_arrivals(profile, 1, 100)
        assert a == b
        assert a != open_loop_arrivals(profile, 2, 100)
        assert all(t < profile.duration_s for t in a)
        assert open_loop_arrivals(profile, 1, 3) == a[:3]
        assert a == sorted(a)


class TestScheduler:
    def test_admission_regimes(self):
        scheduler = Scheduler(max_queue=4, backpressure=2, batch_size=8)
        assert scheduler.admit() is Admission.ACCEPT
        scheduler.push(make_request(1))
        scheduler.push(make_request(2))
        assert scheduler.admit() is Admission.DEGRADE
        scheduler.push(make_request(3, degraded=True))
        scheduler.push(make_request(4, degraded=True))
        assert scheduler.admit() is Admission.SHED
        assert scheduler.as_dict()["degraded"] == 2

    def test_overflow_is_a_typed_error(self):
        scheduler = Scheduler(max_queue=1, backpressure=1)
        scheduler.push(make_request(1))
        with pytest.raises(ServeError, match="admission control bypassed"):
            scheduler.push(make_request(2))

    def test_batches_pop_earliest_deadline_first(self):
        scheduler = Scheduler(batch_size=2)
        scheduler.push(make_request(1, deadline=3.0))
        scheduler.push(make_request(2, deadline=1.0))
        scheduler.push(make_request(3, deadline=2.0))
        first = scheduler.next_requests(scheduler.batch_size)
        assert [r.deadline for r in first] == [1.0, 2.0]
        assert [r.deadline for r in scheduler.next_requests(2)] == [3.0]
        assert scheduler.next_requests(2) == []

    def test_equal_deadlines_break_ties_by_submission_order(self):
        scheduler = Scheduler(batch_size=4)
        for seq in (5, 2, 9):
            scheduler.push(make_request(seq, deadline=1.0))
        assert [r.seq for r in scheduler.next_requests(4)] == [2, 5, 9]


class TestTelemetry:
    def test_histogram_percentiles(self):
        histogram = LatencyHistogram()
        for ms in range(1, 101):
            histogram.record(ms * 1e-3)
        assert histogram.total == 100
        # Bin upper edges overestimate by at most one bin width (~12%).
        assert 0.050 <= histogram.percentile(0.50) <= 0.057
        assert 0.095 <= histogram.percentile(0.95) <= 0.107
        assert histogram.percentile(0.99) <= histogram.max_s == 0.1
        assert histogram.as_dict()["count"] == 100

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(0.99) == 0.0
        assert histogram.mean_s == 0.0

    def test_queue_depth_is_time_weighted(self):
        telemetry = Telemetry()
        telemetry.sample_queue_depth(0.0, 4)  # depth 4 over [0, 2)
        telemetry.sample_queue_depth(2.0, 0)  # depth 0 over [2, 4)
        telemetry.end_time_s = 4.0
        assert telemetry.queue_depth_mean() == pytest.approx(2.0)
        assert telemetry.queue_depth_max == 4


_TIMES = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
_POSITIVE = st.floats(min_value=1e-5, max_value=1.0, allow_nan=False)
_CONFIG_IDS = st.sampled_from(["", "cfg-a", "cfg-b"])

# One Telemetry call per element. Sessions are routed to a part by id
# (shards own disjoint session sets); the "part" field places the calls
# that carry no session.
_TELEMETRY_CALLS = st.lists(
    st.one_of(
        st.tuples(
            st.just("window"),
            st.integers(0, 5),  # session
            _TIMES,  # ready time
            _TIMES,  # queue wait
            _POSITIVE,  # service seconds
            _POSITIVE,  # deadline slack
            st.integers(1, 8),  # iterations
            st.booleans(),  # degraded
            st.booleans(),  # reconfigured
            _TIMES,  # energy
            _TIMES,  # drift
            _CONFIG_IDS,
        ),
        st.tuples(st.just("shed"), st.integers(0, 5), _TIMES),
        st.tuples(
            st.just("reconfig"), st.integers(0, 3), _CONFIG_IDS, _POSITIVE, _POSITIVE
        ),
        st.tuples(st.just("depth"), st.integers(0, 3), _TIMES, st.integers(0, 9)),
        st.tuples(st.just("batch"), st.integers(0, 3), st.integers(1, 4)),
        st.tuples(st.just("error"), st.integers(0, 3)),
    ),
    max_size=40,
)


def _apply(telemetry, call):
    kind = call[0]
    if kind == "window":
        _, sid, ready, wait, service, slack, iters, degraded, reconf, energy, drift, cid = call
        telemetry.record_window(
            telemetry.session(sid, f"seq{sid}"),
            ready_time=ready,
            dispatch_time=ready + wait,
            completion_time=ready + wait + service,
            deadline=ready + slack,
            iterations=iters,
            degraded=degraded,
            reconfigured=reconf,
            energy_j=energy,
            drift_m=drift,
            config_id=cid,
            service_s=service,
        )
    elif kind == "shed":
        _, sid, t = call
        telemetry.record_shed(telemetry.session(sid, f"seq{sid}"), t)
    elif kind == "reconfig":
        telemetry.record_reconfig(call[2] or "cfg-a", call[3], call[4])
    elif kind == "batch":
        telemetry.record_batch(call[2])
    elif kind == "error":
        telemetry.errors += 1


def _assert_folded(actual, expected, path="metrics"):
    """Integers (counters, bins, counts) exactly; floats to rel 1e-12."""
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), path
        for key in expected:
            _assert_folded(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), path
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_folded(a, e, f"{path}[{index}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-12, abs=0.0), path
    else:
        assert type(actual) is type(expected) and actual == expected, path


class TestTelemetryFold:
    @given(_TELEMETRY_CALLS, st.integers(1, 4))
    def test_fold_of_a_split_stream_matches_one_telemetry(self, calls, k):
        """Splitting a stream of telemetry calls over k shards and folding
        the shards gives the telemetry of the whole stream.

        Each shard's queue-depth samples run on its own clock and drain
        to zero, as a finished shard's queue does; the fleet's mean depth
        is then that of the summed queues, and its peak the deepest
        single queue."""
        parts = [Telemetry() for _ in range(k)]
        whole = Telemetry()
        samples: list[list[tuple[float, int]]] = [[] for _ in range(k)]
        for call in calls:
            if call[0] == "depth":
                _, part, dt, depth = call
                clock = samples[part % k][-1][0] if samples[part % k] else 0.0
                samples[part % k].append((clock + dt, depth))
                continue
            owner = call[1] % k
            _apply(parts[owner], call)
            _apply(whole, call)
        for part, series in zip(parts, samples):
            if series:
                series.append((series[-1][0], 0))
            for t, depth in series:
                part.sample_queue_depth(t, depth)
        # The whole stream sees the summed depth of every shard's queue.
        # (A stable sort on time keeps each shard's same-instant samples
        # in the order that shard took them.)
        current = [0] * k
        for t, part, depth in sorted(
            (
                (t, part, depth)
                for part, series in enumerate(samples)
                for t, depth in series
            ),
            key=lambda sample: sample[0],
        ):
            current[part] = depth
            whole.sample_queue_depth(t, sum(current))

        folded = reduce(Telemetry.merge, parts, Telemetry())
        expected = whole.as_dict()
        actual = folded.as_dict()
        assert actual["queue"].pop("depth_max") == max(
            (depth for series in samples for _, depth in series), default=0
        )
        expected["queue"].pop("depth_max")
        _assert_folded(actual, expected)
        assert folded.end_time_s == whole.end_time_s

    def test_fold_rejects_a_session_in_two_parts(self):
        a, b = Telemetry(), Telemetry()
        a.record_shed(a.session(3), 0.1)
        b.record_shed(b.session(3), 0.2)
        with pytest.raises(ServeError, match="session 3"):
            a.merge(b)

    def test_fold_leaves_its_parts_untouched(self):
        part = Telemetry()
        part.record_window(
            part.session(0),
            ready_time=0.0,
            dispatch_time=0.1,
            completion_time=0.2,
            deadline=1.0,
            iterations=4,
            degraded=False,
            reconfigured=False,
            energy_j=0.5,
            drift_m=0.01,
            config_id="cfg-a",
            service_s=0.1,
        )
        before = json.dumps(part.as_dict(), sort_keys=True)
        folded = Telemetry().merge(part)
        folded.merge(Telemetry())
        folded.sessions[0].windows_served += 1
        folded.configs["cfg-a"].windows_served += 1
        assert json.dumps(part.as_dict(), sort_keys=True) == before


class TestSessionStateMachine:
    @pytest.fixture(scope="class")
    def service(self):
        service = LocalizationService(
            mini_profile(num_sessions=1), engine=Engine(use_disk=False)
        )
        service._build()
        return service

    def test_arrival_and_backlog_ordering(self, service):
        session = service.sessions[0]
        assert session.state is SessionState.WAITING
        assert session.on_arrival(0.1) and session.on_arrival(0.2)
        assert session.state is SessionState.READY
        assert session.take_pending() == (1, 0.1)
        assert session.take_pending() == (2, 0.2)
        assert session.state is SessionState.WAITING
        with pytest.raises(ServeError):
            session.take_pending()

    def test_inflight_transitions_guarded(self, service):
        session = service.sessions[0]
        session.mark_inflight()
        with pytest.raises(ServeError):
            session.mark_inflight()
        session.on_complete()
        with pytest.raises(ServeError):
            session.on_complete()


class TestServeRuns:
    def test_metrics_bit_identical_across_runs(self):
        profile = mini_profile()
        dumps = [
            json.dumps(run_mini(profile).metrics, sort_keys=True, indent=2)
            for _ in range(2)
        ]
        assert dumps[0] == dumps[1]

    def test_basic_accounting(self):
        report = run_mini(mini_profile())
        totals = report.metrics["totals"]
        assert totals["errors"] == 0
        assert totals["windows_served"] > 0
        assert totals["throughput_wps"] > 0
        served = sum(
            s["windows_served"] for s in report.metrics["sessions"]
        )
        assert served == totals["windows_served"]
        assert report.metrics["latency_ms"]["count"] == totals["windows_served"]
        assert totals["energy_j"] > 0
        assert report.metrics["schema"] == 1
        # Wall-clock never leaks into the exported (deterministic) dict.
        assert "wall" not in json.dumps(report.metrics)

    def test_overload_sheds_and_degrades_gracefully(self):
        profile = mini_profile(
            num_sessions=6,
            num_instances=1,
            rate_hz=80.0,
            duration_s=0.5,
            max_queue=3,
            backpressure=1,
            max_pending_per_session=1,
            deadline_s=0.01,
        )
        report = run_mini(profile)
        totals = report.metrics["totals"]
        assert totals["errors"] == 0
        assert totals["windows_shed"] > 0
        assert totals["windows_degraded"] > 0
        assert report.metrics["queue"]["depth_max"] <= profile.max_queue
        assert report.metrics["scheduler"]["shed"] == totals["windows_shed"]

    def test_closed_loop_self_limits(self):
        report = run_mini(
            mini_profile(arrival="closed", think_time_s=0.02, duration_s=0.6)
        )
        totals = report.metrics["totals"]
        assert totals["errors"] == 0 and totals["windows_shed"] == 0
        # Closed-loop arrivals wait for completions, so nobody queues
        # behind more than the fleet itself.
        assert report.metrics["queue"]["depth_max"] <= 3

    def test_functional_fidelity_runs(self):
        report = run_mini(
            mini_profile(num_sessions=1, duration_s=0.8), fidelity="functional"
        )
        totals = report.metrics["totals"]
        assert totals["errors"] == 0 and totals["windows_served"] > 0

    def test_report_render_mentions_key_numbers(self):
        report = run_mini(mini_profile(num_sessions=2))
        rendered = report.render()
        assert "p99" in rendered and "windows/s" in rendered
        assert "seed 7" in rendered

    def test_metrics_file_round_trips(self, tmp_path):
        report = run_mini(mini_profile(num_sessions=2))
        path = report.write_metrics(tmp_path / "SERVE_METRICS.json")
        assert json.loads(path.read_text()) == report.metrics


class _FailFirstWindow:
    """A thread backend whose first executed window comes back as a
    typed solver failure (the numerics still ran, as a real failure
    mid-solve would leave them)."""

    def __init__(self, workers):
        self._inner = ThreadBackend(workers)
        self._failed = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run_jobs(self, jobs):
        outcomes = self._inner.run_jobs(jobs)
        if not self._failed:
            self._failed = True
            outcomes[0] = WindowOutcome.from_error(jobs[0], ServeError("injected"))
        return outcomes


class TestDispatchRoutes:
    """FIFO and marginal dispatch are one loop with a route chooser: the
    charging rule, the error rule, and the batch accounting are shared."""

    def test_routes_agree_when_there_is_no_choice(self, tmp_path):
        """On one homogeneous instance both routes charge the runtime
        tier's config at its gated power, so the runs are identical."""
        engine = Engine(use_disk=False)
        files = []
        for route in ("fifo", "marginal"):
            profile = replace(resolve_profile("smoke"), num_instances=1, route=route)
            metrics = LocalizationService(profile, engine=engine).run().metrics
            del metrics["profile"], metrics["cache"]
            files.append(export_metrics(metrics, tmp_path / f"{route}.json"))
        assert files[0].read_bytes() == files[1].read_bytes()

    @pytest.mark.parametrize("route", ["fifo", "marginal"])
    def test_errored_windows_count_toward_no_batch(self, monkeypatch, route):
        monkeypatch.setattr(
            service_module, "make_backend", lambda name, workers: _FailFirstWindow(workers)
        )
        report = run_mini(mini_profile(route=route))
        metrics = report.metrics
        totals, scheduler = metrics["totals"], metrics["scheduler"]
        dispatched = scheduler["accepted"] + scheduler["degraded"]
        assert totals["errors"] == 1
        assert totals["windows_served"] + totals["errors"] == dispatched
        batches = metrics["batches"]
        batched = sum(
            int(size) * count for size, count in batches["occupancy_histogram"].items()
        )
        assert batched == totals["windows_served"]
        assert sum(i["batches"] for i in metrics["instances"]) == batches["count"]


class TestServeTraces:
    """The virtual-time span trace: deterministic, schema-valid, and
    consistent with the telemetry counters."""

    def _run(self, jobs=1):
        profile = mini_profile()
        service = LocalizationService(
            profile, engine=Engine(use_disk=False, jobs=jobs)
        )
        return service.run()

    def test_trace_byte_identical_across_runs(self):
        dumps = [self._run().trace.to_jsonl() for _ in range(2)]
        assert dumps[0] == dumps[1]

    def test_trace_byte_identical_across_worker_counts(self):
        assert self._run(jobs=1).trace.to_jsonl() == self._run(jobs=4).trace.to_jsonl()

    def test_span_counts_match_telemetry(self):
        report = self._run()
        spans = report.trace.spans
        served = report.metrics["totals"]["windows_served"]
        names = [s.name for s in spans]
        assert names.count("service") == served
        assert names.count("queue_wait") == served
        assert names.count("batch") == report.metrics["batches"]["count"]
        reconfigs = sum(
            s["reconfigurations"] for s in report.metrics["sessions"]
        )
        assert names.count("reconfig") == reconfigs
        # All spans are virtual-timeline spans on track 0, category serve.
        assert all(s.track == 0 and s.category == "serve" for s in spans)

    def test_service_spans_sum_to_busy_time(self):
        report = self._run()
        service_total = sum(
            s.duration_s for s in report.trace.spans if s.name == "service"
        )
        busy = sum(i["busy_seconds"] for i in report.metrics["instances"])
        assert service_total == pytest.approx(busy)

    def test_chrome_export_is_schema_valid(self, tmp_path):
        from repro.obs import validate_chrome_trace

        report = self._run()
        path = report.write_chrome_trace(tmp_path / "trace.json")
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_obs_metrics_export_matches_telemetry(self, tmp_path):
        report = self._run()
        path = report.write_obs_metrics(tmp_path / "OBS_METRICS.json")
        data = json.loads(path.read_text())
        totals = report.metrics["totals"]
        assert data["counters"]["serve_windows_served_total"] == totals[
            "windows_served"
        ]
        assert (
            data["histograms"]["serve_latency_seconds"]["count"]
            == totals["windows_served"]
        )
        assert data["gauges"]["serve_queue_depth_max"] == report.metrics[
            "queue"
        ]["depth_max"]
