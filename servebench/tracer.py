"""In-memory layer tracer for the serving benchmark.

The tracer measures each layer from outside: it replaces a fixed list
of public entry points *where the serving tier looks them up* (a module
global for a function, the class attribute for a method) with a timing
wrapper, keeps one span per call in memory, and puts every original
back on exit. Nothing inside the program is edited or instrumented.

A span is ``[name, start_s, end_s, child_s, extra]``: ``child_s`` sums
the durations of the spans opened directly under it on the same thread,
so a layer's self time is ``(end_s - start_s) - child_s``; ``extra`` is
a per-call count some layers report (LM iterations, dispatched windows,
wire bytes, artifact source).

Wrappers record only in the process that opened the tracer. Forked
execution workers inherit the patched functions but call straight
through, so worker-side work is visible from the parent only as the
``serve.dispatch`` span that waits for it.
"""

from __future__ import annotations

import os
import pickle
import threading
from time import perf_counter

# (span name, module path, attribute path). Each entry is the name the
# serving tier resolves at call time, so patching it is enough to see
# every call the tier makes into the layer.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("data.make_sequence", "repro.engine.stages", "make_sequence"),
    ("engine.run", "repro.engine.engine", "Engine.run"),
    ("engine.artifact", "repro.engine.engine", "Engine.artifact"),
    ("portfolio.solve", "repro.portfolio", "solve_portfolio"),
    ("portfolio.route", "repro.serve.service", "choose_instance"),
    ("slam.step", "repro.slam.estimator", "SlidingWindowEstimator.step"),
    ("slam.lm", "repro.slam.estimator", "levenberg_marquardt"),
    ("slam.build", "repro.slam.problem", "WindowProblem.build_linear_system"),
    ("slam.cost", "repro.slam.problem", "WindowProblem.cost"),
    ("slam.marginalize", "repro.slam.estimator", "marginalize_window"),
    ("linalg.solve", "repro.linalg.plan", "SolverPlan.execute"),
    ("linalg.plan_init", "repro.linalg.plan", "SolverPlan.__init__"),
    ("runtime.decide", "repro.runtime.controller", "RuntimeController.decide"),
    ("serve.admit", "repro.serve.scheduler", "Scheduler.admit"),
    ("serve.shed", "repro.serve.backend", "ThreadBackend.shed"),
    ("serve.shed", "repro.serve.backend", "ProcessBackend.shed"),
    ("serve.charge", "repro.serve.accelerator", "AcceleratorInstance.charge"),
    ("serve.dispatch", "repro.serve.backend", "ThreadBackend.run_jobs"),
    ("serve.dispatch", "repro.serve.backend", "ProcessBackend.run_jobs"),
    ("serve.loop", "repro.serve.service", "LocalizationService.run"),
    ("serve.fleet.merge", "repro.serve.fleet", "merge_shard_metrics"),
)


def _resolve(module_path: str, attr_path: str):
    """``(owner, attribute name, current value)`` for one target."""
    import importlib

    owner = importlib.import_module(module_path)
    *parents, name = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, owner.__dict__[name]


def current_targets() -> dict[tuple[str, str], object]:
    """The objects every target resolves to right now (for leak checks)."""
    return {
        (module_path, attr_path): _resolve(module_path, attr_path)[2]
        for _, module_path, attr_path in TARGETS
    }


def _extra(name: str, attr_path: str, args, result):
    """The per-call count a span carries, or None."""
    if name == "slam.lm":
        return (result.iterations, result.accepted_steps)
    if name == "serve.dispatch":
        jobs = args[1]
        if attr_path.startswith("ProcessBackend"):
            # What crosses the fork/pipe wire: requests out, outcomes back.
            wire = len(pickle.dumps(jobs, pickle.HIGHEST_PROTOCOL)) + len(
                pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            )
            return (len(jobs), wire)
        return (len(jobs), 0)
    if name == "engine.artifact":
        return result.source
    return None


class LayerTracer:
    """Context manager: patch every target, record spans, restore."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    def _wrap(self, name: str, attr_path: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = [name, perf_counter(), 0.0, 0.0, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][3] += span[2] - span[1]
            span[4] = _extra(name, attr_path, args, result)
            tracer.spans.append(span)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def __enter__(self) -> "LayerTracer":
        try:
            for name, module_path, attr_path in TARGETS:
                owner, attr, original = _resolve(module_path, attr_path)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, attr_path, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _total(spans, name: str) -> tuple[int, float, float]:
    """``(calls, total seconds, self seconds)`` over spans named ``name``."""
    calls, total, child = 0, 0.0, 0.0
    for span in spans:
        if span[0] == name:
            calls += 1
            total += span[2] - span[1]
            child += span[3]
    return calls, total, total - child


def setup_layers(spans) -> dict[str, float]:
    """Per-layer metrics of one traced set-up sample."""
    seq_calls, seq_s, _ = _total(spans, "data.make_sequence")
    run_calls, _, _ = _total(spans, "engine.run")
    sources = [span[4] for span in spans if span[0] == "engine.artifact"]
    memo = sum(1 for source in sources if source == "memory")
    _, solve_s, _ = _total(spans, "portfolio.solve")
    return {
        "data.make_sequence.s": seq_s,
        "data.make_sequence.calls": seq_calls,
        "engine.run.calls": run_calls,
        "engine.memo_hit_ratio": memo / len(sources) if sources else 0.0,
        "portfolio.solve.s": solve_s,
    }


def serve_layers(spans) -> dict[str, float]:
    """Per-layer metrics of one traced serve sample."""
    out: dict[str, float] = {}
    for key in (
        "portfolio.route",
        "slam.step",
        "slam.lm",
        "slam.cost",
        "slam.marginalize",
        "linalg.solve",
        "runtime.decide",
        "serve.admit",
        "serve.shed",
        "serve.dispatch",
    ):
        calls, seconds, _ = _total(spans, key)
        out[f"{key}.s"] = seconds
        out[f"{key}.calls"] = calls
    out["slam.build.s"] = _total(spans, "slam.build")[1]
    out["serve.charge.s"] = _total(spans, "serve.charge")[1]
    out["serve.fleet.merge.s"] = _total(spans, "serve.fleet.merge")[1]
    # The estimator step's self time is the front-end: keyframe
    # insertion, observation registration, triangulation, sliding.
    out["slam.frontend.s"] = _total(spans, "slam.step")[2]
    lm = [span[4] for span in spans if span[0] == "slam.lm"]
    iterations = sum(entry[0] for entry in lm)
    out["slam.lm.iterations"] = iterations
    out["slam.lm.accept_ratio"] = (
        sum(entry[1] for entry in lm) / iterations if iterations else 0.0
    )
    out["linalg.plans_built"] = _total(spans, "linalg.plan_init")[0]
    dispatch = [span[4] for span in spans if span[0] == "serve.dispatch"]
    windows = sum(entry[0] for entry in dispatch)
    out["serve.dispatch.windows_per_call"] = (
        windows / len(dispatch) if dispatch else 0.0
    )
    out["serve.wire.bytes_per_window"] = (
        sum(entry[1] for entry in dispatch) / windows if windows else 0.0
    )
    # The event loop's own bookkeeping: run() minus the layer calls it
    # makes directly on its thread.
    out["serve.loop.self_s"] = _total(spans, "serve.loop")[2]
    loops = [span[2] - span[1] for span in spans if span[0] == "serve.loop"]
    out["serve.fleet.shard_skew"] = (
        max(loops) / (sum(loops) / len(loops)) if loops else 0.0
    )
    return out
