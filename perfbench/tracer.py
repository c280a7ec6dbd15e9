"""Span tracing from outside the program, and the traced-daemon launcher.

:class:`Tracer` wraps the public entry points of each layer and keeps
one span per call in memory: name, start, end, thread, the enclosing
span on the same thread, and the trace ids active in the calling
context (``repro.obs.trace.current_trace_ids()``, which the daemon
fills from the ``X-Trace-Id`` request header).  Spans are written out,
with an index from trace id to spans, when the run ends.

Wrapped entry points and the layer each stands for:

* ``ScenarioSpec.from_payload`` / ``ScenarioSpec.spec_hash``  serve.spec
* ``ScenarioService.query_many``                               serve.service
* ``ResultCache.get`` / ``ResultCache.put``                    serve.cache
* ``MicroBatcher.submit_nowait``, and the ``heterogeneous_sir`` family's
  ``run`` / ``run_batch`` re-registered through ``register_family``
  (the batcher binds ``execute_scenario`` as a default argument at
  import, so only the registry reaches its dispatches)   serve.batcher
* ``HeterogeneousSIRModel.simulate``                 core.model + numerics.ode
* ``BatchedHeterogeneousSIR.simulate``       core.batched + numerics.ode_batched
* ``repro.control.solve_optimal_control``                control.pontryagin

Scalar ``dopri45`` evaluation counts come from the ``solver`` events of
an observer this module installs (the daemon always runs one, so there
it replaces the default one without adding work).

Run as a script it is the traced launcher of the daemon::

    python3 perfbench/tracer.py --out trace.json -- serve --port 0

which installs the wrappers, runs ``repro.cli.main`` with the arguments
after ``--`` and writes the spans to ``--out`` once the daemon exits.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

from workloads import median, quantile

#: Bytes per state value, for computed buffer traffic.
_FLOAT_BYTES = 8

#: Per-layer metrics that add up over operations (the in-process
#: workloads report them per round).
ADDITIVE = ("cache.coalesced", "cache.evictions", "ode.busy_s", "ode.nfev",
            "ode_batched.busy_s", "ode_batched.nfev",
            "ode_batched.steps_accepted", "ode_batched.steps_rejected",
            "ode_batched.computed_gb", "fbsm.iterations", "fbsm.forward_s",
            "fbsm.backward_s", "proc.cpu_s")


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[dict[str, object]] = []
        self.solver_events: list[dict[str, object]] = []
        self.threads_max = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._undo: list[object] = []
        self._submitted: dict[int, float] = {}
        self._current_trace_ids = lambda: ()

    # -- spans ----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, **attrs: object):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self.threads_max = max(self.threads_max,
                                   threading.active_count())
        record = {"id": span_id, "parent": stack[-1] if stack else None,
                  "name": name, "thread": threading.get_ident(),
                  "trace_ids": list(self._current_trace_ids()),
                  "attrs": attrs}
        stack.append(span_id)
        record["start"] = time.monotonic()
        try:
            yield record
        except BaseException as error:
            record["error"] = type(error).__name__
            raise
        finally:
            record["end"] = time.monotonic()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def _wrap(self, name: str, fn, after=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                if before is not None:
                    before(record, args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(record, args, result)
            return result
        return wrapper

    def _patch(self, owner, attr: str, name: str, **hooks) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(name, raw.__func__, **hooks))
        else:
            patched = self._wrap(name, raw, **hooks)
        setattr(owner, attr, patched)
        self._undo.append(lambda: setattr(owner, attr, raw))

    # -- install / remove -------------------------------------------------
    def install(self) -> None:
        """Wrap every traced entry point and install the solver observer."""
        import repro.control
        from repro.core.batched import BatchedHeterogeneousSIR
        from repro.core.model import HeterogeneousSIRModel
        from repro.obs import trace as obs_trace
        from repro.obs.manifest import EventSink
        from repro.serve.batcher import MicroBatcher
        from repro.serve.cache import ResultCache
        from repro.serve.service import ScenarioService
        from repro.serve.spec import (
            ScenarioSpec,
            get_family,
            register_family,
        )

        self._current_trace_ids = obs_trace.current_trace_ids
        tracer = self

        class SolverSink(EventSink):
            def write(self, event) -> None:
                if event.get("type") == "solver":
                    with tracer._lock:
                        tracer.solver_events.append(
                            {"time": time.monotonic(),
                             "solver": event.get("solver"),
                             "nfev": int(event.get("nfev", 0))})

        previous = obs_trace.get_observer()
        obs_trace.install(obs_trace.Observer(SolverSink(),
                                             run={"command": "perfbench"}))
        self._undo.append(
            (lambda: obs_trace.install(previous)) if previous is not None
            else obs_trace.uninstall)

        def note_submit(record, args, pending) -> None:
            with self._lock:
                self._submitted[id(pending.spec)] = record["start"]

        def dispatched(stacked: bool):
            def before(record, args) -> None:
                specs = args[0] if stacked else [args[0]]
                with self._lock:
                    waits = [record["start"] - self._submitted.pop(id(s))
                             for s in specs if id(s) in self._submitted]
                record["attrs"].update(rows=len(specs), stacked=stacked,
                                       queue_waits=waits)
            return before

        def statuses(record, args, responses) -> None:
            counts: dict[str, int] = defaultdict(int)
            for response in responses:
                counts[response.cache] += 1
            record["attrs"].update(counts)

        def batched_counts(record, args, solution) -> None:
            record["attrs"].update(
                rows=solution.batch_size, nfev=solution.nfev,
                dim=int(solution.y.shape[2]),
                accepted=int(solution.stats.accepted_rows.sum()),
                rejected=int(solution.stats.rejected_rows.sum()))

        def fbsm_counts(record, args, result) -> None:
            record["attrs"].update(
                iterations=int(result.iterations),
                forward_s=sum(h.forward_seconds for h in result.history),
                backward_s=sum(h.backward_seconds for h in result.history))

        self._patch(ScenarioSpec, "from_payload", "spec.decode")
        self._patch(ScenarioSpec, "spec_hash", "spec.hash")
        self._patch(ScenarioService, "query_many", "service.query_many",
                    after=statuses)
        self._patch(ResultCache, "get", "cache.get")
        self._patch(ResultCache, "put", "cache.put")
        self._patch(MicroBatcher, "submit_nowait", "batcher.submit",
                    after=note_submit)
        self._patch(HeterogeneousSIRModel, "simulate", "model.simulate")
        self._patch(BatchedHeterogeneousSIR, "simulate", "batched.simulate",
                    after=batched_counts)
        self._patch(repro.control, "solve_optimal_control", "control.solve",
                    after=fbsm_counts)
        family = get_family("heterogeneous_sir")
        register_family(dataclasses.replace(
            family,
            run=self._wrap("batcher.dispatch", family.run,
                           before=dispatched(False)),
            run_batch=self._wrap("batcher.dispatch", family.run_batch,
                                 before=dispatched(True))))
        self._undo.append(lambda: register_family(family))

    def uninstall(self) -> None:
        """Restore every wrapped entry point and the previous observer."""
        while self._undo:
            self._undo.pop()()

    # -- output -----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the spans, their ids per trace id, and solver events."""
        with self._lock:
            by_trace: dict[str, list[int]] = defaultdict(list)
            for span in self.spans:
                for trace_id in span["trace_ids"]:
                    by_trace[trace_id].append(span["id"])
            payload = {"spans": self.spans, "by_trace": by_trace,
                       "solver_events": self.solver_events}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def self_times(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    A span's self time is its duration minus the durations of its
    direct children (spans opened inside it on the same thread, which
    do not overlap one another).
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
        duration = span["end"] - span["start"]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(span["id"], 0.0)
    return table


def layer_metrics(spans: list[dict], solver_events: list[dict],
                  window: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics from the spans that start inside ``window``."""
    lo, hi = window
    spans = [s for s in spans if lo <= s["start"] <= hi]
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def durations(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in by_name[name]]

    def attr_sum(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    lookups = {status: attr_sum("service.query_many", status)
               for status in ("hit", "coalesced", "miss")}
    answered = sum(lookups.values())
    dispatches = by_name["batcher.dispatch"]
    rows = [s["attrs"]["rows"] for s in dispatches]
    waits = [w for s in dispatches for w in s["attrs"]["queue_waits"]]
    batched = by_name["batched.simulate"]
    batched_bytes = sum(2 * s["attrs"]["nfev"] * s["attrs"]["dim"]
                        * _FLOAT_BYTES for s in batched)
    fbsm_forward = attr_sum("control.solve", "forward_s")
    fbsm_backward = attr_sum("control.solve", "backward_s")
    scalar_nfev = sum(e["nfev"] for e in solver_events
                      if e["solver"] == "dopri45" and lo <= e["time"] <= hi)
    return {
        "spec.decode_hash_us": 1e6 * (median(durations("spec.decode"))
                                      + median(durations("spec.hash"))),
        "cache.hit_ratio": ((lookups["hit"] + lookups["coalesced"]) / answered
                            if answered else 0.0),
        "cache.coalesced": lookups["coalesced"],
        "cache.get_us": 1e6 * median(durations("cache.get")),
        "cache.put_us": 1e6 * median(durations("cache.put")),
        "batcher.queue_wait_ms.p95": 1e3 * quantile(waits, 0.95),
        "batcher.rows_per_dispatch": (sum(rows) / len(rows)
                                      if rows else 0.0),
        "batcher.stacked_share": (sum(r for r in rows if r > 1) / sum(rows)
                                  if rows else 0.0),
        "ode.busy_s": (sum(durations("model.simulate")) + fbsm_forward
                       + fbsm_backward),
        "ode.nfev": scalar_nfev,
        "ode_batched.busy_s": sum(durations("batched.simulate")),
        "ode_batched.nfev": attr_sum("batched.simulate", "nfev"),
        "ode_batched.steps_accepted": attr_sum("batched.simulate",
                                               "accepted"),
        "ode_batched.steps_rejected": attr_sum("batched.simulate",
                                               "rejected"),
        "ode_batched.computed_gb": batched_bytes / 1e9,
        "fbsm.iterations": attr_sum("control.solve", "iterations"),
        "fbsm.forward_s": fbsm_forward,
        "fbsm.backward_s": fbsm_backward,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True,
                        help="where to write the spans when the run ends")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for repro.cli.main, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args
    from repro.cli import main as repro_main

    tracer = Tracer()
    tracer.install()
    try:
        code = repro_main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
