"""serve_whatif: open-loop what-if traffic against a ``repro serve`` daemon.

One generator thread drives two keep-alive connections: it submits each
scheduled request with ``POST /scenario?mode=async`` on one, when it is
due, and polls ``GET /scenario/<hash>`` on the other (first poll 5 ms
after the submission, then doubling up to 20 ms).  A request's latency
runs from its due time to the poll that returns its result, so a stall
of the daemon or of the generator shows in every request behind it.

Failures are counted against the scheduled requests: a response other
than 202 to a submission, a poll answering 404 (the daemon reports a
failed async worker only by forgetting the hash), any other unexpected
status, a dropped connection, a malformed result, and a request still
unanswered ``ANSWER_TIMEOUT_S`` after it was due.  The run ends with no
request outstanding.
"""

from __future__ import annotations

import heapq
import http.client
import json
import math
import os
import select
import signal
import subprocess
import sys
import time
from collections import defaultdict, deque
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
_FIRST_POLL_S = 0.005
_MAX_POLL_S = 0.020
_SAMPLE_PROC_S = 0.1
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Daemon:
    """A ``repro serve --port 0`` subprocess, untraced or traced."""

    def __init__(self, root: Path, out_dir: Path, *, tag: str,
                 trace_out: Path | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        serve_args = ["serve", "--port", "0"]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), "--out",
                   str(trace_out), "--", *serve_args]
        self._log = open(out_dir / f"daemon-{tag}.log", "wb")
        started = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        try:
            self.port = self._read_port(deadline=started + 60.0)
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=30)
            status, _ = _request(conn, "GET", "/healthz")
            conn.close()
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - started

    def _read_port(self, deadline: float) -> int:
        buffer = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("daemon did not announce its port")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError("daemon closed stdout")
                buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode()
        return int(line.rsplit(":", 1)[1])

    def proc_status(self) -> dict[str, float]:
        """Peak RSS (MiB), threads and CPU seconds of the daemon."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        fields = dict(line.split(":", 1) for line in status.splitlines()
                      if ":" in line)
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        ticks = stat.rsplit(")", 1)[1].split()
        return {"peak_rss_mb": int(fields["VmHWM"].split()[0]) / 1024.0,
                "threads": int(fields["Threads"]),
                "cpu_s": (int(ticks[11]) + int(ticks[12])) / _CLK_TCK}

    def stop(self) -> int | None:
        """SIGTERM, wait for the graceful drain; kill if it hangs."""
        code = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                code = self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        else:
            code = self.proc.returncode
        self.proc.stdout.close()
        self._log.close()
        return code


def _request(conn: http.client.HTTPConnection, method: str, path: str,
             body: bytes | None = None, trace_id: str | None = None
             ) -> tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if body else {}
    if trace_id:
        headers["X-Trace-Id"] = trace_id
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def _sync_requests(port: int, policies, network: str, prefix: str) -> float:
    """Closed-loop sync POSTs; returns their wall time."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    start = time.monotonic()
    for k, (eps1, eps2) in enumerate(policies):
        body = json.dumps({"network": network, "eps1": eps1,
                           "eps2": eps2}).encode()
        status, _ = _request(conn, "POST", "/scenario", body,
                             f"{prefix}{k}")
        if status != 200:
            raise RuntimeError(f"warm-up request answered {status}")
    wall = time.monotonic() - start
    conn.close()
    return wall


def warm_up(port: int) -> float:
    """Build every network's parameters, then time the calibration
    block (closed-loop sync requests on ``digg2009``)."""
    for network, _ in wl.FRESH_NETWORKS:
        _sync_requests(port, [(0.01, 0.012)], network, f"warm-{network}-")
    return _sync_requests(port, wl.CALIBRATION_POLICIES, "digg2009",
                          "cal-")


def _scrape(port: int) -> tuple[dict, dict[str, float]]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    _, health = _request(conn, "GET", "/healthz")
    _, metrics = _request(conn, "GET", "/metrics")
    conn.close()
    counters = {}
    for line in metrics.decode().splitlines():
        parts = line.split()
        if len(parts) == 2 and not line.startswith("#") and "{" not in line:
            counters[parts[0]] = float(parts[1])
    return json.loads(health), counters


def _well_formed(result: object) -> bool:
    if not isinstance(result, dict) or result.get("kind") != "trajectory":
        return False
    series = [result.get(k) for k in ("t", "susceptible", "infected",
                                      "recovered")]
    return all(isinstance(s, list) and len(s) == 61 and all(
        isinstance(v, float) and math.isfinite(v) for v in s)
        for s in series)


class _Channel:
    """One keep-alive connection with at most one request in flight.

    Sending does not wait for the answer; the generator selects on the
    socket, so a slow poll never delays a due submission on the other
    connection.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None
        self.context: object = None
        self.sent = 0.0

    @property
    def busy(self) -> bool:
        return self.conn is not None and self.context is not None

    def send(self, method: str, path: str, context: object,
             body: bytes | None = None, trace_id: str | None = None) -> bool:
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection("127.0.0.1",
                                                       self.port, timeout=30)
                self.conn.connect()
            headers = {"Content-Type": "application/json"} if body else {}
            if trace_id:
                headers["X-Trace-Id"] = trace_id
            self.conn.request(method, path, body=body, headers=headers)
        except (OSError, http.client.HTTPException):
            self.reset()
            return False
        self.context = context
        self.sent = time.monotonic()
        return True

    def receive(self) -> tuple[int | None, bytes, object]:
        """The answer to the request in flight; status None if dropped."""
        context, self.context = self.context, None
        try:
            response = self.conn.getresponse()
            return response.status, response.read(), context
        except (OSError, http.client.HTTPException):
            self.reset()
            return None, b"", context

    def reset(self) -> None:
        if self.conn is not None:
            self.conn.close()
        self.conn = None
        self.context = None

    def fileno(self) -> int:
        return self.conn.sock.fileno()


def run_schedule(daemon: Daemon, schedule: list[dict], *,
                 sample_proc: bool) -> dict[str, object]:
    """Drive the open loop; return per-request outcomes and timings."""
    submit, poll = _Channel(daemon.port), _Channel(daemon.port)
    due_queue: deque[dict] = deque()
    outstanding: dict[str, list[dict]] = defaultdict(list)
    poll_heap: list[tuple[float, str]] = []
    poll_interval: dict[str, float] = {}
    results: dict[str, dict] = {}
    latencies, lags, submit_rtts = [], [], []
    failures: list[str] = []
    threads_max = 0
    next_sample = 0.0
    start = time.monotonic() + 0.1
    cursor = 0

    def fail_hash(spec_hash: str, reason: str) -> None:
        for request in outstanding.pop(spec_hash, []):
            failures.append(f"{request['trace_id']}: {reason}")

    def on_submitted(status: int | None, body: bytes, request: dict,
                     now: float) -> None:
        submit_rtts.append(now - submit.sent)
        if status != 202:
            failures.append(f"{request['trace_id']}: submit answered "
                            f"{status}")
            return
        spec_hash = json.loads(body)["spec_hash"]
        request["spec_hash"] = spec_hash
        if spec_hash not in outstanding:
            poll_interval[spec_hash] = _FIRST_POLL_S
            heapq.heappush(poll_heap, (now + _FIRST_POLL_S, spec_hash))
        outstanding[spec_hash].append(request)

    def on_polled(status: int | None, body: bytes, spec_hash: str,
                  now: float) -> None:
        if spec_hash not in outstanding:
            return
        if status == 200:
            result = json.loads(body)["result"]
            if not _well_formed(result):
                fail_hash(spec_hash, "malformed result")
                return
            results[spec_hash] = result
            for request in outstanding.pop(spec_hash):
                request["latency"] = now - request["abs_due"]
                latencies.append(request["latency"])
        elif status == 202:
            interval = min(2 * poll_interval[spec_hash], _MAX_POLL_S)
            poll_interval[spec_hash] = interval
            heapq.heappush(poll_heap, (now + interval, spec_hash))
        else:
            fail_hash(spec_hash, f"poll answered {status}")

    while (cursor < len(schedule) or due_queue or outstanding
           or submit.busy or poll.busy):
        now = time.monotonic()
        if sample_proc and now >= next_sample:
            threads_max = max(threads_max, daemon.proc_status()["threads"])
            next_sample = now + _SAMPLE_PROC_S
        while cursor < len(schedule) and start + schedule[cursor]["due"] <= now:
            request = schedule[cursor]
            request["abs_due"] = start + request["due"]
            due_queue.append(request)
            cursor += 1
        if due_queue and not submit.busy:
            request = due_queue.popleft()
            lags.append(now - request["abs_due"])
            if not submit.send("POST", "/scenario?mode=async", request,
                               json.dumps(request["payload"]).encode(),
                               request["trace_id"]):
                failures.append(f"{request['trace_id']}: submit failed")
        while poll_heap and poll_heap[0][0] <= now and not poll.busy:
            _, spec_hash = heapq.heappop(poll_heap)
            if spec_hash in outstanding and not poll.send(
                    "GET", f"/scenario/{spec_hash}", spec_hash):
                fail_hash(spec_hash, "poll failed")
        for channel in (submit, poll):
            if channel.busy and now - channel.sent > wl.ANSWER_TIMEOUT_S:
                context = channel.context
                channel.reset()
                if channel is submit:
                    failures.append(f"{context['trace_id']}: no answer to "
                                    "the submission")
                else:
                    fail_hash(context, "no answer to the poll")
        for spec_hash, requests in list(outstanding.items()):
            for request in [r for r in requests
                            if now - r["abs_due"] > wl.ANSWER_TIMEOUT_S]:
                requests.remove(request)
                failures.append(f"{request['trace_id']}: no answer within "
                                f"{wl.ANSWER_TIMEOUT_S} s")
            if not requests:
                del outstanding[spec_hash]
        wake = [now + 0.05]
        if cursor < len(schedule):
            wake.append(start + schedule[cursor]["due"])
        if poll_heap and not poll.busy:
            wake.append(poll_heap[0][0])
        if sample_proc:
            wake.append(next_sample)
        if due_queue and not submit.busy:
            wake.append(now)
        busy = [c for c in (submit, poll) if c.busy]
        timeout = max(0.0, min(wake) - time.monotonic())
        if busy:
            ready, _, _ = select.select(busy, [], [], timeout)
        else:
            ready = []
            time.sleep(timeout)
        for channel in ready:
            status, body, context = channel.receive()
            answered = time.monotonic()
            if channel is submit:
                on_submitted(status, body, context, answered)
            else:
                on_polled(status, body, context, answered)
    finished = time.monotonic()
    submit.reset()
    poll.reset()
    return {"latencies": latencies, "lags": lags,
            "submit_rtts": submit_rtts, "failures": failures,
            "results": results, "window": (start, finished),
            "threads_max": threads_max}


def check_reference(schedule: list[dict], results: dict[str, dict],
                    seed: int) -> list[str]:
    """Compare a seeded sample of served trajectories with the scalar
    ``execute_scenario`` reference (rtol 1e-8, atol 1e-10)."""
    import numpy as np

    from repro.serve.spec import ScenarioSpec, execute_scenario

    payloads = {r["spec_hash"]: r["payload"] for r in schedule
                if "spec_hash" in r}
    problems = []
    for spec_hash in wl.reference_sample(seed, list(results),
                                         wl.REFERENCE_SAMPLE):
        spec = ScenarioSpec.from_payload(payloads[spec_hash])
        if spec.spec_hash() != spec_hash:
            problems.append(f"{spec_hash[:12]}: hash of the payload is "
                            f"{spec.spec_hash()[:12]}")
            continue
        reference = execute_scenario(spec)
        for key in ("t", "susceptible", "infected", "recovered"):
            if not np.allclose(results[spec_hash][key], reference[key],
                               rtol=wl.RTOL, atol=wl.ATOL):
                problems.append(f"{spec_hash[:12]}: {key} differs from "
                                "the scalar reference")
    return problems


def _cache_delta(before: dict, after: dict) -> dict[str, int]:
    return {key: after["cache"][key] - before["cache"][key]
            for key in ("hits", "misses", "evictions")}


def run(root: Path, out_dir: Path, seed: int, seconds: float,
        trace: bool) -> dict[str, object]:
    """One serve_whatif run; returns the metrics and the accounting."""
    schedule = wl.serve_schedule(seed, seconds)
    setups: list[float] = []
    untraced_calibration = None
    if trace:
        daemon = Daemon(root, out_dir, tag="calibration")
        try:
            untraced_calibration = warm_up(daemon.port)
        finally:
            daemon.stop()
        trace_file = out_dir / "serve_whatif-trace.json"
        daemon = Daemon(root, out_dir, tag="traced", trace_out=trace_file)
    else:
        for k in range(wl.SETUP_SAMPLES - 1):
            probe = Daemon(root, out_dir, tag=f"setup{k}")
            setups.append(probe.setup_s)
            probe.stop()
        daemon = Daemon(root, out_dir, tag="run")
    setups.append(daemon.setup_s)
    try:
        calibration = warm_up(daemon.port)
        health0, _ = _scrape(daemon.port)
        cpu0 = daemon.proc_status()["cpu_s"]
        outcome = run_schedule(daemon, schedule, sample_proc=trace)
        proc = daemon.proc_status()
        health1, counters = _scrape(daemon.port)
    finally:
        exit_code = daemon.stop()
    failures = outcome["failures"]
    if exit_code != 0:
        failures.append(f"daemon exited with {exit_code}")
    problems = check_reference(schedule, outcome["results"], seed)
    cache = _cache_delta(health0, health1)
    latencies = outcome["latencies"]
    span = outcome["window"][1] - outcome["window"][0]
    report = {
        "attempted": len(schedule),
        "failed": len(failures) + len(problems),
        "failures": failures[:20],
        "problems": problems,
        "answered": len(latencies),
        "setups": setups,
        "cache": cache,
        "counters": {k: counters.get(k, 0.0) for k in (
            "serve_requests", "serve_errors", "serve_batch_dispatches",
            "serve_batch_size_mean", "serve_slo_stack_ratio",
            "serve_slo_coalesce_ratio", "solver_nfev")},
        "gen_lag_ms_p95": 1e3 * wl.quantile(outcome["lags"], 0.95),
        "metrics": {
            "setup_s": wl.median(setups),
            "peak_rss_mb": proc["peak_rss_mb"],
            "latency_p50_ms": 1e3 * wl.quantile(latencies, 0.50),
            "latency_p95_ms": 1e3 * wl.quantile(latencies, 0.95),
            "goodput_rps": sum(1 for v in latencies
                               if v <= wl.LATENCY_LIMIT_S) / span,
            "points_per_s": len(latencies) / span,
            "solves_per_s": cache["misses"] / span,
        },
    }
    if trace:
        from tracer import layer_metrics, self_times

        data = json.loads(trace_file.read_text())
        window = outcome["window"]
        layers = layer_metrics(data["spans"], data["solver_events"], window)
        layers.update({
            "http.submit_ms.p50": 1e3 * wl.median(outcome["submit_rtts"]),
            "cache.evictions": cache["evictions"],
            "proc.cpu_s": proc["cpu_s"] - cpu0,
            "proc.threads_max": outcome["threads_max"],
            "gen.lag_ms.p95": report["gen_lag_ms_p95"],
            "trace.overhead_ratio": calibration / untraced_calibration,
        })
        report["layers"] = layers
        report["self_times"] = self_times(
            [s for s in data["spans"] if window[0] <= s["start"] <= window[1]])
    return report
