"""Workload definitions and their seeded input generators.

Everything a run feeds to the system under test is a pure function of
``(workload, seed, seconds)``: the what-if request schedule, the sweep
grid order and the control catalogue.  This module imports only the
standard library, so the load generator can build its schedule before
anything from ``repro`` is loaded.
"""

from __future__ import annotations

import math
import random
import statistics

# -- serve_whatif -------------------------------------------------------------
#: Offered load of the open loop, requests per second: about two thirds
#: of the highest rate at which the daemon kept latency_p95_ms under
#: LATENCY_LIMIT_S without a growing submission backlog (12-15 req/s in
#: RATE_PROBE.json, written by probe_rate.py).
SERVE_RATE_RPS = 8.0
#: A request answered later than this misses the goodput limit.
LATENCY_LIMIT_S = 1.0
#: A request with no answer this long after it was due is a failure.
ANSWER_TIMEOUT_S = 30.0
#: Share of requests drawn from the popular-policy hot set (Zipf).
HOT_SHARE = 0.7
HOT_POLICIES = 16
ZIPF_EXPONENT = 1.1
#: Networks of the never-seen (cache-missing) requests and their shares.
FRESH_NETWORKS = (("digg2009", 0.75), ("forum_like", 0.15),
                  ("facebook_like", 0.10))
#: Policy ranges of generated what-if requests.
EPS1_RANGE = (0.05, 0.60)
EPS2_RANGE = (0.02, 0.40)
#: Closed-loop sync requests sent before the timed phase; their wall
#: time, untraced against traced, gives trace.overhead_ratio.
CALIBRATION_POLICIES = tuple((0.011 + 0.001 * k, 0.013) for k in range(8))
#: Size of the seeded sample of answered specs checked against a scalar
#: reference after the timed phase.
REFERENCE_SAMPLE = 10

# -- sweep_digg ---------------------------------------------------------------
SWEEP_EPS1 = tuple(round(0.05 + k * (0.60 - 0.05) / 7, 6) for k in range(8))
SWEEP_EPS2 = tuple(round(0.02 + k * (0.40 - 0.02) / 15, 6)
                   for k in range(16))
#: Sweep points per run checked against a scalar reference.
SWEEP_REFERENCE_SAMPLE = 4
#: Counts recorded when the benchmark was created; the stacked kernel is
#: row-wise deterministic, so any permutation of the grid repeats them.
SWEEP_REFERENCE_COUNTS = {"nfev": 145930, "steps_accepted": 24279,
                          "steps_rejected": 0}

# -- control_fbsm -------------------------------------------------------------
CONTROL_NETWORK = "forum_like"
CONTROL_T_FINAL = 20.0
CONTROL_N_GRID = 101
#: (c1, c2) -> (cost_total, FBSM iterations) recorded when the benchmark
#: was created.  cost_total may not exceed the reference by more than
#: CONTROL_COST_RTOL; an iteration count that differs is flagged as drift.
CONTROL_REFERENCE = {
    (1.0, 1.0): (9.862270576466596, 42),
    (2.0, 0.5): (5.801317527594288, 49),
    (0.5, 2.0): (15.223459111656929, 38),
}
CONTROL_COST_RTOL = 1e-3

#: Latency limit of one offline operation (a sweep call or a control
#: round) for goodput_rps on the in-process workloads.
OFFLINE_LIMIT_S = {"sweep_digg": 60.0, "control_fbsm": 120.0}

#: Trajectory agreement contract of docs/PERFORMANCE.md.
RTOL, ATOL = 1e-8, 1e-10

WORKLOADS = ("serve_whatif", "sweep_digg", "control_fbsm")
#: Fresh set-ups timed per run for setup_s (the median is reported).
SETUP_SAMPLES = 7


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _apportion(total: int, shares: tuple[tuple[str, float], ...]
               ) -> dict[str, int]:
    """Split ``total`` by ``shares`` with largest remainders (exact sum)."""
    raw = {name: total * share for name, share in shares}
    counts = {name: math.floor(value) for name, value in raw.items()}
    left = total - sum(counts.values())
    for name in sorted(raw, key=lambda n: raw[n] - counts[n],
                       reverse=True)[:left]:
        counts[name] += 1
    return counts


def _policy(rng: random.Random) -> tuple[float, float]:
    return (round(rng.uniform(*EPS1_RANGE), 9),
            round(rng.uniform(*EPS2_RANGE), 9))


def serve_schedule(seed: int, seconds: float) -> list[dict[str, object]]:
    """The open-loop request schedule: due time, trace id and payload.

    Arrivals are a Poisson process conditioned on its count: exactly
    ``round(rate * seconds)`` arrivals, the first at 0 and the last at
    ``seconds``, the rest uniform in between and sorted.  Fixing the
    count, the span and the exact hot/fresh/network split keeps goodput
    and hit ratio from varying with the seed by sampling noise alone.
    """
    rng = _rng("serve_whatif", seed)
    total = max(1, round(SERVE_RATE_RPS * seconds))
    hot = [_policy(rng) for _ in range(HOT_POLICIES)]
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(HOT_POLICIES)]
    n_hot = round(total * HOT_SHARE)
    kinds = ["hot"] * n_hot
    for network, count in _apportion(total - n_hot, FRESH_NETWORKS).items():
        kinds += [network] * count
    rng.shuffle(kinds)
    due = [0.0] + sorted(rng.uniform(0.0, seconds)
                         for _ in range(total - 2)) + [seconds]
    schedule = []
    for index, (when, kind) in enumerate(zip(due, kinds)):
        if kind == "hot":
            network = "digg2009"
            eps1, eps2 = rng.choices(hot, weights)[0]
        else:
            network = kind
            eps1, eps2 = _policy(rng)
        schedule.append({
            "due": when, "trace_id": f"r{seed}-{index}",
            "payload": {"network": network, "eps1": eps1, "eps2": eps2}})
    return schedule


def reference_sample(seed: int, hashes: list[str], k: int) -> list[str]:
    """A seeded sample of ``k`` answered spec hashes (sorted input)."""
    rng = _rng("reference", seed)
    hashes = sorted(hashes)
    return rng.sample(hashes, min(k, len(hashes)))


def sweep_axes(seed: int) -> dict[str, list[float]]:
    """The fixed 8 x 16 grid with its points permuted by the seed.

    The grid is row-major over (eps1, eps2) and the service stacks it in
    two 64-row windows (the first four eps1 values, then the rest).  The
    seed shuffles eps2, and eps1 within each half, so the order of the
    rows changes but which points share an integration does not: the
    work, and so the throughput, does not depend on the seed.
    """
    rng = _rng("sweep_digg", seed)
    half = len(SWEEP_EPS1) // 2
    low, high = list(SWEEP_EPS1[:half]), list(SWEEP_EPS1[half:])
    eps2 = list(SWEEP_EPS2)
    for axis in (low, high, eps2):
        rng.shuffle(axis)
    return {"eps1": low + high, "eps2": eps2}


def control_costs(seed: int) -> list[tuple[float, float]]:
    """The control catalogue in a seeded submission order."""
    costs = list(CONTROL_REFERENCE)
    _rng("control_fbsm", seed).shuffle(costs)
    return costs


# -- statistics ---------------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: list[float]) -> float:
    """Median; 0.0 when empty."""
    return statistics.median(values) if values else 0.0
