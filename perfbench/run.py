"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve_whatif --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program under test is the
``repro`` package in ``src/``; the run fails (exit 2, no result) when it
is missing.  ``--trace 0`` measures the end-to-end metrics with no
tracing; ``--trace 1`` makes a separate traced run and reports the
per-layer metrics, each with the end-to-end metric it should move.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it summarise the run (sample counts, counters, checks).
Logs and span dumps go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent

#: name -> (unit, workloads where it is the headline metric)
END_TO_END = {
    "setup_s": ("s", "all"),
    "peak_rss_mb": ("MiB", "all"),
    "latency_p50_ms": ("ms", "serve_whatif"),
    "latency_p95_ms": ("ms", "serve_whatif"),
    "goodput_rps": ("req/s", "serve_whatif"),
    "points_per_s": ("points/s", "sweep_digg"),
    "solves_per_s": ("solves/s", "control_fbsm"),
}

#: name -> (unit, the end-to-end metric it should move, on which workload)
PER_LAYER = {
    "http.submit_ms.p50": ("ms", "latency_p50_ms on serve_whatif"),
    "spec.decode_hash_us": ("us", "latency_p50_ms on serve_whatif"),
    "cache.hit_ratio": ("ratio", "latency_p50_ms on serve_whatif; ~0 on "
                        "the other two"),
    "cache.coalesced": ("count", "latency_p50_ms on serve_whatif; ~0 on "
                        "the other two"),
    "cache.evictions": ("count", "latency_p50_ms on serve_whatif; ~0 on "
                        "the other two"),
    "cache.get_us": ("us", "latency_p50_ms on serve_whatif"),
    "cache.put_us": ("us", "points_per_s on sweep_digg"),
    "batcher.queue_wait_ms.p95": ("ms", "latency_p95_ms on serve_whatif; "
                                  "points_per_s on sweep_digg"),
    "batcher.rows_per_dispatch": ("rows", "latency_p95_ms on serve_whatif; "
                                  "points_per_s on sweep_digg"),
    "batcher.stacked_share": ("ratio", "latency_p95_ms on serve_whatif; "
                              "points_per_s on sweep_digg"),
    "ode.busy_s": ("s", "latency_p95_ms on serve_whatif; solves_per_s on "
                   "control_fbsm"),
    "ode.nfev": ("count", "latency_p95_ms on serve_whatif; solves_per_s "
                 "on control_fbsm"),
    "ode_batched.busy_s": ("s", "points_per_s on sweep_digg"),
    "ode_batched.nfev": ("count", "points_per_s on sweep_digg"),
    "ode_batched.steps_accepted": ("count", "points_per_s on sweep_digg"),
    "ode_batched.steps_rejected": ("count", "points_per_s on sweep_digg"),
    "ode_batched.computed_gb": ("GB", "points_per_s on sweep_digg "
                                "(computed from (rows, 3n) buffers)"),
    "fbsm.iterations": ("count", "solves_per_s on control_fbsm only"),
    "fbsm.forward_s": ("s", "solves_per_s on control_fbsm only"),
    "fbsm.backward_s": ("s", "solves_per_s on control_fbsm only"),
    "proc.cpu_s": ("s", "latency_p95_ms on serve_whatif"),
    "proc.threads_max": ("count", "latency_p95_ms on serve_whatif (one "
                         "thread per async request)"),
    "gen.lag_ms.p95": ("ms", "validity of the run (generator lateness)"),
    "trace.overhead_ratio": ("ratio", "validity of the run (traced / "
                             "untraced wall)"),
}


def _inproc(root: Path, args: argparse.Namespace, out_dir: Path,
            seconds: float, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(HERE / "inproc.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(seconds), *extra]
    with open(out_dir / f"{args.workload}.log", "ab") as log:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              stderr=log, timeout=170, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited with "
                           f"{done.returncode}; see {log.name}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def run_inproc(root: Path, args: argparse.Namespace, out_dir: Path) -> dict:
    """sweep_digg / control_fbsm, summarised over worker processes.

    Untraced, every round runs in a fresh worker process (``--seconds
    0`` makes a worker stop after one round), while the next round is
    expected to end within ``--seconds``: a process's speed depends on
    where it lands in memory (one FBSM solve takes 2.03 s or 2.16 s,
    per process), so rates over several processes are steadier than
    over the rounds of one.  Rates are answers over the summed wall
    time of the rounds.  The traced run is one worker.
    """
    if args.trace:
        report = _inproc(root, args, out_dir, args.seconds, "--trace", "1",
                         "--trace-out",
                         str(out_dir / f"{args.workload}-trace.json"))
        workers = [report]
    else:
        workers = []
        walls: list[float] = []
        while not walls or sum(walls) + wl.median(walls) <= args.seconds:
            workers.append(_inproc(root, args, out_dir, 0.0))
            walls += workers[-1]["walls"]
        report = {key: [v for w in workers for v in w[key]]
                  for key in ("walls", "answers", "problems", "notes")}
        report["peak_rss_mb"] = max(w["peak_rss_mb"] for w in workers)
    setups = [w["setup_s"] for w in workers]
    while not args.trace and len(setups) < wl.SETUP_SAMPLES:
        setups.append(_inproc(root, args, out_dir, 0.0,
                              "--setup-only")["setup_s"])
    report["setups"] = setups
    walls = report["walls"]
    limit = wl.OFFLINE_LIMIT_S[args.workload]
    attempted = sum(report["answers"])
    report["attempted"] = attempted
    report["failed"] = min(len(report["problems"]), attempted)
    report["metrics"] = {
        "setup_s": wl.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
        "latency_p50_ms": 1e3 * wl.quantile(walls, 0.50),
        "latency_p95_ms": 1e3 * wl.quantile(walls, 0.95),
        "goodput_rps": sum(1 for w in walls if w <= limit) / sum(walls),
        "points_per_s": attempted / sum(walls),
        "solves_per_s": attempted / sum(walls),
    }
    if "layers" in report:
        report["layers"].update({"http.submit_ms.p50": 0.0,
                                 "gen.lag_ms.p95": 0.0})
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout holding src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    if args.workload == "serve_whatif":
        import serve_load

        report = serve_load.run(root, out_dir, args.seed, args.seconds,
                                bool(args.trace))
    else:
        report = run_inproc(root, args, out_dir)

    problems = report["problems"]
    for line in report.get("failures", [])[:5] + problems[:5]:
        print(f"FAIL {line}")
    for line in report.get("notes", []):
        print(line)
    summary = {k: report[k] for k in ("answered", "cache", "counters",
                                      "gen_lag_ms_p95", "walls", "answers",
                                      "setups")
               if k in report}
    print(f"{args.workload} seed={args.seed}: {json.dumps(summary)}")
    if args.trace:
        names = PER_LAYER
        values = report["layers"]
        for name, (unit, moves) in PER_LAYER.items():
            print(f"  {name:28s} {values[name]:14.6g} {unit:6s} -> {moves}")
        print("  self time by span (s): " + json.dumps(
            {k: round(v["self_s"], 4)
             for k, v in sorted(report["self_times"].items())}))
    else:
        names = END_TO_END
        values = report["metrics"]
        for name, (unit, headline) in END_TO_END.items():
            print(f"  {name:16s} {values[name]:14.6g} {unit:9s} "
                  f"(headline on {headline})")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, (unit, _) in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
