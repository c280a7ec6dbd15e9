"""Latency against offered load for serve_whatif, to place its fixed rate.

    python3 perfbench/probe_rate.py --rates 6 9 12 15 18 --seconds 30

Run from the root of a checkout.  Each rate is one untraced
serve_whatif run (seed 0) with the workload's mix at that rate.  Writes
``perfbench/RATE_PROBE.json``: per rate, the latency median and p95,
goodput, failures and generator lag, and the highest rate whose p95
stayed under the latency limit with no failures and no growing backlog
(generator lag p95 under a tenth of the limit).  The workload's
``SERVE_RATE_RPS`` is set to about two thirds of that rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import serve_load
import workloads as wl


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rates", type=float, nargs="+",
                        default=[6.0, 9.0, 12.0, 15.0, 18.0])
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    curve = []
    for rate in args.rates:
        wl.SERVE_RATE_RPS = rate
        report = serve_load.run(root, out_dir, 0, args.seconds, False)
        point = {"rate_rps": rate, "attempted": report["attempted"],
                 "failed": report["failed"],
                 "gen_lag_ms_p95": round(report["gen_lag_ms_p95"], 1)}
        point.update({k: round(report["metrics"][k], 3) for k in (
            "latency_p50_ms", "latency_p95_ms", "goodput_rps")})
        print(json.dumps(point), flush=True)
        curve.append(point)
    # A rate meets the limit with p95 under it, no failures and no
    # growing backlog: the generator's p95 lateness under a tenth of it.
    meeting = [p["rate_rps"] for p in curve
               if p["latency_p95_ms"] < 1e3 * wl.LATENCY_LIMIT_S
               and p["gen_lag_ms_p95"] < 1e2 * wl.LATENCY_LIMIT_S
               and p["failed"] == 0]
    record = {"latency_limit_ms": 1e3 * wl.LATENCY_LIMIT_S,
              "seconds": args.seconds,
              "cpus": os.cpu_count(), "machine": platform.machine(),
              "python": platform.python_version(),
              "highest_rate_meeting_limit": max(meeting, default=None),
              "mix": {"hot_share": wl.HOT_SHARE,
                      "hot_policies": wl.HOT_POLICIES,
                      "zipf_exponent": wl.ZIPF_EXPONENT,
                      "fresh_networks": dict(wl.FRESH_NETWORKS)},
              "curve": curve}
    path = Path(__file__).resolve().parent / "RATE_PROBE.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
