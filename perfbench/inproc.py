"""The process under test for the in-process workloads.

    python3 perfbench/inproc.py --workload sweep_digg --seed 1 --seconds 30
    python3 perfbench/inproc.py --workload control_fbsm --setup-only

Timing starts on the first line, before ``repro`` is imported: set-up is
importing ``repro``, constructing a ``ScenarioService`` and running
``scenario_parameters`` for the workload's network.  With
``--setup-only`` the process stops there.  Otherwise it runs rounds —
each one operation on a fresh ``ScenarioService`` (empty cache) —
while the next round is expected to end within ``--seconds`` (at least
one), checks every answer after the timed rounds, and prints one JSON
object as its last line.

With ``--trace 1`` a discarded warm-up round runs first; then rounds
alternate between untraced and traced (wrappers of :mod:`tracer`
installed).  The ratio of their median wall times is
``trace.overhead_ratio``; additive per-layer metrics are reported per
traced round, since the number of rounds depends on speed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads as wl  # noqa: E402


def _setup(workload: str):
    from repro.serve.service import ScenarioService
    from repro.serve.spec import ScenarioSpec, scenario_parameters

    network = ("digg2009" if workload == "sweep_digg"
               else wl.CONTROL_NETWORK)
    service = ScenarioService()
    scenario_parameters(ScenarioSpec(network=network))
    service.close()


def _sweep_round(service, seed: int) -> dict:
    from repro.analysis.sweep import scenario_sweep
    from repro.serve.spec import ScenarioSpec

    result = scenario_sweep(ScenarioSpec(network="digg2009"),
                            wl.sweep_axes(seed), service=service)
    return {"rows": list(result.rows), "answers": len(result.rows)}


def _control_specs(seed: int) -> list:
    from repro.serve.spec import ControlSpec, ScenarioSpec

    return [ScenarioSpec(network=wl.CONTROL_NETWORK,
                         t_final=wl.CONTROL_T_FINAL,
                         control=ControlSpec(c1=c1, c2=c2,
                                             n_grid=wl.CONTROL_N_GRID))
            for c1, c2 in wl.control_costs(seed)]


def _control_round(service, seed: int) -> dict:
    specs = _control_specs(seed)
    responses = service.query_many(specs)
    return {"specs": specs, "results": [r.result for r in responses],
            "statuses": [r.cache for r in responses],
            "answers": len(responses)}


def _close(a, b, rtol=wl.RTOL, atol=wl.ATOL) -> bool:
    import numpy as np

    return bool(np.allclose(np.asarray(a, dtype=float),
                            np.asarray(b, dtype=float), rtol=rtol,
                            atol=atol))


def _check_sweep(rounds: list[dict], services: list, seed: int,
                 problems: list[str]) -> None:
    """r0 against basic_reproduction_number, and a sampled scalar
    reference of full trajectories, for every round."""
    from repro.core.threshold import basic_reproduction_number
    from repro.serve.spec import (
        ScenarioSpec,
        execute_scenario,
        scenario_parameters,
    )

    params = scenario_parameters(ScenarioSpec(network="digg2009"))
    expected_points = len(wl.SWEEP_EPS1) * len(wl.SWEEP_EPS2)
    for number, (outcome, service) in enumerate(zip(rounds, services)):
        rows = outcome["rows"]
        if len(rows) != expected_points:
            problems.append(f"round {number}: {len(rows)} rows")
        for row in rows:
            r0 = basic_reproduction_number(params, row["eps1"], row["eps2"])
            if abs(row["r0"] - r0) > 1e-12 * abs(r0):
                problems.append(f"r0 mismatch at {row['eps1']}, "
                                f"{row['eps2']}: {row['r0']} != {r0}")
            if row["cache"] != "miss":
                problems.append(f"sweep point answered as {row['cache']} "
                                "on an empty cache")
        hashes = [row["spec_hash"] for row in rows]
        for spec_hash in wl.reference_sample(seed + number, hashes,
                                             wl.SWEEP_REFERENCE_SAMPLE):
            row = rows[hashes.index(spec_hash)]
            spec = ScenarioSpec(network="digg2009", eps1=row["eps1"],
                                eps2=row["eps2"])
            served = service.cache.get(spec_hash)
            reference = execute_scenario(spec)
            if spec.spec_hash() != spec_hash or served is None or not all(
                    _close(served[key], reference[key])
                    for key in ("susceptible", "infected", "recovered")):
                problems.append(f"sweep trajectory {spec_hash[:12]} "
                                "differs from the scalar reference")


def _check_control(rounds: list[dict], problems: list[str],
                   notes: list[str]) -> None:
    for outcome in rounds:
        for spec, result in zip(outcome["specs"], outcome["results"]):
            key = (spec.control.c1, spec.control.c2)
            reference_cost, reference_iterations = wl.CONTROL_REFERENCE[key]
            if not result["converged"]:
                problems.append(f"control {key} did not converge")
            bounds = ((result["eps1"], spec.control.eps1_max),
                      (result["eps2"], spec.control.eps2_max))
            if any(min(v) < 0.0 or max(v) > cap for v, cap in bounds):
                problems.append(f"control {key} leaves its bounds")
            if result["cost_total"] > reference_cost * (
                    1.0 + wl.CONTROL_COST_RTOL):
                problems.append(f"control {key} cost {result['cost_total']}"
                                f" exceeds reference {reference_cost}")
            if result["iterations"] != reference_iterations:
                notes.append(f"DRIFT fbsm.iterations {key}: "
                             f"{result['iterations']} (reference "
                             f"{reference_iterations})")
        if any(status != "miss" for status in outcome["statuses"]):
            problems.append("control scenario answered from an empty cache")


def _check_counts(traced: list[dict], tracer, notes: list[str]) -> None:
    """Counts that must repeat exactly between rounds and against the
    reference recorded when the benchmark was created."""
    from tracer import layer_metrics

    keys = {"nfev": "ode_batched.nfev",
            "steps_accepted": "ode_batched.steps_accepted",
            "steps_rejected": "ode_batched.steps_rejected"}
    seen = set()
    for outcome in traced:
        layers = layer_metrics(tracer.spans, tracer.solver_events,
                               outcome["window"])
        seen.add(tuple(layers[metric] for metric in keys.values()))
    if len(seen) > 1:
        notes.append(f"DRIFT sweep counts differ between rounds: {seen}")
    for counts in seen:
        for (name, metric), value in zip(keys.items(), counts):
            reference = wl.SWEEP_REFERENCE_COUNTS[name]
            if value != reference:
                notes.append(f"DRIFT {metric}: {value} (reference "
                             f"{reference})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_digg", "control_fbsm"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    _setup(args.workload)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from repro.serve.service import ScenarioService

    operation = (_sweep_round if args.workload == "sweep_digg"
                 else _control_round)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        # A discarded warm-up round, so the first untraced round that
        # trace.overhead_ratio compares against is not a cold one.
        warm = ScenarioService()
        operation(warm, args.seed)
        warm.close()
    rounds, services, walls, untraced_walls = [], [], [], []
    cpu_s = 0.0
    while True:
        traced = tracer is not None and len(untraced_walls) > len(rounds)
        if traced:
            tracer.install()
        service = ScenarioService()
        cpu0 = os.times()
        start = time.monotonic()
        outcome = operation(service, args.seed)
        end = time.monotonic()
        cpu1 = os.times()
        service.close()
        if traced:
            tracer.uninstall()
        if tracer is not None and not traced:
            untraced_walls.append(end - start)
        else:
            outcome["window"] = (start, end)
            cpu_s += cpu1.user + cpu1.system - cpu0.user - cpu0.system
            rounds.append(outcome)
            services.append(service)
            walls.append(end - start)
        spent = walls + untraced_walls
        if rounds and sum(spent) + wl.median(spent) > args.seconds:
            break
    problems: list[str] = []
    notes: list[str] = []
    if args.workload == "sweep_digg":
        _check_sweep(rounds, services, args.seed, problems)
        if tracer is not None:
            _check_counts(rounds, tracer, notes)
    else:
        _check_control(rounds, problems, notes)

    answers = [outcome["answers"] for outcome in rounds]
    report = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "walls": walls,
        "answers": answers,
        "problems": problems,
        "notes": notes,
    }
    if tracer is not None:
        from tracer import ADDITIVE, layer_metrics, self_times

        window = (rounds[0]["window"][0], rounds[-1]["window"][1])
        layers = layer_metrics(tracer.spans, tracer.solver_events, window)
        layers.update({
            "proc.cpu_s": cpu_s,
            "proc.threads_max": tracer.threads_max,
            "cache.evictions": sum(s.cache.stats()["evictions"]
                                   for s in services),
            "trace.overhead_ratio": wl.median(walls)
            / wl.median(untraced_walls),
        })
        # The round count depends on speed; report work per round.
        for name in ADDITIVE:
            layers[name] /= len(rounds)
        report["layers"] = layers
        report["self_times"] = self_times(
            [s for s in tracer.spans if window[0] <= s["start"] <= window[1]])
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
