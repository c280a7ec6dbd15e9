"""Parallel ensembles of stochastic rumor simulations.

The agent-based and Gillespie simulators are validated against the
mean-field ODE by *ensemble averaging* many independent realizations —
an embarrassingly parallel workload.  This module runs such ensembles
through the :mod:`repro.parallel` engine:

* per-run seeds are spawned from one base seed by run index
  (:func:`repro.parallel.spawn_seeds`), so the ensemble is reproducible
  under any backend and worker count;
* results come back ordered by run index;
* a failing realization surfaces as
  :class:`~repro.exceptions.SweepError` carrying the run index and seed.

Graphs, configs, and seed arrays all pickle, so the process backend
works out of the box for CPU-bound ensembles.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError
from repro.networks.graph import Graph
from repro.parallel.executor import ParallelExecutor, resolve_executor
from repro.parallel.seeding import spawn_seeds, task_rng
from repro.simulation.agent_based import (
    AgentBasedConfig,
    AgentBasedResult,
    simulate_agent_based,
)
from repro.simulation.gillespie import (
    GillespieConfig,
    GillespieResult,
    simulate_gillespie,
)
from repro.simulation.metrics import EnsembleSummary, ensemble_average

__all__ = ["run_ensemble", "ensemble_summary"]

EnsembleConfig = AgentBasedConfig | GillespieConfig
EnsembleRun = AgentBasedResult | GillespieResult


def _run_realization(task: tuple) -> EnsembleRun:
    """One stochastic realization (module-level so process workers pickle)."""
    graph, seeds, config, seed = task
    rng = task_rng(seed)
    if isinstance(config, GillespieConfig):
        return simulate_gillespie(graph, seeds, config, rng=rng)
    return simulate_agent_based(graph, seeds, config, rng=rng)


def run_ensemble(graph: Graph, seeds: np.ndarray, config: EnsembleConfig, *,
                 n_runs: int, base_seed: int = 0,
                 executor: ParallelExecutor | str | int | None = None,
                 chunk_size: int | None = None) -> list[EnsembleRun]:
    """Run ``n_runs`` independent realizations; results in run order.

    Every run uses the same graph, seed nodes, and config, but an
    independent random stream spawned from ``base_seed`` by run index —
    so the returned list is identical for any ``executor`` choice.
    """
    if n_runs < 1:
        raise ParameterError(f"n_runs must be >= 1, got {n_runs}")
    if not isinstance(config, (AgentBasedConfig, GillespieConfig)):
        raise ParameterError(
            f"config must be AgentBasedConfig or GillespieConfig, "
            f"got {type(config).__name__}"
        )
    seeds = np.asarray(seeds, dtype=np.int64)
    run_seeds = spawn_seeds(base_seed, n_runs)
    tasks = [(graph, seeds, config, seed) for seed in run_seeds]
    return resolve_executor(executor).map_tasks(
        _run_realization, tasks, chunk_size=chunk_size,
        describe=lambda index, _task: {"run": index, "base_seed": base_seed},
        label="ensemble",
    )


def ensemble_summary(graph: Graph, seeds: np.ndarray, config: EnsembleConfig,
                     grid: np.ndarray, *, n_runs: int, base_seed: int = 0,
                     executor: ParallelExecutor | str | int | None = None,
                     chunk_size: int | None = None) -> EnsembleSummary:
    """Run an ensemble and average its densities on ``grid``."""
    runs = run_ensemble(graph, seeds, config, n_runs=n_runs,
                        base_seed=base_seed, executor=executor,
                        chunk_size=chunk_size)
    return ensemble_average(runs, np.asarray(grid, dtype=float))
