"""Parallel execution engine for sweeps, experiments, and ensembles.

Backends (serial / thread / process) behind one
:class:`~repro.parallel.executor.ParallelExecutor` interface, with
deterministic result ordering, chunked dispatch, per-task seeding, and
worker-side invariant caching.  See ``docs/PARALLEL.md``.  Stacked
(ε1, ε2) sweeps are not an executor backend: they go through the
scenario service via :func:`repro.analysis.sweep.scenario_sweep`.
"""

from repro.parallel.cache import (
    ModelInvariants,
    clear_worker_cache,
    model_invariants,
    parameters_fingerprint,
    worker_cache_info,
    worker_cached,
)
from repro.parallel.executor import (
    BACKENDS,
    ParallelExecutor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_cpus,
    resolve_executor,
)
from repro.parallel.seeding import spawn_seeds, task_rng

__all__ = [
    "ParallelExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "available_cpus",
    "BACKENDS",
    "spawn_seeds",
    "task_rng",
    "worker_cached",
    "clear_worker_cache",
    "worker_cache_info",
    "ModelInvariants",
    "model_invariants",
    "parameters_fingerprint",
]
