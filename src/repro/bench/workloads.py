"""Canonical sweep workloads for the parallel benchmark harness.

These are the per-point callables ``bench_parallel`` (and tests) map
over an eps1 × eps2 grid.  They are deliberately *realistic*: each point
computes the threshold r0 and integrates the heterogeneous SIR system —
the same work a threshold-sensitivity study (e.g. the
truth-spreading/rumor-blocking effectiveness sweeps of
arXiv:1705.10618) performs per parameter combination.

Both workloads build their calibrated model through the
:mod:`repro.parallel` worker cache, so a worker constructs the degree
distribution, calibration, and φ(k) tables once and reuses them for all
its points — the pattern sweep authors should copy.

These are the serial references: the stacked counterpart of the same
sweep runs through :func:`repro.analysis.sweep.scenario_sweep`, which
integrates compatible (ε1, ε2) points as one stacked ODE system.

Module-level functions only: the process backend pickles them by
reference.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import HeterogeneousSIRModel
from repro.core.parameters import RumorModelParameters
from repro.core.state import SIRState
from repro.core.threshold import (
    basic_reproduction_number,
    calibrate_acceptance_scale,
)
from repro.datasets.digg import synthesize_digg2009
from repro.networks.degree import power_law_distribution
from repro.parallel.cache import model_invariants, worker_cached

__all__ = [
    "digg_threshold_point",
    "smoke_threshold_point",
    "severity_axes",
]


def severity_axes(n_eps1: int, n_eps2: int) -> dict[str, list[float]]:
    """An eps1 × eps2 grid spanning the extinction/persistence boundary."""
    return {
        "eps1": [float(v) for v in np.linspace(0.05, 0.40, n_eps1)],
        "eps2": [float(v) for v in np.linspace(0.01, 0.15, n_eps2)],
    }


def _digg_model() -> tuple[RumorModelParameters, HeterogeneousSIRModel]:
    """Digg-compatible calibrated model — built once per worker."""

    def build() -> tuple[RumorModelParameters, HeterogeneousSIRModel]:
        distribution = synthesize_digg2009().distribution
        params = RumorModelParameters(distribution, alpha=0.01)
        params = calibrate_acceptance_scale(params, 0.2, 0.05, 0.7220)
        model_invariants(params)  # warm the φ(k)/moment tables too
        return params, HeterogeneousSIRModel(params)

    return worker_cached("bench:digg-model", build)


def _smoke_model() -> tuple[RumorModelParameters, HeterogeneousSIRModel]:
    """Small 30-group model for smoke runs and engine tests."""

    def build() -> tuple[RumorModelParameters, HeterogeneousSIRModel]:
        distribution = power_law_distribution(1, 30, 2.0)
        params = RumorModelParameters(distribution, alpha=0.01)
        params = calibrate_acceptance_scale(params, 0.2, 0.05, 0.9)
        model_invariants(params)
        return params, HeterogeneousSIRModel(params)

    return worker_cached("bench:smoke-model", build)


def _threshold_point(params: RumorModelParameters,
                     model: HeterogeneousSIRModel,
                     eps1: float, eps2: float, *,
                     t_final: float, n_samples: int) -> dict[str, float]:
    r0 = basic_reproduction_number(params, eps1, eps2)
    initial = SIRState.initial(params.n_groups, 0.05)
    trajectory = model.simulate(initial, t_final=t_final, eps1=eps1,
                                eps2=eps2, n_samples=n_samples)
    infected = trajectory.population_infected()
    return {
        "r0": float(r0),
        "peak_infected": float(infected.max()),
        "final_infected": float(infected[-1]),
    }


def digg_threshold_point(eps1: float, eps2: float) -> dict[str, float]:
    """Full-scale point: r0 + a horizon-60 integration on the 848-group
    Digg-compatible network (~50 ms — enough for IPC to amortize)."""
    params, model = _digg_model()
    return _threshold_point(params, model, eps1, eps2,
                            t_final=60.0, n_samples=61)


def smoke_threshold_point(eps1: float, eps2: float) -> dict[str, float]:
    """Reduced point (30 groups, horizon 20) for ``--smoke`` and tests."""
    params, model = _smoke_model()
    return _threshold_point(params, model, eps1, eps2,
                            t_final=20.0, n_samples=21)
