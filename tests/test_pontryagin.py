"""Tests for repro.control.pontryagin — the FBSM solver.

These use a deliberately small 5-group model and coarse grids to stay
fast; the figure-scale runs live in the benchmark harness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.admissible import ControlBounds
from repro.control.constant import run_constant
from repro.control.objective import CostParameters
from repro.control.pontryagin import (
    solve_optimal_control,
    solve_with_terminal_target,
)
from repro.core.parameters import RumorModelParameters
from repro.core.state import SIRState
from repro.core.threshold import calibrate_acceptance_scale
from repro.exceptions import ParameterError
from repro.networks.degree import power_law_distribution


@pytest.fixture(scope="module")
def setup():
    base = RumorModelParameters(power_law_distribution(1, 5, 2.0), alpha=0.01)
    params = calibrate_acceptance_scale(base, 0.2, 0.05, 3.0)
    initial = SIRState.initial(params.n_groups, 0.05)
    bounds = ControlBounds(1.0, 1.0)
    costs = CostParameters(5.0, 10.0)
    return params, initial, bounds, costs


@pytest.fixture(scope="module")
def solved(setup):
    params, initial, bounds, costs = setup
    return solve_optimal_control(
        params, initial, t_final=40.0, bounds=bounds, costs=costs,
        n_grid=81, max_iterations=120,
    )


class TestSolveOptimalControl:
    def test_converges(self, solved):
        assert solved.converged
        assert solved.convergence_reason in ("controls", "cost")

    def test_controls_admissible(self, solved, setup):
        _, _, bounds, _ = setup
        assert bounds.contains(solved.eps1, solved.eps2)

    def test_transversality_forces_eps1_to_zero_at_tf(self, solved):
        # ψ(tf) = 0 drives the stationary ε1(tf) to 0; the relaxed
        # iterate approaches it geometrically.
        assert solved.eps1[-1] == pytest.approx(0.0, abs=1e-6)

    def test_eps2_positive_at_tf(self, solved):
        """q(tf) = w > 0 keeps the blocking control active at the end."""
        assert solved.eps2[-1] > 0.0

    def test_costate_terminal_conditions(self, solved):
        assert np.all(np.abs(solved.psi[-1]) < 1e-12)
        assert solved.q[-1] == pytest.approx(np.ones(5))

    def test_suppresses_infection(self, solved, setup):
        params, initial, _, costs = setup
        uncontrolled = run_constant(params, initial, eps1=1e-6, eps2=1e-6,
                                    t_final=40.0, costs=costs)
        assert solved.terminal_infected() < \
            0.1 * uncontrolled.terminal_infected()

    def test_beats_constant_controls_on_objective(self, solved, setup):
        """The optimized policy must not lose to simple constant policies
        on the same objective J."""
        params, initial, _, costs = setup
        for e1, e2 in [(0.1, 0.1), (0.3, 0.3), (0.5, 0.2), (0.05, 0.5)]:
            constant = run_constant(params, initial, eps1=e1, eps2=e2,
                                    t_final=40.0, costs=costs, n_grid=81)
            assert solved.cost.total <= constant.cost.total * 1.02, \
                f"lost to constant ({e1}, {e2})"

    def test_warm_start_converges_faster(self, setup, solved):
        params, initial, bounds, costs = setup
        warm = solve_optimal_control(
            params, initial, t_final=40.0, bounds=bounds, costs=costs,
            n_grid=81, max_iterations=120,
            initial_eps1=solved.eps1, initial_eps2=solved.eps2,
        )
        assert warm.iterations <= solved.iterations
        assert warm.cost.total == pytest.approx(solved.cost.total, rel=1e-2)

    def test_paper_mode_runs_and_is_close(self, setup, solved):
        params, initial, bounds, costs = setup
        paper = solve_optimal_control(
            params, initial, t_final=40.0, bounds=bounds, costs=costs,
            n_grid=81, max_iterations=120, mode="paper",
        )
        assert paper.cost.total == pytest.approx(solved.cost.total, rel=0.15)

    def test_eps_functions_interpolate(self, solved):
        f1 = solved.eps1_function()
        assert float(f1(0.0)) == pytest.approx(solved.eps1[0])
        assert float(f1(solved.times[-1])) == pytest.approx(solved.eps1[-1])

    def test_grid_resolution_consistency(self, setup):
        """Doubling the grid changes the optimized cost only slightly."""
        params, initial, bounds, costs = setup
        coarse = solve_optimal_control(
            params, initial, t_final=40.0, bounds=bounds, costs=costs,
            n_grid=41, max_iterations=120)
        fine = solve_optimal_control(
            params, initial, t_final=40.0, bounds=bounds, costs=costs,
            n_grid=161, max_iterations=120)
        # The piecewise-linear control representation across the switching
        # arc dominates the gap; 15% headroom covers it.
        assert coarse.cost.total == pytest.approx(fine.cost.total, rel=0.15)


class TestValidation:
    def test_group_mismatch_raises(self, setup):
        params, _, bounds, costs = setup
        with pytest.raises(ParameterError):
            solve_optimal_control(params, SIRState.initial(3, 0.05),
                                  t_final=10.0, bounds=bounds, costs=costs)

    def test_bad_horizon_raises(self, setup):
        params, initial, bounds, costs = setup
        with pytest.raises(ParameterError):
            solve_optimal_control(params, initial, t_final=-1.0,
                                  bounds=bounds, costs=costs)

    def test_bad_relaxation_raises(self, setup):
        params, initial, bounds, costs = setup
        with pytest.raises(ParameterError):
            solve_optimal_control(params, initial, t_final=10.0,
                                  bounds=bounds, costs=costs, relaxation=0.0)

    def test_bad_mode_raises_before_integrating(self, setup, monkeypatch):
        import repro.control.pontryagin as pontryagin

        real_dopri45 = pontryagin.dopri45
        calls = []

        def counting_dopri45(*args, **kwargs):
            calls.append(1)
            return real_dopri45(*args, **kwargs)

        monkeypatch.setattr(pontryagin, "dopri45", counting_dopri45)
        params, initial, bounds, costs = setup
        with pytest.raises(ParameterError, match="costate mode"):
            solve_optimal_control(params, initial, t_final=10.0,
                                  bounds=bounds, costs=costs, mode="bogus")
        assert calls == []


class TestTerminalTarget:
    def test_meets_target(self, setup):
        params, initial, bounds, costs = setup
        result, weight = solve_with_terminal_target(
            params, initial, t_final=40.0, bounds=bounds, costs=costs,
            target_infected=1e-3, n_grid=61, max_iterations=80,
        )
        assert result.terminal_infected() <= 1e-3
        assert weight > 0.0

    def test_loose_target_needs_less_weight(self, setup):
        """A looser terminal target is met with a smaller penalty weight."""
        params, initial, bounds, costs = setup
        loose_result, loose_weight = solve_with_terminal_target(
            params, initial, t_final=40.0, bounds=bounds, costs=costs,
            target_infected=0.5, n_grid=61, max_iterations=80,
        )
        tight_result, tight_weight = solve_with_terminal_target(
            params, initial, t_final=40.0, bounds=bounds, costs=costs,
            target_infected=1e-3, n_grid=61, max_iterations=80,
        )
        assert loose_result.terminal_infected() <= 0.5
        assert tight_result.terminal_infected() <= 1e-3
        assert loose_weight < tight_weight

    def test_invalid_target_raises(self, setup):
        params, initial, bounds, costs = setup
        with pytest.raises(ParameterError):
            solve_with_terminal_target(
                params, initial, t_final=40.0, bounds=bounds, costs=costs,
                target_infected=0.0)
