"""Bitwise oracles for the scalar FBSM hot path.

The scalar :func:`~repro.numerics.ode.dopri45` step loop, the FBSM
forward/backward passes and the adjoint arithmetic are written for low
per-call overhead (in-place NumPy, Python-float scalars, one shared grid
locator, a fused adjoint kernel) under a strict contract: every value
takes the same IEEE operations in the same order as the straightforward
formulation kept below, so every output is equal bit for bit.  Only
in-place forms, swapped operands of ``+``/``*`` and exact sign folds are
allowed.

The oracles are verbatim copies of that straightforward formulation.
Both sides run on the same machine and BLAS, so ``np.array_equal`` is
the right comparison on every platform.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import repro.control.pontryagin as pontryagin
from repro.control.admissible import ControlBounds
from repro.control.costate import costate_rhs, make_costate_rhs
from repro.control.objective import CostParameters
from repro.control.pontryagin import solve_optimal_control
from repro.core.model import HeterogeneousSIRModel
from repro.core.parameters import RumorModelParameters
from repro.core.state import SIRState
from repro.core.threshold import calibrate_acceptance_scale
from repro.exceptions import IntegrationError, ParameterError
from repro.networks.degree import power_law_distribution
from repro.numerics.ode import _DP_A, _DP_B4, _DP_B5, _DP_C, dopri45
from repro.serve.spec import ScenarioSpec, scenario_parameters


# -- oracles ------------------------------------------------------------------
def _oracle_dopri45(f, y0, t_eval, *, rtol=1e-8, atol=1e-10, h_init=None,
                    h_max=None, max_steps=1_000_000):
    """The allocate-per-step Dormand–Prince loop on NumPy scalars."""
    grid = np.asarray(t_eval, dtype=float)
    y = np.asarray(y0, dtype=float).copy()
    t0, tf = grid[0], grid[-1]
    span = tf - t0
    if h_max is None:
        h_max = span
    if h_init is None:
        h = _oracle_initial_step(f, t0, y, rtol, atol, h_max)
        nfev = 2
    else:
        h = min(h_init, h_max)
        nfev = 0

    out = np.empty((grid.size, y.size))
    out[0] = y
    next_output = 1

    t = t0
    f_now = f(t, y)
    nfev += 1
    warmup_nfev = nfev
    accepted = rejected = 0
    step_sizes = []
    err_prev = 1.0
    safety, beta = 0.9, 0.04
    min_factor, max_factor = 0.2, 5.0
    order = 5.0

    for _ in range(max_steps):
        if t >= tf:
            break
        h = min(h, tf - t, h_max)
        if h < 1e-14 * max(abs(t), 1.0):
            raise IntegrationError(
                f"dopri45 step size underflow at t={t:.6g} (h={h:.3g})"
            )
        k = np.empty((7, y.size))
        k[0] = f_now
        for stage in range(1, 7):
            y_stage = y + h * (_DP_A[stage] @ k[:stage])
            k[stage] = f(t + _DP_C[stage] * h, y_stage)
        nfev += 6
        y5 = y + h * (_DP_B5 @ k)
        y4 = y + h * (_DP_B4 @ k)
        if not np.all(np.isfinite(y5)):
            rejected += 1
            h *= 0.25
            if h < 1e-14 * max(abs(t), 1.0):
                raise IntegrationError(
                    f"dopri45 produced non-finite state at t={t:.6g}")
            continue
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(float(np.mean(((y5 - y4) / scale) ** 2)))
        if err <= 1.0:
            accepted += 1
            step_sizes.append(h)
            t_new = t + h
            f_new = k[6]
            while (next_output < grid.size
                   and grid[next_output] <= t_new + 1e-14):
                out[next_output] = _oracle_hermite(
                    t, t_new, y, y5, f_now, f_new, grid[next_output])
                next_output += 1
            t, y, f_now = t_new, y5, f_new
            err = max(err, 1e-10)
            factor = safety * err ** (-0.7 / order) * err_prev ** (beta)
            err_prev = err
            h *= min(max_factor, max(min_factor, factor))
        else:
            rejected += 1
            h *= max(min_factor, safety * err ** (-1.0 / order))
    else:
        raise IntegrationError(
            f"dopri45 exhausted {max_steps} steps before reaching t={tf}")
    if next_output < grid.size:
        out[next_output:] = y
    return {"y": out, "nfev": nfev, "warmup_nfev": warmup_nfev,
            "accepted": accepted, "rejected": rejected,
            "step_sizes": np.asarray(step_sizes)}


def _oracle_initial_step(f, t0, y0, rtol, atol, h_max):
    scale = atol + rtol * np.abs(y0)
    f0 = f(t0, y0)
    d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 5.0)
    return min(100.0 * h0, h1, h_max)


def _oracle_hermite(t0, t1, y0, y1, f0, f1, t):
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


class _UniformInterp:
    """Linear interpolation of multi-channel samples on a uniform grid."""

    def __init__(self, grid, values):
        self._t0 = float(grid[0])
        self._h = float(grid[1] - grid[0])
        self._last = grid.size - 2
        self._values = values

    def __call__(self, t):
        x = (t - self._t0) / self._h
        j = int(x)
        if j < 0:
            j = 0
        elif j > self._last:
            j = self._last
        w = x - j
        if w < 0.0:
            w = 0.0
        elif w > 1.0:
            w = 1.0
        v = self._values
        return v[j] + w * (v[j + 1] - v[j])


def _oracle_costate_rhs(params, susceptible, infected, psi, q, eps1, eps2,
                        c1, c2, mode):
    if mode not in ("full", "paper"):
        raise ParameterError(f"unknown costate mode {mode!r}")
    lam = params.lambda_k
    phi_over_k = params.phi_k / params.mean_degree
    theta = float(np.dot(params.phi_k, infected) / params.mean_degree)
    dpsi = -2.0 * c1 * eps1 ** 2 * susceptible \
        + psi * (lam * theta + eps1) - q * lam * theta
    lam_s = lam * susceptible
    if mode == "full":
        coupling = float(np.dot(q - psi, lam_s))
        dq = -2.0 * c2 * eps2 ** 2 * infected \
            - phi_over_k * coupling + q * eps2
    else:
        dq = -2.0 * c2 * eps2 ** 2 * infected \
            - phi_over_k * (q - psi) * lam_s + q * eps2
    return dpsi, dq


def _oracle_forward_pass(params, initial, grid, eps1, eps2, rtol, atol):
    n = params.n_groups
    alpha, lam, phi, mean_k = (params.alpha, params.lambda_k, params.phi_k,
                               params.mean_degree)
    controls = _UniformInterp(grid, np.column_stack([eps1, eps2]))

    def rhs(t, y):
        e1, e2 = controls(t)
        s = y[:n]
        i = y[n:2 * n]
        theta = float(np.dot(phi, i)) / mean_k
        infection = lam * s * theta
        out = np.empty_like(y)
        out[:n] = alpha - infection - e1 * s
        out[n:2 * n] = infection - e2 * i
        out[2 * n:] = e1 * s + e2 * i
        return out

    return _oracle_dopri45(rhs, initial.pack(), grid, rtol=rtol,
                           atol=atol)["y"]


def _oracle_backward_pass(params, grid, states, eps1, eps2, costs, mode,
                          rtol, atol):
    n = params.n_groups
    tf = float(grid[-1])
    state_interp = _UniformInterp(grid, states[:, : 2 * n])
    control_interp = _UniformInterp(grid, np.column_stack([eps1, eps2]))

    def rhs(tau, y):
        t = tf - tau
        si = state_interp(t)
        e1, e2 = control_interp(t)
        dpsi, dq = _oracle_costate_rhs(params, si[:n], si[n:], y[:n], y[n:],
                                       float(e1), float(e2), costs.c1,
                                       costs.c2, mode)
        return np.concatenate([-dpsi, -dq])

    terminal = np.concatenate([np.zeros(n),
                               np.full(n, costs.terminal_weight)])
    tau_grid = tf - grid[::-1]
    return _oracle_dopri45(rhs, terminal, tau_grid, rtol=rtol,
                           atol=atol)["y"][::-1]


# -- helpers ------------------------------------------------------------------
def _assert_same_integration(f, y0, t_eval, **options):
    expected = _oracle_dopri45(f, y0, t_eval, **options)
    solution = dopri45(f, y0, t_eval, **options)
    stats = solution.stats
    assert np.array_equal(solution.y, expected["y"])
    assert solution.nfev == stats.nfev == expected["nfev"]
    assert stats.warmup_nfev == expected["warmup_nfev"]
    assert stats.accepted == expected["accepted"]
    assert stats.rejected == expected["rejected"]
    assert np.array_equal(stats.step_sizes, expected["step_sizes"])
    assert stats.nfev == stats.warmup_nfev + 6 * stats.total_steps
    return stats


def _scenario_rhs(network: str):
    spec = ScenarioSpec(network=network)
    params = scenario_parameters(spec)
    f = HeterogeneousSIRModel(params).rhs_constant(spec.eps1, spec.eps2)
    y0 = SIRState.initial(params.n_groups, spec.initial_infected).pack()
    return f, y0, np.linspace(0.0, spec.t_final, spec.n_samples)


# -- dopri45 ------------------------------------------------------------------
class TestDopri45:
    @pytest.mark.parametrize("network", ["forum_like", "digg2009"])
    def test_scenario_rhs(self, network):
        f, y0, grid = _scenario_rhs(network)
        _assert_same_integration(f, y0, grid)

    def test_explicit_initial_step(self):
        f, y0, grid = _scenario_rhs("forum_like")
        stats = _assert_same_integration(f, y0, grid, h_init=0.5, h_max=2.0)
        assert stats.warmup_nfev == 1

    def test_tight_tolerance_rejects_steps(self):
        # A kink in the right-hand side at t = 1 forces the controller
        # to reject steps that straddle it.
        def f(t, y):
            rate = 1.0 if t < 1.0 else 40.0
            return np.array([-rate * y[0] + math.sin(t), y[0] - y[1]])

        stats = _assert_same_integration(
            f, np.array([1.0, 0.0]), np.linspace(0.0, 3.0, 31),
            rtol=1e-11, atol=1e-13)
        assert stats.rejected > 0

    def test_blow_up_reaches_non_finite_branch(self):
        def f(t, y):
            return -y if t < 0.5 else np.full_like(y, np.inf)

        outcomes = []
        for solver in (_oracle_dopri45, dopri45):
            calls = []

            def counted(t, y):
                calls.append(t)
                return f(t, y)

            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(IntegrationError) as info:
                    solver(counted, np.ones(3), np.linspace(0.0, 1.0, 5))
            outcomes.append((str(info.value), calls,
                             [str(w.message) for w in caught]))
        (want_message, want_calls, want_warnings), \
            (message, calls, caught) = outcomes
        assert "non-finite state" in want_message
        assert message == want_message
        assert calls == want_calls
        # No new warning: the lean loop skips the 4th-order solution of
        # a non-finite attempt, so it may only warn less.
        assert set(caught) <= set(want_warnings)
        assert len(caught) <= len(want_warnings)


# -- adjoint arithmetic -------------------------------------------------------
@pytest.mark.parametrize("mode", ["full", "paper"])
@pytest.mark.parametrize("k_max", [5, 12])
def test_costate_rhs_matches_oracle(mode, k_max):
    params = RumorModelParameters(power_law_distribution(1, k_max, 2.0),
                                  alpha=0.01)
    n = params.n_groups
    rng = np.random.default_rng(k_max)
    s = rng.uniform(0.1, 0.9, n)
    i = rng.uniform(0.05, 0.5, n)
    psi = rng.normal(size=n)
    q = rng.normal(size=n)
    args = (params, s, i, psi, q, 0.2, 0.1, 5.0, 10.0)
    dpsi, dq = costate_rhs(*args, mode=mode)
    want_dpsi, want_dq = _oracle_costate_rhs(*args, mode)
    assert np.array_equal(dpsi, want_dpsi)
    assert np.array_equal(dq, want_dq)
    rhs = make_costate_rhs(params, lambda _t: (s, i), lambda _t: (0.2, 0.1),
                           5.0, 10.0, mode=mode)
    assert np.array_equal(rhs(0.0, np.concatenate([psi, q])),
                          np.concatenate([want_dpsi, want_dq]))


# -- FBSM ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def fbsm_setup():
    base = RumorModelParameters(power_law_distribution(1, 5, 2.0), alpha=0.01)
    params = calibrate_acceptance_scale(base, 0.2, 0.05, 3.0)
    initial = SIRState.initial(params.n_groups, 0.05)
    return params, initial, ControlBounds(1.0, 1.0), CostParameters(5.0, 10.0)


@pytest.mark.parametrize("mode", ["full", "paper"])
def test_fbsm_matches_oracle_passes(fbsm_setup, mode, monkeypatch):
    params, initial, bounds, costs = fbsm_setup
    options = dict(t_final=40.0, bounds=bounds, costs=costs, n_grid=81,
                   max_iterations=120, mode=mode)
    result = solve_optimal_control(params, initial, **options)

    monkeypatch.setattr(pontryagin, "_forward_pass", _oracle_forward_pass)
    monkeypatch.setattr(
        pontryagin, "_backward_pass",
        lambda params, grid, states, eps1, eps2, _kernel, _weight, rtol,
        atol: _oracle_backward_pass(params, grid, states, eps1, eps2, costs,
                                    mode, rtol, atol))
    expected = solve_optimal_control(params, initial, **options)

    assert result.iterations == expected.iterations
    assert result.convergence_reason == expected.convergence_reason
    assert [h.cost for h in result.history] == \
        [h.cost for h in expected.history]
    assert [h.control_change for h in result.history] == \
        [h.control_change for h in expected.history]
    for name in ("eps1", "eps2", "psi", "q"):
        assert np.array_equal(getattr(result, name),
                              getattr(expected, name)), name
    for compartment in ("susceptible", "infected", "recovered"):
        assert np.array_equal(getattr(result.trajectory, compartment),
                              getattr(expected.trajectory, compartment))
