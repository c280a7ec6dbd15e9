"""Forward–Backward Sweep solver for the optimized countermeasures.

Implements the paper's Section IV end-to-end: Pontryagin's principle
turns the optimal-control problem into a two-point boundary-value
problem — states forward from the initial condition, costates backward
from the transversality conditions ``ψ(tf) = 0``, ``q(tf) = w`` — which
the Forward–Backward Sweep Method (FBSM) solves by fixed-point iteration:

1. integrate the state ODE forward under the current control guess,
2. integrate the adjoint ODE backward along that trajectory,
3. update the controls from the Hamiltonian stationarity conditions
   (paper Eq. 18), project onto the admissible box (Eq. 19), and
   under-relax,
4. repeat until the controls (or the objective) stop changing.

Both passes use the adaptive Dormand–Prince integrator with controls and
states held as piecewise-linear signals on one shared uniform grid, so
samples stay aligned while stiffness (``λ(k_max) · Θ``) is handled by the
step controller rather than a worst-case fixed step.

Convergence note: FBSM is known to stall in a small limit cycle where a
control rides its bound across a switching arc; the sweep therefore also
monitors the objective and declares convergence when J has plateaued —
the published criterion for sweep methods on bang-bang-like arcs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.control.admissible import ControlBounds
from repro.control.costate import AdjointKernel, CostateMode, adjoint_kernel
from repro.control.objective import CostBreakdown, CostParameters, evaluate_cost
from repro.core.parameters import RumorModelParameters
from repro.core.state import RumorTrajectory, SIRState
from repro.exceptions import ConvergenceError, ParameterError
from repro.numerics.interpolate import GridFunction
from repro.numerics.ode import dopri45
from repro.obs.trace import get_observer

__all__ = ["FBSMIteration", "OptimalControlResult", "solve_optimal_control",
           "solve_with_terminal_target"]

_DENOMINATOR_FLOOR = 1e-14


@dataclass(frozen=True)
class FBSMIteration:
    """One sweep of the FBSM fixed-point iteration.

    The per-iteration convergence *trajectory* — objective value and
    control sup-norm delta — is what countermeasure studies compare
    (convergence behavior, not just the endpoint); the forward/backward
    pass timings localize where a slow solve spends its wall clock.
    """

    iteration: int
    cost: float
    control_change: float
    forward_seconds: float
    backward_seconds: float

    def as_dict(self) -> dict[str, float]:
        """JSON-ready representation (the ``fbsm_iteration`` event body)."""
        return {"iteration": self.iteration, "cost": self.cost,
                "control_change": self.control_change,
                "forward_seconds": self.forward_seconds,
                "backward_seconds": self.backward_seconds}


@dataclass(frozen=True)
class OptimalControlResult:
    """Solution of the optimized-countermeasure problem.

    Attributes
    ----------
    times:
        Shared FBSM grid, shape ``(m,)``.
    eps1, eps2:
        Optimized control samples on the grid, shape ``(m,)``.
    trajectory:
        State trajectory under the optimized controls.
    psi, q:
        Costate samples (ψ for S, q for I), shape ``(m, n)``.
    cost:
        Objective breakdown along the optimized trajectory.
    iterations:
        FBSM sweeps performed.
    converged:
        Whether a convergence criterion fired ("controls" or "cost").
    convergence_reason:
        ``"controls"``, ``"cost"``, or ``"max_iterations"``.
    control_change:
        Final relative control change.
    history:
        Per-sweep :class:`FBSMIteration` records (objective, control
        delta, pass timings) in iteration order.
    """

    times: np.ndarray
    eps1: np.ndarray
    eps2: np.ndarray
    trajectory: RumorTrajectory
    psi: np.ndarray
    q: np.ndarray
    cost: CostBreakdown
    iterations: int
    converged: bool
    convergence_reason: str
    control_change: float
    history: tuple[FBSMIteration, ...] = ()

    def eps1_function(self) -> GridFunction:
        """ε1*(t) as an interpolating callable."""
        return GridFunction(self.times, self.eps1)

    def eps2_function(self) -> GridFunction:
        """ε2*(t) as an interpolating callable."""
        return GridFunction(self.times, self.eps2)

    def terminal_infected(self) -> float:
        """Population infected density at tf: Σ_i P(k_i) I_i(tf)."""
        return float(self.trajectory.population_infected()[-1])


class _GridLocator:
    """Locate ``t`` on a uniform grid: interval ``j`` and weight ``w``.

    A channel ``v`` sampled on the grid interpolates linearly as
    ``v[j] + w * (v[j + 1] − v[j])``; one locator serves every channel
    sampled on the same grid.
    """

    def __init__(self, grid: np.ndarray) -> None:
        self._t0 = float(grid[0])
        self._h = float(grid[1] - grid[0])
        self._last = grid.size - 2

    def __call__(self, t: float) -> tuple[int, float]:
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
        return j, w


def _lerp(knots: list[float], j: int, w: float) -> float:
    """``knots[j] + w * (knots[j + 1] − knots[j])`` on Python floats."""
    a = knots[j]
    return a + w * (knots[j + 1] - a)


def _forward_pass(params: RumorModelParameters, initial: SIRState,
                  grid: np.ndarray, eps1: np.ndarray, eps2: np.ndarray,
                  rtol: float, atol: float) -> np.ndarray:
    n = params.n_groups
    alpha, lam, phi = params.alpha, params.lambda_k, params.phi_k
    mean_k = float(params.mean_degree)
    locate = _GridLocator(grid)
    eps1_knots = eps1.tolist()
    eps2_knots = eps2.tolist()
    infection = np.empty(n)
    removal_s = np.empty(n)
    removal_i = np.empty(n)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        j, w = locate(t)
        e1 = _lerp(eps1_knots, j, w)
        e2 = _lerp(eps2_knots, j, w)
        s = y[:n]
        i = y[n:2 * n]
        theta = float(np.dot(phi, i)) / mean_k
        np.multiply(lam, s, out=infection)
        np.multiply(infection, theta, out=infection)
        np.multiply(s, e1, out=removal_s)
        np.multiply(i, e2, out=removal_i)
        # System (1): S' = α − λSΘ − ε1 S, I' = λSΘ − ε2 I, R' = ε1 S + ε2 I.
        out = np.empty_like(y)
        out_s = out[:n]
        np.subtract(alpha, infection, out=out_s)
        out_s -= removal_s
        np.subtract(infection, removal_i, out=out[n:2 * n])
        np.add(removal_s, removal_i, out=out[2 * n:])
        return out

    return dopri45(rhs, initial.pack(), grid, rtol=rtol, atol=atol).y


def _backward_pass(params: RumorModelParameters, grid: np.ndarray,
                   states: np.ndarray, eps1: np.ndarray, eps2: np.ndarray,
                   kernel: AdjointKernel, terminal_weight: float,
                   rtol: float, atol: float) -> np.ndarray:
    n = params.n_groups
    tf = float(grid[-1])
    locate = _GridLocator(grid)
    knots = states[:, : 2 * n]
    slopes = np.diff(knots, axis=0)
    eps1_knots = eps1.tolist()
    eps2_knots = eps2.tolist()
    # Dormand–Prince's last two stages share one time: interpolate the
    # state and controls once per distinct t.
    last_t = s = i = None
    e1 = e2 = 0.0

    # Reversed time τ = tf − t:  dY/dτ = −adjoint_rhs(tf − τ, Y).
    def rhs(tau: float, y: np.ndarray) -> np.ndarray:
        nonlocal last_t, s, i, e1, e2
        t = tf - tau
        if t != last_t:
            last_t = t
            j, w = locate(t)
            si = slopes[j] * w
            si += knots[j]
            s, i = si[:n], si[n:]
            e1 = _lerp(eps1_knots, j, w)
            e2 = _lerp(eps2_knots, j, w)
        return kernel(s, i, y[:n], y[n:], e1, e2)

    terminal = np.concatenate([
        np.zeros(n),                           # ψ_i(tf) = 0
        np.full(n, terminal_weight),           # q_i(tf) = w
    ])
    tau_grid = tf - grid[::-1]
    solution = dopri45(rhs, terminal, tau_grid, rtol=rtol, atol=atol)
    return solution.y[::-1]


def _stationary_controls(states: np.ndarray, costates: np.ndarray,
                         n: int, costs: CostParameters,
                         bounds: ControlBounds) -> tuple[np.ndarray, np.ndarray]:
    s = states[:, :n]
    i = states[:, n: 2 * n]
    psi = costates[:, :n]
    q = costates[:, n:]
    # Paper Eq. 18: stationary point of the (convex-in-ε) Hamiltonian.
    eps1 = np.sum(psi * s, axis=1) / np.maximum(
        2.0 * costs.c1 * np.sum(s ** 2, axis=1), _DENOMINATOR_FLOOR
    )
    eps2 = np.sum(q * i, axis=1) / np.maximum(
        2.0 * costs.c2 * np.sum(i ** 2, axis=1), _DENOMINATOR_FLOOR
    )
    return (np.asarray(bounds.clamp_eps1(eps1)),
            np.asarray(bounds.clamp_eps2(eps2)))


def solve_optimal_control(params: RumorModelParameters, initial: SIRState, *,
                          t_final: float,
                          bounds: ControlBounds,
                          costs: CostParameters,
                          n_grid: int = 401,
                          mode: CostateMode = "full",
                          relaxation: float = 0.5,
                          tol: float = 1e-4,
                          cost_tol: float = 1e-5,
                          max_iterations: int = 150,
                          rtol: float = 1e-7,
                          atol: float = 1e-9,
                          initial_eps1: float | np.ndarray | None = None,
                          initial_eps2: float | np.ndarray | None = None,
                          raise_on_failure: bool = False) -> OptimalControlResult:
    """Compute the optimized countermeasures ε1*(t), ε2*(t) on (0, tf].

    Parameters
    ----------
    params, initial:
        Model structure and initial compartment densities.
    t_final:
        Horizon tf (the paper's "expected time period").
    bounds:
        Admissible box U.
    costs:
        Unit costs c1, c2 and terminal weight w.
    n_grid:
        Shared uniform grid resolution for states/costates/controls.
    mode:
        ``"full"`` exact adjoint gradient, ``"paper"`` the published
        diagonal approximation (Eq. 16).
    relaxation:
        Initial under-relaxation factor θ ∈ (0, 1]; decays slowly with
        the sweep count to damp bound-riding jitter.
    tol:
        Convergence threshold on the relative control change.
    cost_tol:
        Relative objective-plateau threshold (3 consecutive sweeps).
    max_iterations:
        Sweep budget.
    rtol, atol:
        Tolerances for the adaptive integrator in both passes.
    initial_eps1, initial_eps2:
        Starting control guesses (scalars or per-grid arrays) — pass a
        previous solution's samples to warm-start; default is half the
        respective bound.
    raise_on_failure:
        When ``True`` a non-converged sweep raises
        :class:`~repro.exceptions.ConvergenceError` instead of returning
        the final iterate with ``converged=False``.
    """
    if initial.n_groups != params.n_groups:
        raise ParameterError("initial state group count mismatch")
    if t_final <= 0:
        raise ParameterError("t_final must be positive")
    if n_grid < 3:
        raise ParameterError("n_grid must be >= 3")
    if not 0 < relaxation <= 1:
        raise ParameterError("relaxation must be in (0, 1]")
    # Validates ``mode`` before any integration runs.
    kernel = adjoint_kernel(params, costs.c1, costs.c2, mode=mode)

    n = params.n_groups
    grid = np.linspace(0.0, float(t_final), int(n_grid))

    def init_control(value: float | np.ndarray | None, default: float,
                     clamp) -> np.ndarray:
        if value is None:
            return np.full(grid.size, default)
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 1 and arr.size not in (1, grid.size):
            # Warm start from a different grid: resample.
            arr = np.interp(grid, np.linspace(0.0, float(t_final), arr.size),
                            arr)
        arr = np.broadcast_to(arr, grid.shape).copy()
        return np.asarray(clamp(arr))

    eps1 = init_control(initial_eps1, bounds.eps1_max / 2.0, bounds.clamp_eps1)
    eps2 = init_control(initial_eps2, bounds.eps2_max / 2.0, bounds.clamp_eps2)

    solve_start = time.perf_counter()
    states = _forward_pass(params, initial, grid, eps1, eps2, rtol, atol)
    costates = np.zeros((grid.size, 2 * n))
    change = np.inf
    previous_cost = np.inf
    plateau_sweeps = 0
    reason = "max_iterations"
    iteration = 0
    history: list[FBSMIteration] = []
    for iteration in range(1, max_iterations + 1):
        pass_start = time.perf_counter()
        costates = _backward_pass(params, grid, states, eps1, eps2, kernel,
                                  costs.terminal_weight, rtol, atol)
        backward_seconds = time.perf_counter() - pass_start
        new_eps1, new_eps2 = _stationary_controls(states, costates, n,
                                                  costs, bounds)
        # Gentle relaxation decay suppresses the limit-cycle jitter FBSM
        # exhibits when controls ride their bounds.
        theta = relaxation / (1.0 + 0.02 * iteration)
        relaxed_eps1 = theta * new_eps1 + (1.0 - theta) * eps1
        relaxed_eps2 = theta * new_eps2 + (1.0 - theta) * eps2
        scale = max(float(np.max(relaxed_eps1)), float(np.max(relaxed_eps2)),
                    1e-12)
        change = max(
            float(np.max(np.abs(relaxed_eps1 - eps1))),
            float(np.max(np.abs(relaxed_eps2 - eps2))),
        ) / scale
        eps1, eps2 = relaxed_eps1, relaxed_eps2
        pass_start = time.perf_counter()
        states = _forward_pass(params, initial, grid, eps1, eps2, rtol, atol)
        forward_seconds = time.perf_counter() - pass_start
        current_cost = evaluate_cost(
            RumorTrajectory(params, grid, states), eps1, eps2, costs
        ).total
        record = FBSMIteration(
            iteration=iteration, cost=float(current_cost),
            control_change=float(change),
            forward_seconds=round(forward_seconds, 6),
            backward_seconds=round(backward_seconds, 6))
        history.append(record)
        observer = get_observer()
        if observer is not None:
            observer.emit("fbsm_iteration", **record.as_dict())
            observer.metrics.inc("fbsm.iterations")
            observer.health.check_fbsm(history, tol,
                                       context={"iteration": iteration})
        if change < tol:
            reason = "controls"
            break
        if abs(previous_cost - current_cost) <= cost_tol * max(1.0, abs(current_cost)):
            plateau_sweeps += 1
            if plateau_sweeps >= 3:
                reason = "cost"
                break
        else:
            plateau_sweeps = 0
        previous_cost = current_cost

    converged = reason != "max_iterations"
    observer = get_observer()
    if observer is not None:
        observer.metrics.inc("fbsm.solves")
        observer.emit(
            "span", name="fbsm.solve",
            seconds=round(time.perf_counter() - solve_start, 6),
            attrs={"iterations": iteration, "converged": converged,
                   "reason": reason, "n_grid": int(grid.size)})
        observer.health.check_fbsm_outcome(converged, reason, iteration)
    if not converged and raise_on_failure:
        raise ConvergenceError(
            f"FBSM did not converge in {max_iterations} sweeps "
            f"(last control change {change:.3g})",
            iterations=max_iterations, residual=change,
        )

    trajectory = RumorTrajectory(params, grid, states)
    cost = evaluate_cost(trajectory, eps1, eps2, costs)
    return OptimalControlResult(
        times=grid, eps1=eps1, eps2=eps2, trajectory=trajectory,
        psi=costates[:, :n], q=costates[:, n:], cost=cost,
        iterations=iteration, converged=converged,
        convergence_reason=reason, control_change=change,
        history=tuple(history),
    )


def solve_with_terminal_target(params: RumorModelParameters,
                               initial: SIRState, *,
                               t_final: float,
                               bounds: ControlBounds,
                               costs: CostParameters,
                               target_infected: float,
                               weight_lo: float = 1e-2,
                               weight_hi: float = 1e6,
                               weight_tol: float = 0.05,
                               max_bisections: int = 40,
                               **solver_options: object) -> tuple[OptimalControlResult, float]:
    """Smallest-terminal-weight FBSM solution meeting an infection target.

    Bisects (in log space) the terminal weight ``w`` until the optimized
    trajectory satisfies ``Σ_i P(k_i) I_i(tf) ≤ target_infected`` with the
    smallest weight that does so — the penalty-method route to the paper's
    Fig. 4(c) requirement that both controllers hit the same terminal
    infection level.  Inner solves warm-start from the previous solution.
    Returns ``(result, weight)``.
    """
    if target_infected <= 0:
        raise ParameterError("target_infected must be positive")
    warm: dict[str, np.ndarray] = {}

    def solve(weight: float) -> OptimalControlResult:
        result = solve_optimal_control(
            params, initial, t_final=t_final, bounds=bounds,
            costs=costs.with_terminal_weight(weight),
            initial_eps1=warm.get("eps1"), initial_eps2=warm.get("eps2"),
            **solver_options,
        )
        warm["eps1"] = result.eps1
        warm["eps2"] = result.eps2
        return result

    result_hi = solve(weight_hi)
    if result_hi.terminal_infected() > target_infected:
        raise ConvergenceError(
            f"even terminal weight {weight_hi:g} leaves infected density "
            f"{result_hi.terminal_infected():.3g} > target {target_infected:g} "
            f"(bounds too tight for this horizon)"
        )
    result_lo = solve(weight_lo)
    if result_lo.terminal_infected() <= target_infected:
        return result_lo, weight_lo

    lo, hi = weight_lo, weight_hi
    best, best_weight = result_hi, weight_hi
    for _ in range(max_bisections):
        if hi / lo <= 1.0 + weight_tol:
            break
        mid = float(np.sqrt(lo * hi))
        result_mid = solve(mid)
        if result_mid.terminal_infected() <= target_infected:
            best, best_weight = result_mid, mid
            hi = mid
        else:
            lo = mid
    return best, best_weight
