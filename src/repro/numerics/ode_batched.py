"""Batched initial-value-problem integrators: B systems as one stack.

A parameter sweep integrates the *same* ODE family at many parameter
points.  Running the Python-level solver loop once per point wastes most
of the wall clock on interpreter and numpy-call overhead — on the
848-group Digg network each right-hand side touches only ~20 kB of
state, far too little work to amortize a Python step loop.  This module
stacks ``B`` points into a single ``(B, d)`` state matrix and drives the
whole batch through one solver loop, so every numpy call operates on
``B × d`` elements:

* :func:`rk4_batched` — classic fixed-step RK4 on a **shared** output
  grid.  Every row sees exactly the arithmetic of the scalar
  :func:`repro.numerics.ode.rk4` (same elementwise operations, same
  step sizes), so a batched run is **bitwise identical** to B scalar
  runs whenever the batched right-hand side is row-wise bitwise
  identical to the scalar one.
* :func:`dopri45_batched` — adaptive Dormand–Prince 5(4) with
  **per-row** error control: each row carries its own step size, PI
  controller state, and accept/reject decision, mirroring the scalar
  :func:`repro.numerics.ode.dopri45` control law row by row.  Rows that
  reach the end of the horizon are *frozen* — removed from the live
  batch — so a few stiff rows do not force full-batch work.

Both solvers run allocation-free in the hot loop: stage slopes live in
one preallocated ``(7, B·d)`` workspace and stage combinations are BLAS
``matmul`` calls writing into reused buffers.  The error estimate and
PI controller evaluate the scalar solver's formulas in the scalar
solver's exact operation order, so each row's accept/reject and
step-size sequence reproduces an independent scalar run and adaptive
batched trajectories agree with scalar ones to round-off.

Calling convention
------------------
A batched right-hand side is called as ``f(t, y, rows, out=dydt)``
where ``t`` has shape ``(L,)`` (one time per live row), ``y`` has shape
``(L, d)``, ``rows`` is an ``(L,)`` integer array mapping the live rows
back to the original batch indices 0..B-1, and ``out`` is a preallocated
``(L, d)`` array.  The right-hand side must write the derivative into
``out``; its return value is ignored.  Solvers compact finished rows out
of the batch, so a right-hand side holding per-row parameter arrays must
index them with ``rows`` (see
:class:`repro.core.batched.BatchedHeterogeneousSIR`).  Right-hand sides
with no per-row parameters may ignore ``rows``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import IntegrationError, ParameterError
from repro.numerics.ode import (
    OdeSolution,
    SolverStats,
    _DP_A,
    _DP_B4,
    _DP_B5,
    _DP_C,
    _validate_grid,
)
from repro.obs.trace import get_observer

__all__ = [
    "BatchedSolverStats",
    "BatchedOdeSolution",
    "BatchedRhsFunction",
    "rk4_batched",
    "dopri45_batched",
    "integrate_batched",
    "BATCHED_SOLVERS",
]

#: ``f(t, y, rows, out=dydt)``; writes the derivative into ``out``.
BatchedRhsFunction = Callable[..., object]


@dataclass(frozen=True)
class BatchedSolverStats:
    """Per-row integration telemetry for a batched run.

    Mirrors :class:`~repro.numerics.ode.SolverStats` with one entry per
    batch row.  ``wall_seconds`` and ``loop_steps`` are whole-batch
    quantities: the rows share one solver loop, so per-row wall time is
    not separable.  The adaptive accounting holds row-wise:
    ``nfev_rows == warmup_nfev + 6 * (accepted_rows + rejected_rows)``.
    """

    accepted_rows: np.ndarray
    rejected_rows: np.ndarray
    warmup_nfev: int
    h_min_rows: np.ndarray
    h_max_rows: np.ndarray
    loop_steps: int
    wall_seconds: float

    def row(self, index: int, nfev: int) -> SolverStats:
        """Row ``index``'s telemetry as scalar :class:`SolverStats`.

        ``wall_seconds`` is the whole batch's wall time (shared loop).
        """
        return SolverStats(
            accepted=int(self.accepted_rows[index]),
            rejected=int(self.rejected_rows[index]),
            nfev=nfev, warmup_nfev=self.warmup_nfev,
            h_min=float(self.h_min_rows[index]),
            h_max=float(self.h_max_rows[index]),
            wall_seconds=self.wall_seconds)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready batch aggregate."""
        return {
            "accepted": int(self.accepted_rows.sum()),
            "rejected": int(self.rejected_rows.sum()),
            "warmup_nfev": self.warmup_nfev,
            "h_min": float(self.h_min_rows.min()),
            "h_max": float(self.h_max_rows.max()),
            "loop_steps": self.loop_steps,
            "wall_seconds": self.wall_seconds,
        }


def _emit_batched_solver_event(solver: str, dim: int, batch: int,
                               nfev_rows: np.ndarray,
                               stats: BatchedSolverStats) -> None:
    """Report one finished batched integration to the active observer."""
    ob = get_observer()
    if ob is None:
        return
    aggregate = stats.as_dict()
    ob.emit("solver", solver=solver, dim=dim, batch=batch,
            nfev=int(nfev_rows.sum()), **aggregate)
    ob.health.check_solver(solver, aggregate["accepted"],
                           aggregate["rejected"],
                           context={"dim": dim, "batch": batch})
    metrics = ob.metrics
    metrics.inc("solver.runs")
    metrics.inc("solver.batched_rows", batch)
    metrics.inc("solver.nfev", int(nfev_rows.sum()))
    metrics.inc("solver.steps_accepted", aggregate["accepted"])
    metrics.inc("solver.steps_rejected", aggregate["rejected"])
    metrics.observe("solver.wall_seconds", stats.wall_seconds)


@dataclass(frozen=True)
class BatchedOdeSolution:
    """Trajectories of a batch of B systems integrated together.

    Attributes
    ----------
    t:
        Shared sample times, shape ``(m,)``.
    y:
        States, shape ``(m, B, d)`` — ``y[j, b]`` is row ``b``'s state at
        ``t[j]``.
    nfev_rows:
        Per-row right-hand-side evaluation counts, shape ``(B,)``.  A
        batched call evaluating L live rows counts one evaluation for
        each of those rows.
    solver:
        Name of the integrator that produced the solution.
    stats:
        :class:`BatchedSolverStats` telemetry (per-row accepted and
        rejected step counts, step-size ranges, shared wall time), or
        ``None`` for solutions constructed without it.
    """

    t: np.ndarray
    y: np.ndarray
    nfev_rows: np.ndarray
    solver: str
    stats: BatchedSolverStats | None = None

    def __post_init__(self) -> None:
        if (self.t.ndim != 1 or self.y.ndim != 3
                or self.y.shape[0] != self.t.shape[0]
                or self.nfev_rows.shape != (self.y.shape[1],)):
            raise ParameterError(
                f"inconsistent batched solution shapes t{self.t.shape} "
                f"y{self.y.shape} nfev{self.nfev_rows.shape}"
            )

    @property
    def batch_size(self) -> int:
        """Number of stacked systems B."""
        return int(self.y.shape[1])

    @property
    def nfev(self) -> int:
        """Total right-hand-side evaluations across the batch."""
        return int(self.nfev_rows.sum())

    @property
    def final_states(self) -> np.ndarray:
        """States at the last sample time, shape ``(B, d)``."""
        return self.y[-1]

    def solution(self, row: int) -> OdeSolution:
        """Row ``row``'s trajectory as a scalar :class:`OdeSolution`."""
        if not -self.batch_size <= row < self.batch_size:
            raise ParameterError(
                f"row {row} out of range for batch of {self.batch_size}")
        nfev = int(self.nfev_rows[row])
        stats = (self.stats.row(row % self.batch_size, nfev)
                 if self.stats is not None else None)
        return OdeSolution(self.t, np.ascontiguousarray(self.y[:, row, :]),
                           nfev, self.solver, stats=stats)


def _validate_batch_y0(y0: np.ndarray) -> np.ndarray:
    y = np.asarray(y0, dtype=float).copy()
    if y.ndim != 2 or y.shape[0] == 0 or y.shape[1] == 0:
        raise ParameterError(
            f"batched y0 must be a non-empty (B, d) array, got shape "
            f"{np.shape(y0)}")
    if not np.all(np.isfinite(y)):
        raise ParameterError("batched y0 must be finite")
    return y


def _check_finite_batch(y: np.ndarray, solver: str) -> None:
    if not np.all(np.isfinite(y)):
        raise IntegrationError(f"{solver} produced non-finite state values")


def rk4_batched(f: BatchedRhsFunction, y0: np.ndarray,
                t_eval: Sequence[float] | np.ndarray, *,
                substeps: int = 1) -> BatchedOdeSolution:
    """Classic RK4 for the whole batch on one shared grid.

    The step sequence is identical to the scalar :func:`rk4` — the
    shared grid fixes ``h`` for every row — and each update is a pure
    elementwise expression evaluated in the scalar solver's operation
    order, so with a row-wise bitwise right-hand side the output is
    bitwise identical to B independent scalar runs.
    """
    if substeps < 1:
        raise ParameterError("substeps must be >= 1")
    grid = _validate_grid(t_eval)
    y = _validate_batch_y0(y0)
    start = time.perf_counter()
    batch, dim = y.shape
    rows = np.arange(batch)
    out = np.empty((grid.size, batch, dim))
    out[0] = y
    nfev_rows = np.zeros(batch, dtype=np.int64)
    k1 = np.empty_like(y)
    k2 = np.empty_like(y)
    k3 = np.empty_like(y)
    k4 = np.empty_like(y)
    stage = np.empty_like(y)
    for j in range(grid.size - 1):
        t, t_next = grid[j], grid[j + 1]
        h = (t_next - t) / substeps
        for s in range(substeps):
            ts = t + s * h
            # Mirrors the scalar update exactly: y_stage = y + (c·h)·k.
            f(np.full(batch, ts), y, rows, out=k1)
            np.multiply(k1, 0.5 * h, out=stage)
            stage += y
            f(np.full(batch, ts + 0.5 * h), stage, rows, out=k2)
            np.multiply(k2, 0.5 * h, out=stage)
            stage += y
            f(np.full(batch, ts + 0.5 * h), stage, rows, out=k3)
            np.multiply(k3, h, out=stage)
            stage += y
            f(np.full(batch, ts + h), stage, rows, out=k4)
            # y ← y + (h/6)·(((k1 + 2·k2) + 2·k3) + k4), scalar order.
            k2 *= 2.0
            k2 += k1
            k3 *= 2.0
            k2 += k3
            k2 += k4
            k2 *= h / 6.0
            y += k2
            nfev_rows += 4
        out[j + 1] = y
    _check_finite_batch(out, "rk4-batched")
    spacing = np.diff(grid) / substeps
    n_steps = (grid.size - 1) * substeps
    stats = BatchedSolverStats(
        accepted_rows=np.full(batch, n_steps, dtype=np.int64),
        rejected_rows=np.zeros(batch, dtype=np.int64),
        warmup_nfev=0,
        h_min_rows=np.full(batch, float(spacing.min())),
        h_max_rows=np.full(batch, float(spacing.max())),
        loop_steps=n_steps, wall_seconds=time.perf_counter() - start)
    _emit_batched_solver_event("rk4-batched", dim, batch, nfev_rows, stats)
    return BatchedOdeSolution(grid, out, nfev_rows, "rk4-batched",
                              stats=stats)


def _initial_step_batched(f: BatchedRhsFunction, t0: float, y0: np.ndarray,
                          rows: np.ndarray, rtol: float, atol: float,
                          h_max: float,
                          f0_out: np.ndarray) -> np.ndarray:
    """Hairer–Nørsett–Wanner first-step heuristic, one value per row.

    ``f0_out`` receives ``f(t0, y0)`` so the caller can seed the FSAL
    slot without re-evaluating.
    """
    batch = y0.shape[0]
    scale = atol + rtol * np.abs(y0)
    f(np.full(batch, t0), y0, rows, out=f0_out)
    f0 = f0_out
    d0 = np.sqrt(np.mean((y0 / scale) ** 2, axis=1))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2, axis=1))
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.where(small, 1e-6, 0.01 * d0 / np.where(d1 > 0, d1, 1.0))
    y1 = y0 + h0[:, None] * f0
    f1 = np.empty_like(y0)
    f(t0 + h0, y1, rows, out=f1)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2, axis=1)) / h0
    dm = np.maximum(d1, d2)
    h1 = np.where(dm <= 1e-15, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.where(dm > 0, dm, 1.0)) ** (1.0 / 5.0))
    return np.minimum(np.minimum(100.0 * h0, h1), h_max)


def _hermite_rows(t0: np.ndarray, t1: np.ndarray, y0: np.ndarray,
                  y1: np.ndarray, f0: np.ndarray, f1: np.ndarray,
                  t: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolation on one accepted step, per row."""
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return (h00[:, None] * y0 + (h10 * h)[:, None] * f0
            + h01[:, None] * y1 + (h11 * h)[:, None] * f1)


def dopri45_batched(f: BatchedRhsFunction, y0: np.ndarray,
                    t_eval: Sequence[float] | np.ndarray, *,
                    rtol: float = 1e-8, atol: float = 1e-10,
                    h_init: float | None = None, h_max: float | None = None,
                    max_steps: int = 1_000_000) -> BatchedOdeSolution:
    """Adaptive Dormand–Prince RK5(4) with per-row step control.

    Every row runs the scalar :func:`dopri45` control law independently:
    its own step size, PI controller state (``β = 0.04``), accept/reject
    decision, and cubic-Hermite dense output onto the shared grid.  Rows
    whose time reaches ``t_eval[-1]`` are frozen — compacted out of the
    live batch so the remaining rows keep full vector width without
    wasted evaluations.

    ``max_steps`` bounds iterations of the *shared* step loop (one
    iteration advances every live row at most one step).

    Raises :class:`~repro.exceptions.IntegrationError` naming the first
    offending batch row on step-size underflow, non-finite states, or
    step-budget exhaustion.
    """
    grid = _validate_grid(t_eval)
    y = _validate_batch_y0(y0)
    start = time.perf_counter()
    batch, dim = y.shape
    t0, tf = grid[0], grid[-1]
    span = tf - t0
    if h_max is None:
        h_max = span
    n_grid = grid.size

    out = np.empty((n_grid, batch, dim))
    out[0] = y
    nfev_rows = np.zeros(batch, dtype=np.int64)
    next_output = np.ones(batch, dtype=np.int64)  # per-row next grid index
    accepted_rows = np.zeros(batch, dtype=np.int64)
    rejected_rows = np.zeros(batch, dtype=np.int64)
    h_min_rows = np.full(batch, np.inf)
    h_max_rows = np.zeros(batch)

    # Live-row workspaces, sized once for the full batch.  The first m
    # rows of each buffer (first m column-blocks of ``k``) hold the live
    # rows, in a fixed shared order; ``live[:m]`` maps them back to
    # original batch indices.  Only views are taken inside the loop.
    live = np.arange(batch)
    t = np.full(batch, t0)
    h = np.empty(batch)
    err_prev = np.ones(batch)
    k = np.empty((7, batch * dim))  # stage slopes, one (dim,) block per row
    y5ev = np.empty((2, batch * dim))  # row 0: y5; row 1: error ratios
    ystage = np.empty_like(y)
    scale = np.empty_like(y)

    m = batch
    k0_seed = k[0, :m * dim].reshape(m, dim)
    if h_init is None:
        # The heuristic leaves f(t0, y0) in the FSAL slot, so the first
        # step needs no extra evaluation.
        h[:] = _initial_step_batched(f, t0, y, live, rtol, atol, h_max,
                                     k0_seed)
        nfev_rows += 2
        warmup_nfev = 2
    else:
        if h_init <= 0:
            raise ParameterError("h_init must be positive")
        h[:] = min(h_init, h_max)
        f(t[:m], y, live, out=k0_seed)
        nfev_rows += 1
        warmup_nfev = 1

    safety, beta = 0.9, 0.04
    min_factor, max_factor = 0.2, 5.0
    order = 5.0

    old_err = np.seterr(invalid="ignore", over="ignore", divide="ignore")
    try:
        steps = 0
        while m:
            if steps >= max_steps:
                raise IntegrationError(
                    f"dopri45-batched exhausted {max_steps} steps with "
                    f"{m} of {batch} rows unfinished (first stuck row "
                    f"{int(live[0])} at t={t[0]:.6g})"
                )
            steps += 1
            md = m * dim
            tm, hm, ym = t[:m], h[:m], y[:m]
            np.minimum(hm, tf - tm, out=hm)
            np.minimum(hm, h_max, out=hm)
            underflow = hm < 1e-14 * np.maximum(np.abs(tm), 1.0)
            if underflow.any():
                row = int(live[:m][underflow][0])
                raise IntegrationError(
                    f"dopri45-batched step size underflow for batch row "
                    f"{row} at t={tm[underflow][0]:.6g} "
                    f"(h={hm[underflow][0]:.3g})"
                )
            kf = k[:, :md]
            # Stage evaluations (FSAL: k[0] already holds f(t, y)).
            ysf = ystage.reshape(-1)[:md]
            for s in range(1, 7):
                np.matmul(_DP_A[s], kf[:s], out=ysf)
                ysm = ystage[:m]
                np.multiply(ysm, hm[:, None], out=ysm)
                ysm += ym
                f(tm + _DP_C[s] * hm, ysm, live[:m],
                  out=kf[s].reshape(m, dim))
            nfev_rows[live[:m]] += 6
            # 5th- and 4th-order solutions, in exactly the scalar
            # solver's arithmetic: the same full-tableau dgemv products
            # (dgemv accumulates the 7 stages in the same order for any
            # output width) and an explicit y5 − y4 subtraction.  Any
            # shortcut — the b5 − b4 coefficient row, dropping the zero
            # b5[6] stage, a stacked dgemm — perturbs the error estimate
            # by ulps, and knife-edge accept decisions amplify that into
            # ~1e-8 trajectory drift off the scalar step sequence.
            y5m = y5ev[0, :md].reshape(m, dim)
            evm = y5ev[1, :md].reshape(m, dim)
            np.matmul(_DP_B5, kf, out=y5ev[0, :md])
            np.multiply(y5m, hm[:, None], out=y5m)
            y5m += ym
            np.matmul(_DP_B4, kf, out=y5ev[1, :md])
            evm *= hm[:, None]
            evm += ym                     # y4
            np.subtract(y5m, evm, out=evm)  # y5 − y4
            # err = RMS((y5 − y4) / (atol + rtol·max(|y|, |y5|))), with
            # the scalar solver's pairwise np.mean reduction.
            scm = scale[:m]
            np.abs(ym, out=scm)
            np.abs(y5m, out=ysm)          # ystage is free scratch now
            np.maximum(scm, ysm, out=scm)
            scm *= rtol
            scm += atol
            evm /= scm
            np.multiply(evm, evm, out=ysm)
            err = ysm.mean(axis=1)
            np.sqrt(err, out=err)

            finite = np.isfinite(y5m).all(axis=1)
            err = np.where(finite & np.isfinite(err), err, np.inf)
            accept = err <= 1.0
            # Per-row step accounting: every live row attempted this
            # step; rejections include non-finite trial states, so
            # nfev_rows == warmup + 6·(accepted + rejected) row-wise.
            accepted_rows[live[:m][accept]] += 1
            rejected_rows[live[:m][~accept]] += 1

            # Non-finite trial states: shrink aggressively and retry,
            # exactly like the scalar solver's recovery path.
            if not finite.all():
                blown = ~finite
                hm[blown] *= 0.25
                dead = blown & (hm < 1e-14 * np.maximum(np.abs(tm), 1.0))
                if dead.any():
                    row = int(live[:m][dead][0])
                    raise IntegrationError(
                        f"dopri45-batched produced non-finite state for "
                        f"batch row {row} at t={tm[dead][0]:.6g}"
                    )
            all_accepted = accept.all()
            if not all_accepted:
                rejected = ~accept & finite
                if rejected.any():
                    hm[rejected] *= np.maximum(
                        min_factor, safety * err[rejected] ** (-1.0 / order))

            if all_accepted or accept.any():
                acc = None if all_accepted else np.nonzero(accept)[0]
                k0 = kf[0].reshape(m, dim)
                k6 = kf[6].reshape(m, dim)
                t_new = tm + hm
                # Record the accepted step sizes before the controllers
                # rescale hm.
                rows_acc = live[:m] if all_accepted else live[:m][acc]
                h_acc = hm if all_accepted else hm[acc]
                h_min_rows[rows_acc] = np.minimum(h_min_rows[rows_acc], h_acc)
                h_max_rows[rows_acc] = np.maximum(h_max_rows[rows_acc], h_acc)
                # Dense output: fill every grid point each accepted row
                # just stepped across (the scalar solver's inner loop).
                pending = np.arange(m) if all_accepted else acc
                while pending.size:
                    no = next_output[live[pending]]
                    can = (no < n_grid) & (grid[np.minimum(no, n_grid - 1)]
                                           <= t_new[pending] + 1e-14)
                    pending = pending[can]
                    if pending.size == 0:
                        break
                    rows_full = live[pending]
                    no = next_output[rows_full]
                    out[no, rows_full] = _hermite_rows(
                        tm[pending], t_new[pending], ym[pending],
                        y5m[pending], k0[pending], k6[pending], grid[no])
                    next_output[rows_full] = no + 1
                # Advance accepted rows, refresh their FSAL slot, and run
                # their PI controllers (scalar formulas, per row).
                if all_accepted:
                    tm[:] = t_new
                    ym[:] = y5m
                    k0[:] = k6
                    err_acc = np.maximum(err, 1e-10)
                    factor = (safety * err_acc ** (-0.7 / order)
                              * err_prev[:m] ** beta)
                    err_prev[:m] = err_acc
                    hm *= np.minimum(max_factor,
                                     np.maximum(min_factor, factor))
                else:
                    tm[acc] = t_new[acc]
                    ym[acc] = y5m[acc]
                    k0[acc] = k6[acc]
                    err_acc = np.maximum(err[acc], 1e-10)
                    factor = (safety * err_acc ** (-0.7 / order)
                              * err_prev[:m][acc] ** beta)
                    err_prev[:m][acc] = err_acc
                    hm[acc] *= np.minimum(max_factor,
                                          np.maximum(min_factor, factor))

                # Freeze rows that reached the end of the horizon.  Only
                # y, t, h, err_prev, live and the FSAL slot k[0] carry
                # state across steps, so only they are compacted.
                done = tm >= tf
                if done.any():
                    for i in np.nonzero(done)[0]:
                        row = live[i]
                        if next_output[row] < n_grid:
                            # Final grid point equal to tf within
                            # round-off.
                            out[next_output[row]:, row] = y[i]
                            next_output[row] = n_grid
                    keep = np.nonzero(~done)[0]
                    new_m = keep.size
                    if new_m:
                        y[:new_m] = y[keep]
                        t[:new_m] = t[keep]
                        h[:new_m] = h[keep]
                        err_prev[:new_m] = err_prev[keep]
                        live[:new_m] = live[keep]
                        cols = (keep[:, None] * dim
                                + np.arange(dim)).ravel()
                        k[0, :new_m * dim] = k[0, cols]
                    m = new_m
    finally:
        np.seterr(**old_err)

    _check_finite_batch(out, "dopri45-batched")
    stats = BatchedSolverStats(
        accepted_rows=accepted_rows, rejected_rows=rejected_rows,
        warmup_nfev=warmup_nfev, h_min_rows=h_min_rows,
        h_max_rows=h_max_rows, loop_steps=steps,
        wall_seconds=time.perf_counter() - start)
    _emit_batched_solver_event("dopri45-batched", dim, batch, nfev_rows,
                               stats)
    return BatchedOdeSolution(grid, out, nfev_rows, "dopri45-batched",
                              stats=stats)


BATCHED_SOLVERS: dict[str, Callable[..., BatchedOdeSolution]] = {
    "rk4": rk4_batched,
    "dopri45": dopri45_batched,
}


def integrate_batched(f: BatchedRhsFunction, y0: np.ndarray,
                      t_eval: Sequence[float] | np.ndarray, *,
                      method: str = "dopri45",
                      **options: object) -> BatchedOdeSolution:
    """Integrate a stacked batch of IVPs with the named method.

    ``method`` is ``"rk4"`` (fixed shared grid, bitwise-matching the
    scalar path) or ``"dopri45"`` (default, per-row adaptive); remaining
    keyword options are forwarded to the solver.
    """
    try:
        solver = BATCHED_SOLVERS[method]
    except KeyError:
        raise ParameterError(
            f"unknown batched solver {method!r}; choose from "
            f"{sorted(BATCHED_SOLVERS)}"
        ) from None
    return solver(f, y0, t_eval, **options)
