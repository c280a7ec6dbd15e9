"""Parameter-sweep utilities.

Deterministic machinery for the benchmark harness and threshold
studies: run a callable over a grid of parameter values and collect
rows — the pattern behind the Fig. 4(c) tf-sweep, the eps1 × eps2
severity maps, and the ablation benches.

Sweeps are embarrassingly parallel, so both entry points accept an
``executor`` (see :mod:`repro.parallel`): points are enumerated in a
fixed deterministic order in the parent, dispatched in chunks, and the
rows reassembled in that same order — the resulting
:class:`SweepResult` is bitwise-identical under every backend and
worker count.  Stochastic sweeps pass ``seed=``; each point then
receives an independent ``rng`` spawned from the base seed by point
index (again independent of the backend).  A failing point surfaces as
:class:`~repro.exceptions.SweepError` carrying the point, not as a bare
worker traceback.

Stacked sweeps
--------------
Deterministic (ε1, ε2) sweeps over System (1) can integrate many points
as one stacked ODE system.  That path is :func:`scenario_sweep`: it
submits every point to a :class:`~repro.serve.service.ScenarioService`,
whose micro-batcher stacks compatible cache misses into
:class:`~repro.core.batched.BatchedHeterogeneousSIR`.  ``sweep_1d`` and
``sweep_grid`` always call ``run`` once per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.exceptions import ParameterError
from repro.parallel.executor import ParallelExecutor, resolve_executor
from repro.parallel.seeding import spawn_seeds, task_rng

__all__ = ["SweepResult", "sweep_1d", "sweep_grid", "grid_points",
           "scenario_sweep"]


@dataclass(frozen=True)
class SweepResult:
    """Rows produced by a sweep; each row maps column name → value."""

    parameter_names: tuple[str, ...]
    rows: tuple[Mapping[str, object], ...]

    def column(self, name: str) -> list[object]:
        """All values of one column, in sweep order."""
        if not self.rows:
            return []
        if name not in self.rows[0]:
            raise ParameterError(f"unknown column {name!r}; have "
                                 f"{sorted(self.rows[0])}")
        return [row[name] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def bitwise_equal(self, other: "SweepResult") -> bool:
        """True when ``other`` has identical rows down to the float bits.

        Stricter than ``==`` on floats: values are compared via
        ``float.hex`` so NaNs compare equal and no tolerance sneaks in —
        the check behind the backend-equivalence guarantee.
        """
        if (self.parameter_names != other.parameter_names
                or len(self.rows) != len(other.rows)):
            return False
        for row_a, row_b in zip(self.rows, other.rows):
            if set(row_a) != set(row_b):
                return False
            for key, value_a in row_a.items():
                value_b = row_b[key]
                if isinstance(value_a, float) and isinstance(value_b, float):
                    if float(value_a).hex() != float(value_b).hex():
                        return False
                elif value_a != value_b:
                    return False
        return True


def grid_points(axes: Mapping[str, Sequence[object]]) -> list[dict[str, object]]:
    """Cartesian grid points of ``axes`` in deterministic (row-major) order.

    The first axis varies slowest — the same order the historical
    recursive implementation produced, now explicit so the parallel
    dispatcher and the serial loop share one enumeration.
    """
    if not axes:
        raise ParameterError("need at least one sweep axis")
    for name, values in axes.items():
        if not values:
            raise ParameterError(f"axis {name!r} has no values")
    points: list[dict[str, object]] = [{}]
    for name, values in axes.items():
        points = [{**point, name: value}
                  for point in points for value in values]
    return points


def _run_point_task(task: tuple) -> dict[str, object]:
    """Worker-side evaluation of one sweep point (module-level: pickles)."""
    run, point, seed = task
    kwargs = dict(point)
    if seed is not None:
        kwargs["rng"] = task_rng(seed)
    result = dict(run(**kwargs))
    result.update(point)
    return result


def _run_1d_task(task: tuple) -> dict[str, object]:
    """Worker-side evaluation of one 1-D sweep value (module-level)."""
    run, name, value, seed = task
    if seed is not None:
        result = dict(run(value, rng=task_rng(seed)))
    else:
        result = dict(run(value))
    result[name] = value
    return result


def _dispatch(executor: ParallelExecutor | str | int | None,
              task_fn: Callable[[tuple], dict[str, object]],
              tasks: list[tuple],
              points: list[Mapping[str, object]],
              chunk_size: int | None) -> list[dict[str, object]]:
    return resolve_executor(executor).map_tasks(
        task_fn, tasks, chunk_size=chunk_size,
        describe=lambda index, _task: dict(points[index]),
        label="sweep",
    )


def sweep_1d(name: str, values: Sequence[object],
             run: Callable[..., Mapping[str, object]], *,
             executor: ParallelExecutor | str | int | None = None,
             seed: int | None = None,
             chunk_size: int | None = None) -> SweepResult:
    """Run ``run(value)`` for each value; the swept value is added to each
    row under ``name``.

    With ``seed`` set, ``run`` is called as ``run(value, rng=...)`` with
    an independent per-point generator.  ``executor`` selects the
    backend (``None`` → serial); the process backend needs ``run`` to be
    a module-level (picklable) callable.  ``chunk_size`` sets the tasks
    per dispatched chunk.
    """
    if not values:
        raise ParameterError("sweep values must be non-empty")
    values = list(values)
    seeds: Sequence[object] = (spawn_seeds(seed, len(values))
                               if seed is not None else [None] * len(values))
    tasks = [(run, name, value, task_seed)
             for value, task_seed in zip(values, seeds)]
    points = [{name: value} for value in values]
    rows = _dispatch(executor, _run_1d_task, tasks, points, chunk_size)
    return SweepResult((name,), tuple(rows))


def sweep_grid(axes: Mapping[str, Sequence[object]],
               run: Callable[..., Mapping[str, object]], *,
               executor: ParallelExecutor | str | int | None = None,
               seed: int | None = None,
               chunk_size: int | None = None) -> SweepResult:
    """Full Cartesian sweep; ``run`` is called with one kwarg per axis.

    Same parallel semantics as :func:`sweep_1d`: rows keep the
    deterministic row-major grid order under every backend and ``seed``
    adds a per-point ``rng`` kwarg.
    """
    points = grid_points(axes)
    seeds: Sequence[object] = (spawn_seeds(seed, len(points))
                               if seed is not None else [None] * len(points))
    tasks = [(run, point, task_seed)
             for point, task_seed in zip(points, seeds)]
    rows = _dispatch(executor, _run_point_task, tasks, points, chunk_size)
    return SweepResult(tuple(axes), tuple(rows))


def scenario_sweep(base: object, axes: Mapping[str, Sequence[object]], *,
                   service: object) -> SweepResult:
    """What-if sweep over scenario fields, served by a scenario service.

    ``base`` is a :class:`~repro.serve.spec.ScenarioSpec`; each grid
    point (row-major, like :func:`sweep_grid`) overrides spec fields via
    ``dataclasses.replace`` — e.g. ``axes={"eps1": [...], "eps2":
    [...]}`` maps the countermeasure plane.  All points are submitted
    through :meth:`ScenarioService.query_many
    <repro.serve.service.ScenarioService.query_many>` before any is
    awaited, so cache-missing points land in one micro-batching window
    and compatible ones integrate as a single stacked system; repeated
    points (across calls, or with a shared cache) are answered from the
    content-addressed cache instead of re-integrating.

    Rows carry the axis values plus the scalar result fields
    (``r0``/``verdict``/``peak_infected``/``final_infected`` for
    trajectory scenarios) and the per-point serving telemetry
    (``spec_hash``, ``cache``, ``stacked``) — full time series stay
    available via ``service.cache.get(spec_hash)``.
    """
    from dataclasses import replace as dataclass_replace

    points = grid_points(axes)
    specs = [dataclass_replace(base, **point) for point in points]
    responses = service.query_many(specs)
    rows = []
    for point, response in zip(points, responses):
        row = dict(point)
        row.update({key: value for key, value in response.result.items()
                    if isinstance(value, (int, float, str, bool))})
        row["spec_hash"] = response.spec_hash
        row["cache"] = response.cache
        row["stacked"] = response.stacked
        rows.append(row)
    return SweepResult(tuple(axes), tuple(rows))
