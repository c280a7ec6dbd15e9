"""Structured logging: leveled stderr lines plus manifest ``log`` events.

The library's one logging convention: a *log record* is an event name
(dotted, stable, grep-able — ``"health.solver_rejections"``) plus
structured fields, never a pre-formatted sentence.  Each record goes two
places:

* **stderr**, as a single ``level name key=value ...`` line, when the
  record's level clears the process threshold (:func:`set_level`, CLI
  ``--log-level``; default ``warning``);
* **the run manifest**, as a ``log`` event, whenever an observer is
  installed — regardless of the stderr threshold, so traces keep the
  full record even for quiet runs.

Repeated warnings can be collapsed with ``once=<key>``: the first
record with a given key is emitted, later ones are dropped (per
process) — for conditions worth saying exactly once.  For
recurring conditions that should stay *visible* without flooding (the
health watchdog alarms), ``every_n=``/``min_interval=`` rate-limit by
event name instead of dropping forever: a record is re-emitted after
``every_n`` suppressed occurrences or ``min_interval`` seconds,
whichever comes first, and carries a ``suppressed`` count.
"""

from __future__ import annotations

import sys
import time
from typing import TextIO

from repro.exceptions import ParameterError
from repro.obs.trace import get_observer

__all__ = ["LEVELS", "set_level", "get_level", "log", "debug", "info",
           "warning", "error", "reset_once"]

LEVELS: dict[str, int] = {"debug": 10, "info": 20, "warning": 30,
                          "error": 40}

_threshold = LEVELS["warning"]
_once_seen: set[str] = set()
#: Rate-limit state per key: (suppressed since last emit, last emit time).
_rate_state: dict[str, tuple[int, float]] = {}


def set_level(level: str) -> None:
    """Set the stderr threshold (``debug``/``info``/``warning``/``error``)."""
    global _threshold
    try:
        _threshold = LEVELS[str(level).lower()]
    except KeyError:
        raise ParameterError(
            f"unknown log level {level!r}; choose from {sorted(LEVELS)}"
        ) from None


def get_level() -> str:
    """Current stderr threshold name."""
    return next(name for name, rank in LEVELS.items() if rank == _threshold)


def reset_once() -> None:
    """Forget ``once=`` dedup keys and rate-limit state (test isolation)."""
    _once_seen.clear()
    _rate_state.clear()


def _rate_limited(key: str, every_n: int | None,
                  min_interval: float | None) -> tuple[bool, int]:
    """Decide whether a rate-limited record passes; returns
    ``(suppress, suppressed_count)`` and updates the per-key state."""
    now = time.monotonic()
    state = _rate_state.get(key)
    if state is None:
        _rate_state[key] = (0, now)
        return False, 0
    suppressed, last_emit = state
    due = ((every_n is not None and suppressed + 1 >= every_n)
           or (min_interval is not None and now - last_emit >= min_interval))
    if due:
        _rate_state[key] = (0, now)
        return False, suppressed + 1
    _rate_state[key] = (suppressed + 1, last_emit)
    return True, suppressed + 1


def log(level: str, event: str, *, once: str | None = None,
        every_n: int | None = None, min_interval: float | None = None,
        stream: TextIO | None = None, **fields: object) -> bool:
    """Emit one structured record; returns whether it was emitted.

    ``once`` deduplicates by key per process.  ``every_n`` /
    ``min_interval`` rate-limit by ``event`` name (the first record
    passes; later ones pass after ``every_n`` suppressed occurrences or
    ``min_interval`` seconds, whichever comes first, stamped with the
    ``suppressed`` count).  ``stream`` overrides stderr (tests).
    Unknown levels raise :class:`~repro.exceptions.ParameterError`.
    """
    if level not in LEVELS:
        raise ParameterError(
            f"unknown log level {level!r}; choose from {sorted(LEVELS)}")
    if every_n is not None and every_n < 1:
        raise ParameterError(f"every_n must be >= 1, got {every_n}")
    if min_interval is not None and min_interval < 0:
        raise ParameterError(
            f"min_interval must be >= 0, got {min_interval}")
    if once is not None:
        if once in _once_seen:
            return False
        _once_seen.add(once)
    if every_n is not None or min_interval is not None:
        suppress, missed = _rate_limited(event, every_n, min_interval)
        if suppress:
            return False
        if missed:
            fields["suppressed"] = missed
    observer = get_observer()
    if observer is not None:
        observer.emit("log", level=level, event=event, fields=dict(fields))
    if LEVELS[level] >= _threshold:
        rendered = " ".join(f"{key}={value!r}"
                            for key, value in fields.items())
        print(f"[{level}] {event}" + (f" {rendered}" if rendered else ""),
              file=stream if stream is not None else sys.stderr)
    return True


def debug(event: str, **fields: object) -> bool:
    return log("debug", event, **fields)


def info(event: str, **fields: object) -> bool:
    return log("info", event, **fields)


def warning(event: str, **fields: object) -> bool:
    return log("warning", event, **fields)


def error(event: str, **fields: object) -> bool:
    return log("error", event, **fields)
