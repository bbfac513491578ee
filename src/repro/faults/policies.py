"""Resilience policy primitives shared by the instrumented layers.

Two building blocks cover every transient-fault response in the stack:

* :func:`retry_transient` — bounded re-attempt of an operation that can
  raise :class:`~repro.errors.TransientReadError` (meter counter reads,
  NVML queries, sweep-task execution).  Backoff is *simulated*: the
  schedule is recorded in the open degradation ledger but the library
  never sleeps, because wall-clock time is part of the simulation, not
  the host.
* :func:`strict_majority` — majority vote over repeated measurements
  (the profiler's noise defense).  Only a value that wins an outright
  majority of bit-identical samples is trusted; anything weaker is a
  typed degradation, never a silently averaged guess.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, TypeVar

from repro.errors import TransientReadError
from repro.faults.report import record

__all__ = ["backoff_schedule_s", "retry_transient", "strict_majority"]

T = TypeVar("T")


def backoff_schedule_s(base_s: float, attempts: int) -> tuple[float, ...]:
    """The simulated exponential backoff delays for ``attempts`` retries."""
    return tuple(base_s * (2.0**i) for i in range(max(0, attempts)))


def retry_transient(
    operation: Callable[[], T],
    *,
    site: str,
    max_attempts: int,
    backoff_base_s: float = 0.0,
) -> T:
    """Run ``operation``, retrying transient read failures.

    Re-raises the last :class:`~repro.errors.TransientReadError` once the
    attempt budget is exhausted; the caller wraps it in the site-specific
    terminal error (``MeterReadError``, ``NvmlReadError``, ...).  When a
    retry succeeds the recovery is recorded in the open
    :func:`~repro.faults.report.ledger` but does *not* taint it: the
    recovered value is the clean value.
    """
    attempts = max(1, int(max_attempts))
    last: Optional[TransientReadError] = None
    for attempt in range(attempts):
        try:
            value = operation()
        except TransientReadError as exc:
            last = exc
            continue
        if attempt > 0:
            delays = backoff_schedule_s(backoff_base_s, attempt)
            record(
                site,
                "retried",
                attempts=attempt + 1,
                detail=(
                    f"recovered after {attempt} transient failure(s); "
                    f"simulated backoff {sum(delays):.4g}s"
                ),
            )
        return value
    assert last is not None
    raise last


def strict_majority(samples: Sequence[T], *, total: int | None = None) -> Optional[T]:
    """The value holding a strict majority of ``samples``, or None.

    Equality is exact (bit-identical floats), which is the point: under
    the NOISE fault model the clean value repeats exactly while each
    noisy draw is distinct, so a strict majority certifies the clean
    measurement and anything short of it is untrustworthy.  Vote on
    values as sampled: a clamp applied first can map distinct draws
    onto one value.  ``total``
    raises the bar when some attempts produced no sample at all (an
    errored repeat still counts against the majority).
    """
    if not samples:
        return None
    threshold = max(len(samples), total or 0) // 2
    counts: dict[T, int] = {}
    for sample in samples:
        counts[sample] = counts.get(sample, 0) + 1
        if counts[sample] > threshold:
            return sample
    return None
