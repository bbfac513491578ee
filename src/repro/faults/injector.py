"""The process-wide fault injector.  # shared-state

A :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan` to
per-site call counters and answers, deterministically, "does a fault fire
at this call?".  Instrumented modules never import plans or schedules —
they call :func:`active` (cheap: one lock-free-read-equivalent under a
lock) and consult the injector only when one is armed, so the disarmed
hot path stays byte-for-byte the pre-fault behavior.

Arming is process-global because the injection points live deep inside
the hardware and engine layers where threading a handle through every
signature would distort the public API the paper-facing code uses.  The
global is guarded by a lock and the canonical entry point is the
:func:`use_faults` context manager, which restores the previous injector
on exit even when the body raises.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional

from contextlib import contextmanager

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec, fire_draw, noise_draw

__all__ = [
    "FAULTS_ENV_VAR",
    "FaultEvent",
    "FaultInjector",
    "active",
    "arm",
    "armed",
    "disarm",
    "use_faults",
]

#: Environment variable the CLI resolves into a global fault plan.
FAULTS_ENV_VAR = "REPRO_FAULTS"


class FaultEvent:
    """One fault firing: which spec fired, where, at which call."""

    __slots__ = ("site", "kind", "spec_index", "call_index", "amplitude")

    def __init__(
        self,
        site: str,
        kind: FaultKind,
        spec_index: int,
        call_index: int,
        amplitude: float,
    ) -> None:
        self.site = site
        self.kind = kind
        self.spec_index = int(spec_index)
        self.call_index = int(call_index)
        self.amplitude = float(amplitude)

    def __repr__(self) -> str:
        return (
            f"FaultEvent(site={self.site!r}, kind={self.kind.value!r}, "
            f"spec_index={self.spec_index}, call_index={self.call_index}, "
            f"amplitude={self.amplitude})"
        )


class FaultInjector:
    """Deterministic firing engine for one fault plan.

    Thread-safe: per-site call counters and the event log are guarded by
    an internal lock so a pool-backed sweep can consult one injector from
    many threads without double-counting calls.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self._fires: dict[int, int] = {}
        self._events: list[FaultEvent] = []

    # ------------------------------------------------------------------
    # firing decisions
    # ------------------------------------------------------------------
    def check(self, site: str) -> Optional[FaultEvent]:
        """Advance ``site``'s call counter; return the firing, if any.

        At most one spec fires per call (the lowest-indexed armed spec
        wins) so instrumented code handles a single fault mode per
        operation — matching how a real failed read presents.
        """
        with self._lock:
            call_index = self._calls.get(site, 0)
            self._calls[site] = call_index + 1
            for spec_index, spec in self.plan.specs_for(site):
                if not self._should_fire(spec_index, spec, call_index):
                    continue
                self._fires[spec_index] = self._fires.get(spec_index, 0) + 1
                event = FaultEvent(
                    site, spec.kind, spec_index, call_index, spec.amplitude
                )
                self._events.append(event)
                return event
            return None

    def _should_fire(self, spec_index: int, spec: FaultSpec, call_index: int) -> bool:
        if spec.max_fires is not None:
            if self._fires.get(spec_index, 0) >= spec.max_fires:
                return False
        if call_index in spec.at_calls:
            return True
        if spec.probability > 0.0:
            draw = fire_draw(self.plan.seed, spec.site, spec_index, call_index)
            return draw < spec.probability
        return False

    def noise(self, site: str, call_index: int) -> float:
        """Deterministic uniform in ``[-1, 1)`` keyed to the plan seed."""
        return noise_draw(self.plan.seed, site, call_index)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def events(self) -> tuple[FaultEvent, ...]:
        """Every fault fired so far, in firing order."""
        with self._lock:
            return tuple(self._events)

    def calls(self, site: str) -> int:
        """How many times ``site`` has been consulted."""
        with self._lock:
            return self._calls.get(site, 0)

    def reset(self) -> None:
        """Zero all counters and drop the event log (plan unchanged)."""
        with self._lock:
            self._calls.clear()
            self._fires.clear()
            self._events.clear()


# ---------------------------------------------------------------------------
# process-global arming
# ---------------------------------------------------------------------------

_ACTIVE_LOCK = threading.Lock()
_ACTIVE: Optional[FaultInjector] = None


def active() -> Optional[FaultInjector]:
    """The currently armed injector, or None when faults are disarmed.

    This is the only call on the disarmed hot path; instrumented modules
    guard every fault branch on its result being non-None.
    """
    with _ACTIVE_LOCK:
        return _ACTIVE


def armed() -> Optional[FaultInjector]:
    """The active injector when its plan is non-empty, else None.

    The one test of "armed" for every gate that trades a clean fast path
    for the fault schedule: the engine's batch kernel and plan replay,
    the profilers' majority vote, the service's profile memo and
    prefetch, and the batcher's coalescing.  An empty plan fires
    nothing, so it keeps every clean path.
    """
    injector = active()
    if injector is None or injector.plan.is_empty:
        return None
    return injector


def arm(plan_or_injector: FaultPlan | FaultInjector) -> FaultInjector:
    """Arm a fault plan process-wide; returns the installed injector."""
    global _ACTIVE
    injector = (
        plan_or_injector
        if isinstance(plan_or_injector, FaultInjector)
        else FaultInjector(plan_or_injector)
    )
    with _ACTIVE_LOCK:
        _ACTIVE = injector
    return injector


def disarm() -> None:
    """Disarm fault injection process-wide."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = None


@contextmanager
def use_faults(plan_or_injector: FaultPlan | FaultInjector) -> Iterator[FaultInjector]:
    """Arm a plan for the duration of a block, restoring the prior state.

    >>> with use_faults(plan) as injector:
    ...     sweep = cpu_budget_curve(...)
    ...     fired = injector.events()
    """
    global _ACTIVE
    injector = (
        plan_or_injector
        if isinstance(plan_or_injector, FaultInjector)
        else FaultInjector(plan_or_injector)
    )
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = injector
    try:
        yield injector
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE = previous
