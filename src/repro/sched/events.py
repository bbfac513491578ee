"""The discrete-event core of the batch schedulers and the fleet simulator.

The paper positions node-level COORD as the foundation of a cluster-wide
power scheduler (Sections 5.1 and 8).  Scaling that loop past a handful
of nodes needs a proper discrete-event simulation — jobs arriving from
traces, periodic cluster-wide budget re-splits, wake-me-up-at callbacks —
rather than the hand-rolled ``while pending or events`` loops the
schedulers grew up with.  This module is that core:

* four **typed events** — :class:`JobArrival`, :class:`JobCompletion`,
  :class:`BudgetResplit`, :class:`NodeWakeup` — with a fixed same-
  timestamp dispatch order (completions release power before arrivals
  are admitted; re-splits see the post-completion state);
* :class:`EventQueue` — a heap ordered by ``(time, kind, push order)``,
  so simultaneous events of one kind dispatch FIFO and replay is exactly
  deterministic;
* :class:`SchedulerHooks` — the pluggable policy surface.  The legacy
  :class:`~repro.sched.scheduler.PowerBoundedScheduler` and
  :class:`~repro.sched.rebalance.RebalancingScheduler` are hook policies
  on this core (their pre-event-core loops survive as ``run_legacy()``,
  the bit-for-bit oracle the differential battery in ``tests/test_fleet
  .py`` compares against), and :class:`~repro.sched.fleet.FleetSimulator`
  drives thousands of nodes through the same four hooks;
* :class:`EventLoop` — pops events in order and dispatches them.  The
  loop never advances a clock itself: hooks own simulated time (a stale,
  epoch-mismatched completion must *not* advance the legacy schedulers'
  clock), while the queue guarantees pop order is non-decreasing in
  timestamp regardless.

An optional per-event ``observer`` receives every dispatched event after
its hook returns — the property-test battery uses it to assert global
invariants (monotone dispatch order, the power bound holding at every
event boundary) without touching policy internals.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol

from repro.errors import SchedulerError

__all__ = [
    "BudgetResplit",
    "Event",
    "EventKind",
    "EventLoop",
    "EventQueue",
    "JobArrival",
    "JobCompletion",
    "NodeWakeup",
    "SchedulerHooks",
]


class EventKind(enum.IntEnum):
    """Event types, in same-timestamp dispatch order.

    Completions release nodes and power before anything else happening at
    the same instant; budget re-splits then rebalance the survivors; only
    then are same-instant arrivals admitted against the settled state;
    wake-ups run last.  This ordering is what makes the event-driven
    re-expression of the legacy schedulers bit-for-bit faithful: their
    hand-rolled loops popped completions before considering newly
    arrived jobs at the same timestamp.
    """

    COMPLETION = 0
    RESPLIT = 1
    ARRIVAL = 2
    WAKEUP = 3


@dataclass(frozen=True)
class Event:
    """Base event: a simulated timestamp plus a kind tag."""

    time_s: float

    #: Overridden by each concrete event type.
    kind: EventKind = field(init=False, default=EventKind.WAKEUP)

    def __post_init__(self) -> None:
        if not 0.0 <= self.time_s < math.inf:  # NaN fails both sides
            raise SchedulerError(
                f"event time must be finite and >= 0, got {self.time_s!r}"
            )


@dataclass(frozen=True)
class JobArrival(Event):
    """A job reaches the scheduler at its submit time."""

    kind: EventKind = field(init=False, default=EventKind.ARRIVAL)
    job_id: int = -1


@dataclass(frozen=True)
class JobCompletion(Event):
    """A running job's (possibly re-timed) finish.

    ``epoch`` implements lazy invalidation: policies that re-time a
    running job (boosts, budget re-splits) bump the slot's epoch and push
    a fresh completion; a popped completion whose epoch no longer matches
    the slot's is stale and must be ignored by the hook.
    """

    kind: EventKind = field(init=False, default=EventKind.COMPLETION)
    slot: int = -1
    epoch: int = 0


@dataclass(frozen=True)
class BudgetResplit(Event):
    """A periodic cluster-wide budget re-split point."""

    kind: EventKind = field(init=False, default=EventKind.RESPLIT)
    interval_s: float = 0.0


@dataclass(frozen=True)
class NodeWakeup(Event):
    """A wake-me-up-at callback (tagged so policies can multiplex)."""

    kind: EventKind = field(init=False, default=EventKind.WAKEUP)
    tag: str = ""


class EventQueue:
    """A deterministic min-heap of events.

    Ordering is ``(time_s, kind, push order)``: earliest first, then the
    :class:`EventKind` dispatch priority, then FIFO among exact ties — so
    a run is a pure function of the push sequence.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self.pushed = 0
        self.popped = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, event: Event) -> None:
        """Queue an event for dispatch."""
        heapq.heappush(
            self._heap, (event.time_s, int(event.kind), next(self._seq), event)
        )
        self.pushed += 1

    def pop(self) -> Event:
        """Remove and return the next event; raises when empty."""
        if not self._heap:
            raise SchedulerError("pop from an empty event queue")
        self.popped += 1
        return heapq.heappop(self._heap)[3]

    def peek(self) -> Optional[Event]:
        """The next event without removing it, or ``None`` when empty."""
        return self._heap[0][3] if self._heap else None


class SchedulerHooks(Protocol):
    """The pluggable policy surface of the event core.

    A policy receives every dispatched event through the hook matching
    its kind, plus :meth:`on_drain` when the queue runs dry while the
    policy may still hold undispatched work (jobs that can never start,
    a re-split chain to terminate, ...).  Hooks push follow-up events
    through the loop they are handed; simulated time is whatever the
    policy derives from the events it accepts.
    """

    def on_arrival(self, loop: "EventLoop", event: JobArrival) -> None:
        """A job reached its submit time."""

    def on_completion(self, loop: "EventLoop", event: JobCompletion) -> None:
        """A (possibly stale — check the epoch) completion fired."""

    def on_resplit(self, loop: "EventLoop", event: BudgetResplit) -> None:
        """A periodic budget re-split point fired."""

    def on_wakeup(self, loop: "EventLoop", event: NodeWakeup) -> None:
        """A wake-me-up-at callback fired."""

    def on_drain(self, loop: "EventLoop") -> bool:
        """The queue is empty.  Return ``True`` to keep the loop alive
        (the policy made progress or queued new events), ``False`` to
        end the run."""


#: Observer signature: called with each event after its hook returned.
EventObserver = Callable[["EventLoop", Event], None]


class EventLoop:
    """Pops events in deterministic order and dispatches them to hooks.

    The loop tracks ``last_dispatched_s`` purely as an ordering witness
    (the queue guarantees it never decreases); policies keep their own
    clocks because not every event advances simulated time — a stale
    completion is dispatched, detected, and discarded without the
    schedulers' ``now`` moving.
    """

    def __init__(
        self,
        hooks: SchedulerHooks,
        *,
        observer: Optional[EventObserver] = None,
    ) -> None:
        self.queue = EventQueue()
        self.hooks = hooks
        self.observer = observer
        self.last_dispatched_s = 0.0
        self.n_dispatched = 0

    def schedule(self, event: Event) -> None:
        """Queue an event (alias for ``queue.push`` that reads as intent)."""
        self.queue.push(event)

    def wake_me_up_at(self, time_s: float, tag: str = "") -> None:
        """Schedule a :class:`NodeWakeup` callback (batsim idiom)."""
        self.schedule(NodeWakeup(time_s, tag=tag))

    def run(self) -> int:
        """Dispatch until the queue drains and the policy yields.

        Returns the number of events dispatched.  The queue may be
        refilled by hooks (completions for admitted jobs, the next
        re-split in a chain) and by :meth:`SchedulerHooks.on_drain`
        returning ``True`` after queueing recovery work.
        """
        hooks = self.hooks
        # Indexed by EventKind: the same order as the enum values.
        handlers: tuple[Callable[["EventLoop", Any], None], ...] = (
            hooks.on_completion,
            hooks.on_resplit,
            hooks.on_arrival,
            hooks.on_wakeup,
        )
        queue = self.queue
        while True:
            if not queue:
                if not hooks.on_drain(self):
                    return self.n_dispatched
                continue
            event = queue.pop()
            if event.time_s < self.last_dispatched_s:  # pragma: no cover - heap law
                raise SchedulerError(
                    f"event at t={event.time_s} dispatched after "
                    f"t={self.last_dispatched_s}"
                )
            self.last_dispatched_s = event.time_s
            handlers[event.kind](self, event)
            self.n_dispatched += 1
            if self.observer is not None:
                self.observer(self, event)
