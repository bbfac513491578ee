"""The discrete-event core of the batch schedulers and the fleet simulator.

The paper positions node-level COORD as the foundation of a cluster-wide
power scheduler (Sections 5.1 and 8).  Scaling that loop past a handful
of nodes needs a proper discrete-event simulation — jobs arriving from
traces, periodic cluster-wide budget re-splits, wake-me-up-at callbacks.
This module is that core:

* four **typed events** — :class:`JobArrival`, :class:`JobCompletion`,
  :class:`BudgetResplit`, :class:`NodeWakeup` — with a fixed same-
  timestamp dispatch order (completions release power before arrivals
  are admitted; re-splits see the post-completion state).  Events are
  immutable values: tuples underneath, built without per-field
  ``setattr``, equal and hashed by type and fields, with ``kind`` an
  :class:`EventKind` class constant;
* :class:`EventQueue` — a heap ordered by ``(time, kind, push order)``,
  so simultaneous events of one kind dispatch FIFO and replay is exactly
  deterministic;
* :class:`SchedulerHooks` — the pluggable policy surface.  The batch
  :class:`~repro.sched.scheduler.PowerBoundedScheduler` and
  :class:`~repro.sched.rebalance.RebalancingScheduler` are hook policies
  on this core (``tests/golden/sched_histories.json`` pins their
  histories), and :class:`~repro.sched.fleet.FleetSimulator` drives
  thousands of nodes through the same hooks;
* :class:`EventLoop` — merges the heap with a time-ordered stream of
  arrivals and dispatches each event to its hook.  The stream never
  enters the heap, yet the dispatch order is exactly the one pushing the
  whole stream at the start of :meth:`EventLoop.run` would give.  The
  loop never advances a clock itself: hooks own simulated time (the fleet
  ignores a stale, epoch-mismatched completion; the rebalancer still
  sweeps its queue at that instant), while the loop guarantees dispatch
  order is non-decreasing in timestamp.

An optional per-event ``observer`` receives every dispatched event after
its hook returns — the property-test battery uses it to assert global
invariants (monotone dispatch order, the power bound holding at every
event boundary) without touching policy internals.
"""

from __future__ import annotations

import enum
import heapq
import math
from typing import (
    Any,
    Callable,
    ClassVar,
    Iterable,
    NamedTuple,
    Optional,
    Protocol,
)

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
    wake-ups run last.  So a job finishing at the instant another
    arrives frees its node and watts before the arrival is considered.
    """

    COMPLETION = 0
    RESPLIT = 1
    ARRIVAL = 2
    WAKEUP = 3


def _bad_time(time_s: object) -> SchedulerError:
    return SchedulerError(f"event time must be finite and >= 0, got {time_s!r}")


class Event(tuple[Any, ...]):
    """Base of the four event types: a simulated timestamp plus a kind.

    Each concrete type is an immutable tuple of its fields (``time_s``
    first) with ``kind`` as a class constant.  Equality and hashing take
    the type into account, so events of different kinds never compare
    equal even when their fields do.
    """

    __slots__ = ()

    #: The dispatch priority; each concrete event type sets its own.
    kind: ClassVar[EventKind]
    time_s: float

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        # tuple's own __ne__ would compare fields only.
        return not self == other

    def __hash__(self) -> int:
        return hash((type(self), tuple(self)))


_ArrivalFields = NamedTuple("_ArrivalFields", [("time_s", float), ("job_id", int)])
_CompletionFields = NamedTuple(
    "_CompletionFields", [("time_s", float), ("slot", int), ("epoch", int)]
)
_ResplitFields = NamedTuple(
    "_ResplitFields", [("time_s", float), ("interval_s", float)]
)
_WakeupFields = NamedTuple("_WakeupFields", [("time_s", float), ("tag", str)])


class JobArrival(_ArrivalFields, Event):
    """A job reaches the scheduler at its submit time."""

    __slots__ = ()
    kind = EventKind.ARRIVAL

    def __new__(cls, time_s: float, job_id: int = -1) -> JobArrival:
        if not 0.0 <= time_s < math.inf:  # NaN fails both sides
            raise _bad_time(time_s)
        return tuple.__new__(cls, (time_s, job_id))


class JobCompletion(_CompletionFields, Event):
    """A running job's (possibly re-timed) finish.

    ``epoch`` implements lazy invalidation: policies that re-time a
    running job (boosts, budget re-splits) bump the slot's epoch and push
    a fresh completion; a popped completion whose epoch no longer matches
    the slot's is stale, and the hook must not complete the job for it.
    """

    __slots__ = ()
    kind = EventKind.COMPLETION

    def __new__(cls, time_s: float, slot: int = -1, epoch: int = 0) -> JobCompletion:
        if not 0.0 <= time_s < math.inf:
            raise _bad_time(time_s)
        return tuple.__new__(cls, (time_s, slot, epoch))


class BudgetResplit(_ResplitFields, Event):
    """A periodic cluster-wide budget re-split point."""

    __slots__ = ()
    kind = EventKind.RESPLIT

    def __new__(cls, time_s: float, interval_s: float = 0.0) -> BudgetResplit:
        if not 0.0 <= time_s < math.inf:
            raise _bad_time(time_s)
        return tuple.__new__(cls, (time_s, interval_s))


class NodeWakeup(_WakeupFields, Event):
    """A wake-me-up-at callback (tagged so policies can multiplex)."""

    __slots__ = ()
    kind = EventKind.WAKEUP

    def __new__(cls, time_s: float, tag: str = "") -> NodeWakeup:
        if not 0.0 <= time_s < math.inf:
            raise _bad_time(time_s)
        return tuple.__new__(cls, (time_s, tag))


class EventQueue:
    """A deterministic min-heap of events.

    Ordering is ``(time_s, kind, push order)``: earliest first, then the
    :class:`EventKind` dispatch priority, then FIFO among exact ties — so
    a run is a pure function of the push sequence.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, EventKind, int, Event]] = []
        #: Events pushed so far; each push's order is its count before it.
        self.pushed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def popped(self) -> int:
        """Events removed so far (only :meth:`pop` and the loop remove)."""
        return self.pushed - len(self._heap)

    def push(self, event: Event) -> None:
        """Queue an event for dispatch."""
        heapq.heappush(self._heap, (event.time_s, event.kind, self.pushed, event))
        self.pushed += 1

    def pop(self) -> Event:
        """Remove and return the next event; raises when empty."""
        if not self._heap:
            raise SchedulerError("pop from an empty event queue")
        return heapq.heappop(self._heap)[3]

    def peek(self) -> Optional[Event]:
        """The next event without removing it, or ``None`` when empty."""
        return self._heap[0][3] if self._heap else None


class SchedulerHooks(Protocol):
    """The pluggable policy surface of the event core.

    A policy receives every dispatched event through the hook matching
    its kind, plus :meth:`on_drain` when the queue and the arrival stream
    run dry while the policy may still hold undispatched work (jobs that
    can never start, a re-split chain to terminate, ...).  Hooks push follow-up events
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
        """The queue and the arrival stream are both empty.  Return
        ``True`` to keep the loop alive (the policy made progress or
        queued new events), ``False`` to end the run."""


#: Observer signature: called with each event after its hook returned.
EventObserver = Callable[["EventLoop", Event], None]


class EventLoop:
    """Dispatches the queue and an arrival stream in deterministic order.

    The loop tracks ``last_dispatched_s`` purely as an ordering witness
    (dispatch never goes back in time); policies keep their own clocks
    because not every event advances simulated time — the fleet
    discards a stale completion without its ``now`` moving.
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

    def run(self, *, arrivals: Iterable[JobArrival] = ()) -> int:
        """Dispatch until the queue and ``arrivals`` drain and the policy
        yields.

        ``arrivals`` is a time-ordered stream of :class:`JobArrival`
        events, merged with the queue instead of pushed into it: each
        dispatches after same-instant completions, re-splits and already
        queued arrivals, and before same-instant wake-ups and anything
        hooks push later — exactly the order pushing the whole stream
        first would give.  An arrival earlier than the one before it
        raises :class:`~repro.errors.SchedulerError`.

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
        observer = self.observer
        heap = self.queue._heap
        heappop = heapq.heappop
        arrival_kind = EventKind.ARRIVAL
        # An arrival's heap key, had it been pushed now: its push order
        # falls after every queued event and before every later push.
        tie = self.queue.pushed - 0.5
        stream = iter(arrivals)
        arrival = next(stream, None)
        key = None if arrival is None else (arrival.time_s, arrival_kind, tie)
        while True:
            event: Event
            if heap and (key is None or heap[0] < key):
                event = heappop(heap)[3]
            elif arrival is not None:
                event = arrival
                arrival = next(stream, None)
                if arrival is None:
                    key = None
                elif arrival.time_s < event.time_s:
                    raise SchedulerError(
                        f"arrival at t={arrival.time_s} follows one at "
                        f"t={event.time_s}: the stream must be time-ordered"
                    )
                else:
                    key = (arrival.time_s, arrival_kind, tie)
            elif hooks.on_drain(self):
                continue
            else:
                return self.n_dispatched
            if event.time_s < self.last_dispatched_s:
                raise SchedulerError(
                    f"event at t={event.time_s} dispatched after "
                    f"t={self.last_dispatched_s}"
                )
            self.last_dispatched_s = event.time_s
            handlers[event.kind](self, event)
            self.n_dispatched += 1
            if observer is not None:
                observer(self, event)
