"""Typed degradation reporting, recorded where each fault lands.

The degradation contract (see ``docs/robustness.md``) allows exactly two
outcomes for a public API under an armed fault plan: a result
bit-identical to the clean run, or a *typed* signal that quality was
lost — either an exception from the :class:`~repro.errors.FaultError`
family or a :class:`DegradationReport` marked ``degraded`` for an
otherwise valid result.  A report never excuses a wrong answer; it marks
an answer that is valid but was produced on a degraded path (retries
burned, noisy signal tolerated, fallback taken) so callers can decide
whether to re-run or accept.  ``with ledger() as report:`` collects what
the recovery sites :func:`record` inside the block, in its thread or
task; sites record only after a fault fired.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any

__all__ = ["DegradationEvent", "DegradationReport", "ledger", "record"]


@dataclass(frozen=True)
class DegradationEvent:
    """One recovery action taken on the degraded path."""

    #: Injection site the fault surfaced at (e.g. ``"rapl.read"``).
    site: str
    #: What the policy did: ``"retried"``, ``"quarantined"``,
    #: ``"resubmitted"``, ``"noisy-signal"``, ``"majority-vote"``, ...
    action: str
    #: How many attempts/samples the recovery consumed.
    attempts: int = 1
    #: Human-readable context (fault kind, segment name, call index...).
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "site": self.site,
            "action": self.action,
            "attempts": self.attempts,
            "detail": self.detail,
        }


@dataclass
class DegradationReport:
    """The typed record of everything recovered from during one operation.

    ``degraded`` is True when any event perturbed the *quality* of the
    result (e.g. the online controller steered on a noisy signal), as
    opposed to events that were fully absorbed (a retried read that then
    returned the clean value keeps ``degraded`` False).
    """

    events: list[DegradationEvent] = field(default_factory=list)
    degraded: bool = False

    @property
    def clean(self) -> bool:
        """True when nothing at all was recovered from."""
        return not self.events

    def to_dict(self) -> dict[str, Any]:
        return {
            "degraded": self.degraded,
            "events": [event.to_dict() for event in self.events],
        }

    def summary(self) -> str:
        if self.clean:
            return "clean (no faults encountered)"
        status = "degraded" if self.degraded else "recovered"
        return f"{status}: {len(self.events)} recovery event(s)"


#: The innermost open :func:`ledger` of the running context, if any.
_OPEN: ContextVar[DegradationReport | None] = ContextVar("ledger", default=None)


@contextmanager
def ledger() -> Iterator[DegradationReport]:
    """Collect the events recorded inside the block (innermost ledger only)."""
    report = DegradationReport()
    token = _OPEN.set(report)
    try:
        yield report
    finally:
        _OPEN.reset(token)


def record(
    site: str,
    action: str,
    *,
    attempts: int = 1,
    detail: str = "",
    degrades: bool = False,
) -> None:
    """Append one event to the open ledger, if any; ``degrades`` taints it."""
    report = _OPEN.get()
    if report is not None:
        report.events.append(DegradationEvent(site, action, attempts, detail))
        report.degraded = report.degraded or degrades
