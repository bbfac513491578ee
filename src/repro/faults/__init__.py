"""Deterministic fault injection and resilience policies.

The subsystem has two halves:

* **injection** (:mod:`~repro.faults.plan`, :mod:`~repro.faults.injector`)
  — a seeded, JSON-loadable :class:`FaultPlan` armed process-wide via
  :func:`use_faults`, consulted by named hook points threaded through the
  hardware and engine layers.  Fully deterministic: the same plan against
  the same call sequence fires the same faults;
* **response** (:mod:`~repro.faults.policies`, :mod:`~repro.faults.report`)
  — bounded retries, majority-vote profiling, quarantine-and-rebuild, and
  worker resubmission, each applied at the layer where its fault lands
  (the meter, NVML, the profilers, the disk cache, the sweep engine), all
  upholding one contract: under any fault plan a public API either
  returns a result bit-identical to the clean run or raises/reports a
  typed degradation.  Never a silently wrong allocation.  Each site
  records its recovery in the innermost open :func:`ledger`, so a caller
  reads the classification of everything it ran with
  ``with ledger() as report:``.

:mod:`~repro.faults.contract` turns that invariant into an executable
check (the ``repro chaos`` CLI verb and the ``tests/test_faults.py``
suite drive it).

The contract layer imports :mod:`repro.core`, which in turn imports the
instrumented engine — so this package keeps it lazy (PEP 562) to stay
importable from deep inside the layers it instruments.
"""

from __future__ import annotations

from typing import Any

from repro.faults.injector import (
    FAULTS_ENV_VAR,
    FaultEvent,
    FaultInjector,
    active,
    arm,
    armed,
    disarm,
    use_faults,
)
from repro.faults.plan import SITES, FaultKind, FaultPlan, FaultSpec
from repro.faults.policies import backoff_schedule_s, retry_transient, strict_majority
from repro.faults.report import DegradationEvent, DegradationReport, ledger

__all__ = [
    "FAULTS_ENV_VAR",
    "SITES",
    "ChaosCheck",
    "ChaosReport",
    "DegradationEvent",
    "DegradationReport",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "active",
    "arm",
    "armed",
    "backoff_schedule_s",
    "disarm",
    "ledger",
    "retry_transient",
    "run_chaos",
    "strict_majority",
    "use_faults",
]

#: Lazily resolved exports → the submodule that defines them.
_LAZY = {
    "ChaosCheck": "repro.faults.contract",
    "ChaosReport": "repro.faults.contract",
    "run_chaos": "repro.faults.contract",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
