"""Graceful degradation for the paper-facing coordination APIs.

These wrappers are the fault-aware front doors to profiling, COORD, and
the online controller.  Each returns ``(result, DegradationReport)`` and
upholds the degradation contract:

* with no injector armed they delegate straight to the clean
  implementation and return an empty report — zero-cost disarm;
* under an armed plan the result is either bit-identical to the clean
  run (recovered faults are recorded but do not taint the report) or the
  report is marked ``degraded`` / a :class:`~repro.errors.FaultError`
  is raised — a silently wrong allocation is never an outcome.

The profiling defense is a strict-majority vote: the measurement is
repeated ``plan.profile_repeats`` times and only a bit-identical majority
is trusted.  The vote runs on the values as sampled, before the
profiler's ordering clamps.  Under the NOISE model each perturbed raw
sample is distinct (draws are keyed to unique call indices) while clean
samples repeat exactly, so a strict majority certifies the clean
measurement; anything weaker raises
:class:`~repro.errors.ProfilingDegradedError`.  A clamped profile gives
no such guarantee: ``cpu_l2 = max(cpu_l2, cpu_l3)`` lifts every sample
whose noisy ``cpu_l2`` fell below ``cpu_l3`` to the same value, so two
different noise draws can yield bit-identical profiles.  The clamps
therefore run once, on the winner.
"""

from __future__ import annotations

from typing import Any

from repro.core.coord import CoordDecision, coord_cpu
from repro.core.coord_gpu import coord_gpu
from repro.core.critical import CpuCriticalPowers, GpuCriticalPowers
from repro.core.online import OnlineShiftResult, online_power_shift
from repro.core.profiler import (
    cpu_critical_powers,
    gpu_critical_powers,
    measure_cpu_workload,
    measure_gpu_workload,
    profile_cpu_workload,
    profile_gpu_workload,
)
from repro.errors import FaultError, ProfilingDegradedError, ReproError
from repro.faults.injector import FaultInjector, active
from repro.faults.policies import strict_majority
from repro.faults.report import DegradationReport
from repro.hardware.cpu import CpuDomain
from repro.hardware.dram import DramDomain
from repro.hardware.gpu import GpuCard
from repro.workloads.base import Workload

__all__ = [
    "coordinate_cpu_resilient",
    "coordinate_gpu_resilient",
    "online_shift_resilient",
    "profile_cpu_resilient",
    "profile_gpu_resilient",
]


def _site_events(injector: FaultInjector, site: str) -> int:
    return sum(1 for event in injector.events() if event.site == site)


def _sample_profiles(profile: Any, repeats: int) -> tuple[list[Any], int]:
    """Run a measuring closure ``repeats`` times, tolerating noisy wrecks.

    A noise burst can derail a measurement (a perturbed ``cpu_l1`` moves
    the bisection's upper end); such a repeat yields no sample but still
    counts against the majority (it was certainly not the clean run).
    """
    samples: list[Any] = []
    errored = 0
    for _ in range(repeats):
        try:
            samples.append(profile())
        except FaultError:
            raise
        except ReproError:
            errored += 1
    return samples, errored


def _vote(samples: list[Any], total: int, report: DegradationReport) -> Any:
    """Strict-majority vote over repeated raw measurements; typed error
    otherwise.  The error carries each sample's first value (``cpu_l1``
    or ``tot_max``)."""
    winner = strict_majority(samples, total=total)
    if winner is None:
        raise ProfilingDegradedError(
            "profiler.sample", tuple(float(s[0]) for s in samples)
        )
    disagreeing = total - sum(1 for s in samples if s == winner)
    if disagreeing:
        report.record(
            "profiler.sample",
            "majority-vote",
            attempts=total,
            detail=(
                f"{disagreeing} of {total} profiling repeat(s) were "
                f"noisy; strict majority certified the clean measurement"
            ),
        )
    return winner


def profile_cpu_resilient(
    cpu: CpuDomain,
    dram: DramDomain,
    workload: Workload,
) -> tuple[CpuCriticalPowers, DegradationReport]:
    """Profile a CPU workload, defending against profiling noise bursts."""
    report = DegradationReport()
    injector = active()
    if injector is None:
        return profile_cpu_workload(cpu, dram, workload), report
    repeats = injector.plan.profile_repeats
    samples, _ = _sample_profiles(
        lambda: measure_cpu_workload(cpu, dram, workload), repeats
    )
    return cpu_critical_powers(cpu, dram, _vote(samples, repeats, report)), report


def profile_gpu_resilient(
    card: GpuCard,
    workload: Workload,
) -> tuple[GpuCriticalPowers, DegradationReport]:
    """Profile a GPU workload, defending against profiling noise bursts."""
    report = DegradationReport()
    injector = active()
    if injector is None:
        return profile_gpu_workload(card, workload), report
    repeats = injector.plan.profile_repeats
    samples, _ = _sample_profiles(
        lambda: measure_gpu_workload(card, workload), repeats
    )
    return gpu_critical_powers(card, _vote(samples, repeats, report)), report


def coordinate_cpu_resilient(
    cpu: CpuDomain,
    dram: DramDomain,
    workload: Workload,
    budget_w: float,
    *,
    strict: bool = False,
) -> tuple[CoordDecision, DegradationReport]:
    """Profile-then-COORD for CPUs with the degradation contract attached.

    COORD itself (Algorithm 1) is pure arithmetic over the profile, so
    once the majority vote certifies the critical powers the decision is
    the clean decision; all recoverable faults live in the profiling leg.
    """
    critical, report = profile_cpu_resilient(cpu, dram, workload)
    return coord_cpu(critical, budget_w, strict=strict), report


def coordinate_gpu_resilient(
    card: GpuCard,
    workload: Workload,
    budget_w: float,
    *,
    gamma: float = 0.5,
) -> tuple[CoordDecision, DegradationReport]:
    """Profile-then-COORD for GPUs with the degradation contract attached."""
    critical, report = profile_gpu_resilient(card, workload)
    decision = coord_gpu(
        critical, budget_w, hardware_max_w=card.max_cap_w, gamma=gamma
    )
    return decision, report


def online_shift_resilient(
    cpu: CpuDomain,
    dram: DramDomain,
    workload: Workload,
    budget_w: float,
    **kwargs: Any,
) -> tuple[OnlineShiftResult, DegradationReport]:
    """Run the online controller, reporting any noisy-signal epochs.

    The controller steers on the bottleneck signal, so injected NOISE can
    send it down a different (still budget-respecting) trajectory.  The
    returned allocation is always *valid* — every candidate was simulated
    cleanly and the best bound-respecting one wins — but when any epoch
    steered on a perturbed signal the report is marked ``degraded``:
    the result may be suboptimal relative to the clean run and callers
    must not treat it as the oracle.
    """
    report = DegradationReport()
    injector = active()
    before = 0 if injector is None else _site_events(injector, "online.signal")
    result = online_power_shift(cpu, dram, workload, budget_w, **kwargs)
    after = 0 if injector is None else _site_events(injector, "online.signal")
    if after > before:
        report.record(
            "online.signal",
            "noisy-signal",
            attempts=after - before,
            detail=(
                f"{after - before} epoch(s) steered on a perturbed "
                f"bottleneck signal; allocation valid but possibly suboptimal"
            ),
            degrades=True,
        )
    return result, report
