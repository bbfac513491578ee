"""Lightweight application profiling for the COORD heuristics.

The paper's selling point over prior work is that COORD needs only a
handful of profiling runs per application (Section 5, "eliminates the need
of exhaustive or fine-grain profiling"):

* one uncapped run → ``P_cpu_L1`` and ``P_mem_L1``;
* one floor-capped run → ``P_cpu_L3`` and ``P_mem_L2``;
* a short bisection on the CPU cap to find the lowest-P-state boundary
  ``P_cpu_L2`` (a dozen short runs — the paper equivalently reads the
  P-state table);
* ``P_cpu_L4`` / ``P_mem_L3`` are hardware constants, read once per node.

GPU profiling needs just two runs per application (``P_tot_max`` at the
default cap, ``P_tot_ref`` at the minimum SM pairing clock) plus per-card
constants.

Each profile is two steps: ``_measure_*_workload`` returns the values as
sampled, and ``_*_critical_powers`` clamps them into their documented
order and attaches the hardware constants.  With a fault plan armed,
:func:`_voted` certifies the measurement by majority vote between the
two steps, because the clamps can map distinct noisy samples onto one
value.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TypeVar

from repro.errors import FaultError, ProfilingDegradedError, ProfilingError, ReproError
from repro.core.critical import CpuCriticalPowers, GpuCriticalPowers
from repro.faults.injector import active as _faults_active, armed
from repro.faults.policies import strict_majority
from repro.faults.report import DegradationReport
from repro.hardware.component import CappingMechanism
from repro.hardware.cpu import CpuDomain
from repro.hardware.dram import DramDomain
from repro.hardware.gpu import GpuCard
from repro.hardware.gpu_sm import GpuSmOperatingPoint
from repro.perfmodel.executor import execute_on_host
from repro.perfmodel.phase import Phase
from repro.workloads.base import Workload

__all__ = ["profile_cpu_workload", "profile_gpu_workload"]

#: Bisection resolution for the P-state boundary, in watts.
_BISECT_TOL_W = 0.25

_Sample = TypeVar("_Sample", bound=tuple[float, ...])


def _measured(value: float) -> float:
    """Fault-injection site ``"profiler.sample"`` (measurement noise).

    Every critical power value passes through here as it is "measured".
    An armed NOISE fault multiplies the measurement by
    ``1 + amplitude * u`` with a deterministic ``u ∈ [-1, 1)`` — modeling
    a meter glitch or an interfering co-runner during the profiling run.
    Disarmed, the value passes through untouched.  The profilers defend
    by majority vote over repeated measurements (:func:`_voted`).
    """
    injector = _faults_active()
    if injector is None:
        return value
    event = injector.check("profiler.sample")
    if event is None:
        return value
    return value * (1.0 + event.amplitude * injector.noise("profiler.sample", event.call_index))


def _any_throttled(result) -> bool:
    return any(
        p.proc_mechanism in (CappingMechanism.THROTTLE, CappingMechanism.FLOOR)
        or p.proc_duty < 1.0
        for p in result.phases
    )


def _voted(
    measure: Callable[[], _Sample], report: DegradationReport | None
) -> _Sample:
    """One measurement, or the strict majority of repeats when armed.

    With no non-empty plan armed (:func:`repro.faults.armed`) this is a
    single call of ``measure``.  Armed, ``measure`` runs
    ``plan.profile_repeats`` times and only a bit-identical strict
    majority is trusted; anything weaker raises
    :class:`~repro.errors.ProfilingDegradedError`, carrying each
    sample's first value (``cpu_l1`` or ``tot_max``).  Under the NOISE
    model each perturbed raw sample is distinct (draws are keyed to
    unique call indices) while clean samples repeat exactly, so the
    winner is the clean measurement.  A repeat that noise derails (a
    perturbed ``cpu_l1`` moves the bisection's upper end) yields no
    sample but still counts against the majority.  When some repeats
    lost the vote, ``report`` receives one non-degrading
    ``"majority-vote"`` event.
    """
    injector = armed()
    if injector is None:
        return measure()
    total = injector.plan.profile_repeats
    samples: list[_Sample] = []
    for _ in range(total):
        try:
            samples.append(measure())
        except FaultError:
            raise
        except ReproError:
            continue
    winner = strict_majority(samples, total=total)
    if winner is None:
        raise ProfilingDegradedError(
            "profiler.sample", tuple(float(s[0]) for s in samples)
        )
    disagreeing = total - samples.count(winner)
    if disagreeing and report is not None:
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


def profile_cpu_workload(
    cpu: CpuDomain,
    dram: DramDomain,
    workload: Workload,
    *,
    report: DegradationReport | None = None,
) -> CpuCriticalPowers:
    """Extract the seven critical power values for a CPU workload.

    Under an armed fault plan the measurement is certified by majority
    vote (:func:`_voted`).  ``report`` only receives the vote's event;
    it changes no result.
    """
    if workload.device != "cpu":
        raise ProfilingError(
            f"workload {workload.name!r} targets {workload.device!r}, not cpu"
        )
    measured = _voted(lambda: _measure_cpu_workload(cpu, dram, workload), report)
    return _cpu_critical_powers(cpu, dram, measured)


def _measure_cpu_workload(
    cpu: CpuDomain,
    dram: DramDomain,
    workload: Workload,
) -> tuple[float, float, float, float, float]:
    """The five measured CPU critical powers, as sampled:
    ``(cpu_l1, cpu_l2, cpu_l3, mem_l1, mem_l2)``."""
    phases = workload.phases
    uncapped_cpu = cpu.max_power_w + 1.0
    uncapped_mem = dram.max_power_w + 1.0

    # Run 1: both domains unconstrained -> maximum demands.  Maxima are
    # taken over phases, not time-averaged: a cap at the run average would
    # throttle the hottest phase of a multi-phase application (BT, MG),
    # and the paper defines L1 as the *maximum* power consumption.
    r_full = execute_on_host(cpu, dram, phases, uncapped_cpu, uncapped_mem)
    cpu_l1 = _measured(max(p.proc_power_w for p in r_full.phases))
    mem_l1 = _measured(max(p.mem_power_w for p in r_full.phases))

    # Run 2: CPU forced to its floor -> L3 and the matching DRAM power.
    r_floor = execute_on_host(cpu, dram, phases, 0.0, uncapped_mem)
    cpu_l3 = _measured(max(p.proc_power_w for p in r_floor.phases))
    mem_l2 = _measured(max(p.mem_power_w for p in r_floor.phases))

    # Bisection: the smallest CPU cap that avoids clock throttling.  This
    # is the boundary between the P-state range and the T-state range.
    lo, hi = cpu.floor_power_w, cpu_l1 + 1.0
    r_hi = execute_on_host(cpu, dram, phases, hi, uncapped_mem)
    # Only injected noise that shrinks cpu_l1 can trip this.
    if _any_throttled(r_hi):
        raise ProfilingError(
            f"workload {workload.name!r} throttles even uncapped"
        )
    while hi - lo > _BISECT_TOL_W:
        mid = 0.5 * (lo + hi)
        r_mid = execute_on_host(cpu, dram, phases, mid, uncapped_mem)
        if _any_throttled(r_mid):
            lo = mid
        else:
            hi = mid
    r_l2 = execute_on_host(cpu, dram, phases, hi, uncapped_mem)
    cpu_l2 = _measured(max(p.proc_power_w for p in r_l2.phases))
    return cpu_l1, cpu_l2, cpu_l3, mem_l1, mem_l2


def _cpu_critical_powers(
    cpu: CpuDomain,
    dram: DramDomain,
    measured: tuple[float, float, float, float, float],
) -> CpuCriticalPowers:
    """Order the :func:`_measure_cpu_workload` values and add the floors."""
    cpu_l1, cpu_l2, cpu_l3, mem_l1, mem_l2 = measured
    cpu_l4 = cpu.floor_power_w
    mem_l3 = dram.floor_power_w
    # Floors are physical lower bounds; numerically the floor-capped run can
    # report L3 a hair under L4, so clamp the ordering.
    cpu_l3 = max(cpu_l3, cpu_l4)
    cpu_l2 = max(cpu_l2, cpu_l3)
    cpu_l1 = max(cpu_l1, cpu_l2)
    return CpuCriticalPowers(
        cpu_l1=cpu_l1,
        cpu_l2=cpu_l2,
        cpu_l3=cpu_l3,
        cpu_l4=cpu_l4,
        mem_l1=mem_l1,
        mem_l2=mem_l2,
        mem_l3=mem_l3,
    )


def _pinned_gpu_total_w(
    card: GpuCard,
    phases: Sequence[Phase],
    sm_freq_ghz: float,
    mem_freq_mhz: float,
) -> float:
    """Time-weighted board power with both clocks pinned (no governor)."""
    mem_op = card.mem.operating_point(mem_freq_mhz)
    sm_op = GpuSmOperatingPoint(sm_freq_ghz, CappingMechanism.DVFS)
    total_t = 0.0
    total_e = 0.0
    for phase in phases:
        rate = (
            card.sm.compute_rate_flops(sm_op, phase.compute_efficiency)
            if phase.flops > 0.0
            else float("inf")
        )
        mem_rate = (
            card.mem.bandwidth_ceiling_gbps(mem_op, phase.memory_efficiency) * 1e9
            if phase.bytes_moved > 0.0
            else float("inf")
        )
        t_c = phase.flops / rate if phase.flops > 0.0 else 0.0
        t_m = phase.bytes_moved / mem_rate if phase.bytes_moved > 0.0 else 0.0
        t = max(t_c, t_m)
        u = t_c / t if t > 0 else 0.0
        busy = t_m / t if t > 0 else 0.0
        a_eff = phase.activity * u + phase.stall_activity * (1.0 - u)
        sm_p = card.sm.demand_w(sm_op, a_eff)
        mem_p = card.mem.demand_w(mem_op, busy)
        total_t += t
        total_e += t * card.total_power_w(sm_p, mem_p)
    if total_t <= 0.0:
        raise ProfilingError("GPU workload produced zero execution time")
    return total_e / total_t


def profile_gpu_workload(
    card: GpuCard,
    workload: Workload,
    *,
    report: DegradationReport | None = None,
) -> GpuCriticalPowers:
    """Extract the GPU COORD parameters for a workload on a card.

    Under an armed fault plan the measurement is certified by majority
    vote (:func:`_voted`).  ``report`` only receives the vote's event;
    it changes no result.
    """
    if workload.device != "gpu":
        raise ProfilingError(
            f"workload {workload.name!r} targets {workload.device!r}, not gpu"
        )
    measured = _voted(lambda: _measure_gpu_workload(card, workload), report)
    return _gpu_critical_powers(card, measured)


def _measure_gpu_workload(
    card: GpuCard, workload: Workload
) -> tuple[float, float, float]:
    """The three measured GPU total powers, as sampled:
    ``(tot_max, tot_ref, tot_min)``."""
    phases = workload.phases
    tot_max = _measured(
        _pinned_gpu_total_w(
            card, phases, card.sm.pstates.f_nom_ghz, card.mem.nominal_mhz
        )
    )
    tot_ref = _measured(
        _pinned_gpu_total_w(
            card, phases, card.sm.pstates.f_min_ghz, card.mem.nominal_mhz
        )
    )
    tot_min = _measured(
        _pinned_gpu_total_w(
            card, phases, card.sm.pstates.f_min_ghz, card.mem.min_mhz
        )
    )
    return tot_max, tot_ref, tot_min


def _gpu_critical_powers(
    card: GpuCard, measured: tuple[float, float, float]
) -> GpuCriticalPowers:
    """Cap and order the :func:`_measure_gpu_workload` values and add the
    card's memory constants."""
    tot_max, tot_ref, tot_min = measured
    # "Total power when no cap is imposed": the driver still enforces the
    # hardware maximum, which is exactly how the paper observes SGEMM
    # "demands more than 300 Watts" without ever measuring more than 300.
    tot_max = min(tot_max, card.max_cap_w)
    # Keep the documented ordering even for degenerate workloads whose
    # busy fraction rises as clocks fall.
    tot_ref = min(tot_ref, tot_max)
    tot_min = min(tot_min, tot_ref)
    return GpuCriticalPowers(
        tot_max=tot_max,
        tot_ref=tot_ref,
        tot_min=tot_min,
        mem_min=card.mem.floor_power_w,
        mem_max=card.mem.max_power_w,
    )
