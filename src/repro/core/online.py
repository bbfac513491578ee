"""Online feedback power shifting — a profiling-free comparison point.

Prior work the paper discusses (Hanson et al., Chen et al. [10, 20])
shifts power between processor and memory with a runtime feedback loop
instead of ahead-of-time profiling.  This module implements that approach
against the same execution model so COORD can be compared with it:

* start from an application-oblivious split of the budget;
* run a (short) measurement epoch;
* shift a power quantum toward the bottleneck domain — toward memory when
  the memory bus is saturated while cores stall, toward the CPU when cores
  are busy while the bus idles;
* shrink the quantum when the shift direction flips (the controller is a
  signed bisection), and stop when the quantum underflows or performance
  stops improving.

The controller converges to a near-balanced allocation without any prior
knowledge, at the cost of the epochs it burns exploring — exactly the
trade-off the paper's lightweight-profiling pitch is about.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import PowerAllocation
from repro.errors import ConfigurationError
from repro.faults.injector import active as _faults_active
from repro.faults.report import record
from repro.hardware.cpu import CpuDomain
from repro.hardware.dram import DramDomain
from repro.perfmodel.executor import execute_on_host
from repro.util.units import check_positive, watts
from repro.workloads.base import Workload

__all__ = ["OnlineShiftResult", "online_power_shift"]


@dataclass(frozen=True)
class OnlineShiftResult:
    """Outcome of a feedback power-shifting run."""

    allocation: PowerAllocation
    performance: float
    epochs: int
    trajectory: tuple[PowerAllocation, ...]

    @property
    def search_cost_epochs(self) -> int:
        """Measurement epochs burnt before settling (exploration cost)."""
        return self.epochs


def _bottleneck_signal(utilization: float, mem_busy: float) -> tuple[float, bool]:
    """The signal, and whether injected noise perturbed it.

    Positive → memory-bound (shift watts to memory); negative → CPU-bound.
    Fault-injection site ``"online.signal"``: an armed NOISE fault
    perturbs the reading additively — modeling the jittery counters a
    real feedback controller steers on.  The controller's *measurements*
    of candidate allocations stay clean (each epoch's performance is the
    model's true value); only the steering signal degrades, so a noisy
    run still returns a valid, bound-respecting allocation — possibly a
    suboptimal one, which :func:`online_power_shift` reports as a typed
    degradation.
    """
    signal = mem_busy - utilization
    injector = _faults_active()
    if injector is not None:
        event = injector.check("online.signal")
        if event is not None:
            noise = injector.noise("online.signal", event.call_index)
            return signal + event.amplitude * noise, True
    return signal, False


def online_power_shift(
    cpu: CpuDomain,
    dram: DramDomain,
    workload: Workload,
    budget_w: float,
    *,
    initial_mem_fraction: float = 0.5,
    initial_step_w: float = 16.0,
    min_step_w: float = 2.0,
    max_epochs: int = 40,
    mem_floor_w: float = 16.0,
    proc_floor_w: float = 8.0,
) -> OnlineShiftResult:
    """Run the feedback power-shifting controller to convergence.

    Each epoch simulates the workload at the current split (standing in
    for a measurement window on real hardware), reads the bottleneck
    signal, and shifts ``step`` watts toward the starved domain.  A sign
    flip halves the step; the loop ends when the step underflows
    ``min_step_w`` or the epoch budget is spent.

    When any epoch steered on a noise-perturbed signal, the open
    :func:`~repro.faults.report.ledger` receives one degrading
    ``"noisy-signal"`` event: the allocation is valid but may be
    suboptimal relative to the clean run.
    """
    budget_w = watts(budget_w, "budget_w")
    check_positive(initial_step_w, "initial_step_w")
    check_positive(min_step_w, "min_step_w")
    if not 0.0 < initial_mem_fraction < 1.0:
        raise ConfigurationError(
            f"initial_mem_fraction must be in (0, 1), got {initial_mem_fraction}"
        )
    if max_epochs < 1:
        raise ConfigurationError(f"max_epochs must be >= 1, got {max_epochs}")

    mem_w = budget_w * initial_mem_fraction
    step = initial_step_w
    prev_sign = 0
    best_alloc = PowerAllocation(budget_w - mem_w, mem_w)
    best_perf: float | None = None
    trajectory: list[PowerAllocation] = []
    noisy_epochs = 0

    epochs = 0
    for epochs in range(1, max_epochs + 1):
        mem_w = min(max(mem_w, mem_floor_w), budget_w - proc_floor_w)
        alloc = PowerAllocation(budget_w - mem_w, mem_w)
        if trajectory and alloc == trajectory[-1]:
            break  # clamped against a floor: no further movement possible
        trajectory.append(alloc)
        result = execute_on_host(
            cpu, dram, workload.phases, alloc.proc_w, alloc.mem_w
        )
        perf = workload.performance(result)
        if (best_perf is None or perf > best_perf) and result.respects_bound:
            best_perf, best_alloc = perf, alloc

        signal, noisy = _bottleneck_signal(result.utilization, result.mem_busy)
        noisy_epochs += noisy
        sign = 1 if signal > 0.02 else (-1 if signal < -0.02 else 0)
        if sign == 0:
            break  # balanced: neither domain clearly starved
        if prev_sign and sign != prev_sign:
            step /= 2.0
            if step < min_step_w:
                break
        prev_sign = sign
        mem_w += sign * step

    if best_perf is None:
        # No bound-respecting epoch (degenerately small budget): fall back
        # to the last allocation visited.
        best_alloc = trajectory[-1]
        result = execute_on_host(
            cpu, dram, workload.phases, best_alloc.proc_w, best_alloc.mem_w
        )
        best_perf = workload.performance(result)

    if noisy_epochs:
        record(
            "online.signal",
            "noisy-signal",
            attempts=noisy_epochs,
            detail=(
                f"{noisy_epochs} epoch(s) steered on a perturbed "
                f"bottleneck signal; allocation valid but possibly suboptimal"
            ),
            degrades=True,
        )
    return OnlineShiftResult(
        allocation=best_alloc,
        performance=best_perf,
        epochs=epochs,
        trajectory=tuple(trajectory),
    )
