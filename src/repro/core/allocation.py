"""Power-allocation tuples and allocation-space grids.

Following the paper's simplified two-component problem (Section 2.2), an
allocation is the pair ``α = (P_cpu, P_mem)`` (or ``(P_SM, P_mem)`` for
GPUs) subject to ``P_cpu + P_mem ≤ P_b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import PowerBoundError, SweepError
from repro.util.units import watts

__all__ = [
    "PowerAllocation",
    "allocation_axis",
    "allocation_grid",
    "bounded_allocation",
]


@dataclass(frozen=True)
class PowerAllocation:
    """One point of the allocation space: per-domain power budgets in watts."""

    proc_w: float
    mem_w: float

    def __post_init__(self) -> None:
        # Sweeps build one allocation per grid point: two finite
        # non-negative floats pass with one chained comparison, and
        # anything else goes through watts() for its exact error.
        p, m = self.proc_w, self.mem_w
        if not (type(p) is float and type(m) is float
                and math.inf > p >= 0.0 <= m < math.inf):
            watts(p, "proc_w")
            watts(m, "mem_w")

    @property
    def total_w(self) -> float:
        """Total allocated power."""
        return self.proc_w + self.mem_w

    def within(self, budget_w: float, tolerance_w: float = 1e-9) -> bool:
        """Whether this allocation respects a total power budget."""
        return self.total_w <= budget_w + tolerance_w

    def shifted(self, to_mem_w: float) -> "PowerAllocation":
        """Shift watts from the processor domain to memory (negative shifts
        the other way) — the paper's ±24 W sensitivity experiment."""
        return PowerAllocation(self.proc_w - to_mem_w, self.mem_w + to_mem_w)

    def __str__(self) -> str:
        return f"(P_proc={self.proc_w:.1f} W, P_mem={self.mem_w:.1f} W)"


def bounded_allocation(
    proc_w: float,
    mem_w: float,
    budget_w: float,
    *,
    tolerance_w: float = 1e-9,
) -> PowerAllocation:
    """The blessed budget-conserving constructor: asserts ``P_cpu + P_mem ≤ P_b``.

    Controllers that hand out allocations under a node budget must build
    them here (or via :func:`allocation_grid`) so the paper's central
    invariant is checked at construction time rather than trusted; the
    RPL004 lint rule enforces that raw dict/tuple allocations never
    bypass this assertion.
    """
    budget_w = watts(budget_w, "budget_w")
    allocation = PowerAllocation(proc_w, mem_w)
    if not allocation.within(budget_w, tolerance_w):
        raise PowerBoundError(
            f"allocation {allocation} overdraws the budget: "
            f"{allocation.total_w:.3f} W > {budget_w:.3f} W"
        )
    return allocation


def allocation_axis(
    budget_w: float,
    *,
    mem_min_w: float,
    mem_max_w: float | None = None,
    proc_min_w: float = 0.0,
    step_w: float = 4.0,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The ``(proc_w, mem_w)`` float columns of :func:`allocation_grid`.

    Same feasibility checks, same values, same order — without
    constructing the :class:`PowerAllocation` objects.  Callers that
    resolve only a subset of the axis (the adaptive planner) read the
    coordinates from here and build validated allocations lazily for the
    points they actually touch; :func:`allocation_grid` itself is this
    axis materialized, so the two can never drift.
    """
    budget_w = watts(budget_w, "budget_w")
    step_w = watts(step_w, "step_w")
    if step_w <= 0.0:
        raise SweepError(f"step_w must be > 0, got {step_w}")
    if mem_max_w is None:
        mem_max_w = budget_w - proc_min_w
    if mem_max_w < mem_min_w:
        raise SweepError(
            f"empty allocation grid: mem range [{mem_min_w}, {mem_max_w}] W "
            f"for budget {budget_w} W"
        )
    mem_values = np.arange(mem_min_w, mem_max_w + step_w * 0.5, step_w)
    pairs = [
        (budget_w - float(m), float(m))
        for m in mem_values
        if budget_w - float(m) >= proc_min_w - 1e-9
    ]
    if not pairs:
        raise SweepError(
            f"no feasible allocations for budget {budget_w} W "
            f"(mem >= {mem_min_w} W, proc >= {proc_min_w} W)"
        )
    proc_w, mem_w = zip(*pairs)
    return proc_w, mem_w


def allocation_grid(
    budget_w: float,
    *,
    mem_min_w: float,
    mem_max_w: float | None = None,
    proc_min_w: float = 0.0,
    step_w: float = 4.0,
) -> tuple[PowerAllocation, ...]:
    """All allocations of ``budget_w`` on a memory-power grid.

    Mirrors the paper's sweep methodology: fix the total budget, vary the
    memory share in ``step_w`` increments, give the processor the rest.
    ``mem_max_w`` defaults to everything the processor floor leaves over.
    """
    proc_w, mem_w = allocation_axis(
        budget_w,
        mem_min_w=mem_min_w,
        mem_max_w=mem_max_w,
        proc_min_w=proc_min_w,
        step_w=step_w,
    )
    return tuple(PowerAllocation(p, m) for p, m in zip(proc_w, mem_w))
