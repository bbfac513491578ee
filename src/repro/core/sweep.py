"""Allocation sweeps and budget curves — the paper's measurement harness.

Sweeps are how the paper produces every figure: fix a total budget, walk
the memory share in fixed steps, run the workload at each allocation, and
record performance, actual powers, and scenario category.  Budget curves
take the per-budget maximum (``perf_max``) across allocations — the upper
performance bound of Figures 1, 2 and 6.

Execution is routed through a :class:`~repro.core.parallel.SweepEngine`
(the process-wide default unless one is passed): every point resolves in
the calling thread, from the engine's memo cache or, on a miss, the batch
kernel, while point ordering, plateau selection, and scenario
classification stay exactly as the scalar oracle computes them.  Both
devices share one set of sweep extrema and one budget-curve loop.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.allocation import PowerAllocation, allocation_grid
from repro.core.parallel import SweepEngine, default_engine
from repro.core.scenario import Scenario, classify_cpu, classify_gpu
from repro.errors import SweepError
from repro.hardware.cpu import CpuDomain
from repro.hardware.dram import DramDomain
from repro.hardware.gpu import GpuCard
from repro.perfmodel.metrics import ExecutionResult
from repro.util.units import approx_equal
from repro.workloads.base import Workload

__all__ = [
    "AllocationSweep",
    "BudgetCurve",
    "GpuSweep",
    "SweepPoint",
    "cpu_budget_curve",
    "gpu_budget_curve",
    "gpu_freq_axis",
    "gpu_point_allocation",
    "optimal_plateau",
    "sweep_cpu_allocations",
    "sweep_gpu_allocations",
]


def optimal_plateau(points: tuple["SweepPoint", ...]) -> tuple[int, int]:
    """Index span [lo, hi] of the contiguous optimal plateau.

    Only *bound-respecting* points are eligible as optima — an allocation
    whose hardware floor overdraws its cap is not a legitimate choice (it
    is what makes the paper's DGEMM curve flatten at ≈240 W: full CPU
    demand plus the DRAM floor, not less).  If no point respects the
    bound (degenerately small budgets), all points are eligible.

    The plateau is seeded at the first eligible point *attaining* the
    maximum, then extended in both directions over eligible points within
    tolerance of it.  Seeding at exact attainment (not merely
    within-tolerance) matters at grid edges: a near-top-within-tolerance
    run touching the first or last index that does not contain the true
    maximum must not steal the bracket from the run that does.
    """
    perfs = [p.performance for p in points]
    if not np.all(np.isfinite(perfs)):
        raise SweepError(
            "sweep contains non-finite performance values (NaN/inf); "
            "refusing to pick an optimal plateau from corrupt points"
        )
    eligible = [i for i, p in enumerate(points) if p.result.respects_bound]
    if not eligible:
        eligible = list(range(len(points)))
    top = max(perfs[i] for i in eligible)
    tol = 1e-9 * max(top, 1.0)
    ok = set(eligible)
    arg = next(i for i in eligible if perfs[i] >= top)
    lo = arg
    while lo > 0 and lo - 1 in ok and perfs[lo - 1] >= top - tol:
        lo -= 1
    hi = arg
    while hi + 1 < len(perfs) and hi + 1 in ok and perfs[hi + 1] >= top - tol:
        hi += 1
    return lo, hi


@dataclass(frozen=True)
class SweepPoint:
    """One allocation of a sweep with its simulated outcome."""

    allocation: PowerAllocation
    result: ExecutionResult
    performance: float
    scenario: Scenario

    @property
    def actual_total_w(self) -> float:
        return self.result.total_power_w


class _SweepExtrema:
    """The extrema of a sweep's ``points``, for host and GPU sweeps alike."""

    points: tuple[SweepPoint, ...]

    @property
    def scenarios(self) -> tuple[Scenario, ...]:
        return tuple(p.scenario for p in self.points)

    @property
    def best(self) -> SweepPoint:
        """The sweep oracle: best-performing allocation found.

        Optima often form a plateau (all of scenario I performs
        identically); the middle of the plateau is returned so that, at
        ample budgets, the optimum has slack on both sides — matching the
        paper's "critical component: none" row of Table 1.
        """
        lo, hi = optimal_plateau(self.points)
        return self.points[(lo + hi) // 2]

    @property
    def worst(self) -> SweepPoint:
        return min(self.points, key=lambda p: p.performance)

    @property
    def perf_max(self) -> float:
        """The upper performance bound for this budget."""
        return self.best.performance

    @property
    def perf_spread(self) -> float:
        """best/worst performance ratio — the cost of poor coordination."""
        worst = self.worst.performance
        return float("inf") if worst <= 0 else self.perf_max / worst


@dataclass(frozen=True)
class AllocationSweep(_SweepExtrema):
    """A full sweep of one budget across processor/memory allocations."""

    workload_name: str
    metric_unit: str
    budget_w: float
    points: tuple[SweepPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise SweepError(f"empty sweep for budget {self.budget_w} W")

    # ------------------------------------------------------------------
    # array views (for analysis/plot-like consumers)
    # ------------------------------------------------------------------
    @property
    def mem_alloc_w(self) -> np.ndarray:
        return np.array([p.allocation.mem_w for p in self.points])

    @property
    def proc_alloc_w(self) -> np.ndarray:
        return np.array([p.allocation.proc_w for p in self.points])

    @property
    def performances(self) -> np.ndarray:
        return np.array([p.performance for p in self.points])

    @property
    def proc_actual_w(self) -> np.ndarray:
        return np.array([p.result.proc_power_w for p in self.points])

    @property
    def mem_actual_w(self) -> np.ndarray:
        return np.array([p.result.mem_power_w for p in self.points])

    @property
    def total_actual_w(self) -> np.ndarray:
        return np.array([p.result.total_power_w for p in self.points])


@dataclass(frozen=True)
class BudgetCurve:
    """``perf_max`` as a function of the total budget (Figures 1, 2, 6)."""

    workload_name: str
    metric_unit: str
    budgets_w: np.ndarray
    perf_max: np.ndarray
    optimal_mem_w: np.ndarray

    @property
    def saturation_budget_w(self) -> float:
        """Smallest budget achieving ≈ the curve's maximum performance.

        This is the application's maximum power demand: budgets above it
        are surplus ("power over-budgeting wastes power", Section 3.1).
        """
        top = float(self.perf_max.max())
        at_top = self.budgets_w[self.perf_max >= 0.995 * top]
        return float(at_top.min())


def _budget_curve(
    workload: Workload,
    budgets_w: np.ndarray | list[float],
    best_at: Callable[[float], SweepPoint],
    noun: str,
) -> BudgetCurve:
    """The curve of ``best_at(budget)`` over ``budgets_w``, in order.

    Every budget curve — host or GPU, full sweeps or the planner — is
    this loop; they differ only in how ``best_at`` answers one budget.
    """
    budgets = np.asarray(budgets_w, dtype=float)
    if budgets.size == 0:
        raise SweepError(f"budget curve needs at least one {noun}")
    perf = np.empty_like(budgets)
    opt_mem = np.empty_like(budgets)
    for i, budget in enumerate(budgets):
        best = best_at(float(budget))
        perf[i] = best.performance
        opt_mem[i] = best.allocation.mem_w
    return BudgetCurve(
        workload_name=workload.name,
        metric_unit=workload.metric_unit,
        budgets_w=budgets,
        perf_max=perf,
        optimal_mem_w=opt_mem,
    )


def sweep_cpu_allocations(
    cpu: CpuDomain,
    dram: DramDomain,
    workload: Workload,
    budget_w: float,
    *,
    step_w: float = 4.0,
    mem_min_w: float = 16.0,
    proc_min_w: float = 8.0,
    engine: SweepEngine | None = None,
) -> AllocationSweep:
    """Sweep a host budget across processor/memory splits."""
    engine = engine if engine is not None else default_engine()
    allocations = allocation_grid(
        budget_w, mem_min_w=mem_min_w, proc_min_w=proc_min_w, step_w=step_w
    )
    results = engine.map_host(cpu, dram, workload.phases, allocations)
    points = [
        SweepPoint(
            allocation=alloc,
            result=result,
            performance=workload.performance(result),
            scenario=classify_cpu(result),
        )
        for alloc, result in zip(allocations, results)
    ]
    return AllocationSweep(
        workload_name=workload.name,
        metric_unit=workload.metric_unit,
        budget_w=float(budget_w),
        points=tuple(points),
    )


def cpu_budget_curve(
    cpu: CpuDomain,
    dram: DramDomain,
    workload: Workload,
    budgets_w: np.ndarray | list[float],
    *,
    step_w: float = 4.0,
    engine: SweepEngine | None = None,
) -> BudgetCurve:
    """``perf_max`` over a range of host budgets.

    Repeated budgets hit the engine's cache instead of re-sweeping.  On
    an engine in ``"adaptive"`` mode the curve is produced by the
    structure-aware planner (identical values, a fraction of the grid
    executed — locked differentially by
    ``tests/test_planner_equivalence.py``).
    """
    engine = engine if engine is not None else default_engine()
    if engine.mode == "adaptive":
        from repro.core.planner import adaptive_cpu_budget_curve

        return adaptive_cpu_budget_curve(
            cpu, dram, workload, budgets_w, step_w=step_w, engine=engine
        )

    def best_at(budget_w: float) -> SweepPoint:
        return sweep_cpu_allocations(
            cpu, dram, workload, budget_w, step_w=step_w, engine=engine
        ).best

    return _budget_curve(workload, budgets_w, best_at, "budget")


@dataclass(frozen=True)
class GpuSweep(_SweepExtrema):
    """A sweep of memory-clock settings under one GPU board cap.

    Each point's "memory power allocation" is the empirical busy-bus
    estimate for its clock — the x-axis the paper uses in Figure 7.
    """

    workload_name: str
    metric_unit: str
    cap_w: float
    mem_freqs_mhz: np.ndarray
    mem_alloc_w: np.ndarray
    performances: np.ndarray
    points: tuple[SweepPoint, ...]


def gpu_freq_axis(card: GpuCard, freq_stride: int = 1) -> np.ndarray:
    """The memory-clock axis a GPU sweep walks (nominal always included)."""
    if freq_stride < 1:
        raise SweepError(f"freq_stride must be >= 1, got {freq_stride}")
    freqs = card.mem.frequencies_mhz[::freq_stride]
    if not approx_equal(float(freqs[-1]), card.mem.nominal_mhz):
        freqs = np.append(freqs, card.mem.nominal_mhz)
    return np.asarray(freqs, dtype=float)


def gpu_point_allocation(card: GpuCard, cap_w: float, freq_mhz: float) -> PowerAllocation:
    """The (proc, mem) split a memory clock implies under a board cap."""
    mem_w = card.mem.allocated_power_w(float(freq_mhz))
    return PowerAllocation(max(0.0, cap_w - mem_w), mem_w)


def sweep_gpu_allocations(
    card: GpuCard,
    workload: Workload,
    cap_w: float,
    *,
    freq_stride: int = 1,
    engine: SweepEngine | None = None,
) -> GpuSweep:
    """Sweep memory clocks under a fixed board cap.

    ``freq_stride`` subsamples the driver's offset grid (the paper's
    experiments use coarse offsets).
    """
    engine = engine if engine is not None else default_engine()
    freqs = gpu_freq_axis(card, freq_stride)
    results = engine.map_gpu(card, workload.phases, cap_w, [float(f) for f in freqs])
    points = []
    for f, result in zip(freqs, results):
        alloc = gpu_point_allocation(card, cap_w, float(f))
        points.append(
            SweepPoint(
                allocation=alloc,
                result=result,
                performance=workload.performance(result),
                scenario=classify_gpu(result),
            )
        )
    return GpuSweep(
        workload_name=workload.name,
        metric_unit=workload.metric_unit,
        cap_w=float(cap_w),
        mem_freqs_mhz=np.asarray(freqs, dtype=float),
        mem_alloc_w=np.array([p.allocation.mem_w for p in points]),
        performances=np.array([p.performance for p in points]),
        points=tuple(points),
    )


def gpu_budget_curve(
    card: GpuCard,
    workload: Workload,
    caps_w: np.ndarray | list[float],
    *,
    freq_stride: int = 1,
    engine: SweepEngine | None = None,
) -> BudgetCurve:
    """``perf_max`` over a range of GPU board caps (Figure 6).

    On an engine in ``"adaptive"`` mode the curve is produced by the
    structure-aware planner (identical values, fewer points executed).
    """
    engine = engine if engine is not None else default_engine()
    if engine.mode == "adaptive":
        from repro.core.planner import adaptive_gpu_budget_curve

        return adaptive_gpu_budget_curve(
            card, workload, caps_w, freq_stride=freq_stride, engine=engine
        )

    def best_at(cap_w: float) -> SweepPoint:
        return sweep_gpu_allocations(
            card, workload, cap_w, freq_stride=freq_stride, engine=engine
        ).best

    return _budget_curve(workload, caps_w, best_at, "cap")
