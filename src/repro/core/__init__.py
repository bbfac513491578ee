"""Core contribution: cross-component power coordination.

This package implements the paper's actual contribution on top of the
hardware and execution substrates:

* the power-allocation vocabulary and sweep engines
  (:mod:`repro.core.allocation`, :mod:`repro.core.sweep`);
* the six-category scenario taxonomy and its classifier
  (:mod:`repro.core.scenario`);
* critical power values and the lightweight profiler that extracts them
  (:mod:`repro.core.critical`, :mod:`repro.core.profiler`);
* the COORD heuristics — Algorithm 1 (CPU) and Algorithm 2 (GPU)
  (:mod:`repro.core.coord`, :mod:`repro.core.coord_gpu`);
* baseline allocation strategies (:mod:`repro.core.baselines`);
* analysis utilities: scenario spans, critical components, the Table 1
  derivation, and the Figure 5 balance analysis (:mod:`repro.core.analysis`);
* budget advice for higher-level schedulers (:mod:`repro.core.budget`).
"""

from repro.core.allocation import PowerAllocation, allocation_grid
from repro.core.parallel import (
    CACHE_DIR_ENV_VAR,
    SWEEP_MODE_ENV_VAR,
    CacheStats,
    MemoCache,
    PlannerState,
    PlannerStats,
    SweepEngine,
    default_engine,
    fingerprint,
    resolve_cache_dir,
    resolve_mode,
    set_default_engine,
    use_engine,
)
from repro.core.diskcache import (
    CacheIntegrityWarning,
    DiskCache,
    DiskCacheError,
    DiskCacheStats,
    decode_result,
    digest_key,
    encode_result,
)
from repro.core.planner import (
    PlanStats,
    PlannedSweep,
    adaptive_cpu_budget_curve,
    adaptive_gpu_budget_curve,
    plan_cpu_sweep,
    plan_gpu_sweep,
    sweep_cpu_best,
    sweep_gpu_best,
)
from repro.core.scenario import Scenario, classify_cpu, classify_gpu
from repro.core.critical import CpuCriticalPowers, GpuCriticalPowers
from repro.core.profiler import profile_cpu_workload, profile_gpu_workload
from repro.core.coord import CoordDecision, CoordStatus, coord_cpu
from repro.core.coord_gpu import coord_gpu
from repro.core.baselines import (
    cpu_first_allocation,
    demand_proportional_allocation,
    interpolation_allocation,
    memory_first_allocation,
    oracle_allocation,
    uniform_allocation,
)
from repro.core.sweep import (
    AllocationSweep,
    GpuSweep,
    cpu_budget_curve,
    gpu_budget_curve,
    sweep_cpu_allocations,
    sweep_gpu_allocations,
)
from repro.core.analysis import (
    BalancePoint,
    balance_analysis,
    critical_component,
    optimal_intersection,
    scenario_spans,
    table1_rows,
)
from repro.core.budget import BudgetAdvice, BudgetVerdict, advise_budget
from repro.core.adaptive import (
    AdaptiveComparison,
    AdaptiveSchedule,
    adaptive_coord,
    adaptive_vs_static,
    profile_phases,
)
from repro.core.efficiency import (
    EfficiencyCurve,
    EfficiencyPoint,
    efficiency_curve,
    sweep_efficiency,
)
from repro.core.online import OnlineShiftResult, online_power_shift
from repro.core.optimize import GoldenSectionResult, golden_section_optimal
from repro.core.elasticity import ElasticityEstimate, power_elasticity, rank_by_elasticity
from repro.core.coord_hetero import (
    HeteroAllocation,
    coord_biglittle,
    profile_biglittle,
    sweep_biglittle,
)
from repro.core.coord_hybrid import (
    HybridResult,
    HybridStep,
    HybridWorkload,
    coord_hybrid,
    execute_hybrid,
    offload_workload,
)

__all__ = [
    "AdaptiveComparison",
    "AdaptiveSchedule",
    "AllocationSweep",
    "BalancePoint",
    "BudgetAdvice",
    "BudgetVerdict",
    "CACHE_DIR_ENV_VAR",
    "CacheIntegrityWarning",
    "CacheStats",
    "CoordDecision",
    "CoordStatus",
    "CpuCriticalPowers",
    "DiskCache",
    "DiskCacheError",
    "DiskCacheStats",
    "EfficiencyCurve",
    "EfficiencyPoint",
    "ElasticityEstimate",
    "GoldenSectionResult",
    "GpuCriticalPowers",
    "GpuSweep",
    "HeteroAllocation",
    "HybridResult",
    "HybridStep",
    "HybridWorkload",
    "MemoCache",
    "OnlineShiftResult",
    "PlanStats",
    "PlannedSweep",
    "PlannerState",
    "PlannerStats",
    "PowerAllocation",
    "SWEEP_MODE_ENV_VAR",
    "Scenario",
    "SweepEngine",
    "adaptive_coord",
    "adaptive_cpu_budget_curve",
    "adaptive_gpu_budget_curve",
    "adaptive_vs_static",
    "advise_budget",
    "allocation_grid",
    "balance_analysis",
    "classify_cpu",
    "classify_gpu",
    "coord_biglittle",
    "coord_cpu",
    "coord_gpu",
    "coord_hybrid",
    "cpu_budget_curve",
    "cpu_first_allocation",
    "critical_component",
    "decode_result",
    "default_engine",
    "demand_proportional_allocation",
    "digest_key",
    "efficiency_curve",
    "encode_result",
    "execute_hybrid",
    "fingerprint",
    "golden_section_optimal",
    "gpu_budget_curve",
    "interpolation_allocation",
    "memory_first_allocation",
    "offload_workload",
    "online_power_shift",
    "optimal_intersection",
    "oracle_allocation",
    "plan_cpu_sweep",
    "plan_gpu_sweep",
    "power_elasticity",
    "profile_biglittle",
    "profile_cpu_workload",
    "profile_gpu_workload",
    "profile_phases",
    "rank_by_elasticity",
    "resolve_cache_dir",
    "resolve_mode",
    "scenario_spans",
    "set_default_engine",
    "sweep_biglittle",
    "sweep_cpu_allocations",
    "sweep_cpu_best",
    "sweep_efficiency",
    "sweep_gpu_allocations",
    "sweep_gpu_best",
    "table1_rows",
    "uniform_allocation",
    "use_engine",
]
