"""The engine session: query resolution against a shared, warm stack.

One :class:`CoordinationService` owns (or borrows) a
:class:`~repro.core.parallel.SweepEngine` and answers the protocol's
query ops by calling the exact same library entry points a direct user
would — ``sweep_cpu_allocations`` (``plan_cpu_sweep`` on an adaptive
engine), ``cpu_budget_curve``, ``profile_*_workload`` — so served
answers are bit-identical to library answers *by construction*, not by
re-implementation.

The micro-batching win lives in :meth:`CoordinationService.prefetch`:
given one flush's worth of coalesced sweep-family queries, it unions
their allocation axes per ``(platform, workload, step)`` partition and
resolves each union in **one**
:meth:`~repro.core.parallel.SweepEngine.host_subgrid` kernel pass.  The
pass primes the engine's memo cache; the per-query library calls that
follow then assemble their answers from pure cache hits.  Equivalence is
inherited from PR 6's sub-grid contract (a gathered kernel pass is
bit-for-bit the scalar oracle, and it fills the cache point-by-point),
so the served reply *is* the library reply — the kernel just ran once
for the whole flush instead of once per query.

Resilience: with a fault plan armed, prefetch and the profile memo are
bypassed — each query resolves individually through the profilers'
majority vote and the engine's worker-fault schedule, inside its own
degradation :func:`~repro.faults.report.ledger`, and the outcome (the
ledger's events or a typed ``FaultError``) is attached to that query's
envelope alone.  A flush never shares one query's fault with its
neighbours, and the server never dies on one.
"""
# shared-state

from __future__ import annotations

import threading
from typing import Any, Mapping

from repro.core.allocation import allocation_axis
from repro.core.coord import CoordDecision, coord_cpu
from repro.core.coord_gpu import coord_gpu
from repro.core.critical import CpuCriticalPowers, GpuCriticalPowers
from repro.core.parallel import MemoCache, SweepEngine
from repro.core.planner import PlannedSweep, plan_cpu_sweep, plan_gpu_sweep
from repro.core.profiler import profile_cpu_workload, profile_gpu_workload
from repro.core.sweep import (
    AllocationSweep,
    BudgetCurve,
    GpuSweep,
    cpu_budget_curve,
    gpu_budget_curve,
    gpu_freq_axis,
    sweep_cpu_allocations,
    sweep_gpu_allocations,
)
from repro.errors import ProtocolError, ReproError
from repro.faults.injector import armed
from repro.faults.report import ledger
from repro.hardware.gpu import GpuCard
from repro.hardware.node import ComputeNode
from repro.hardware.platforms import get_platform
from repro.serve.protocol import QUERY_OPS, Request, error_payload
from repro.workloads import get_workload
from repro.workloads.base import Workload

__all__ = ["CoordinationService", "Resolution"]

#: Default host-sweep grid knobs — must match ``sweep_cpu_allocations``'s
#: signature defaults or prefetched axes would drift from served grids.
_DEFAULT_STEP_W = 4.0
_DEFAULT_MEM_MIN_W = 16.0
_DEFAULT_PROC_MIN_W = 8.0

#: Platform/workload objects resolved by name, shared by every service in
#: the process: resolution is pure (registry lookups construct
#: content-identical objects), and reusing one instance keeps the
#: engine's weak-keyed fingerprint memo hot across requests.
_RESOLVE_LOCK = threading.Lock()
_RESOLVED_PAIRS: dict[tuple[str, str | None], tuple[Workload, Any]] = {}


class Resolution:
    """The outcome of resolving one query (result XOR error, plus taint)."""

    __slots__ = ("result", "error", "degraded", "events")

    def __init__(
        self,
        result: dict[str, Any] | None = None,
        error: BaseException | None = None,
        degraded: bool = False,
        events: list[dict[str, Any]] | None = None,
    ) -> None:
        self.result = result
        self.error = error
        self.degraded = degraded
        self.events: list[dict[str, Any]] = events if events is not None else []

    @property
    def ok(self) -> bool:
        return self.error is None

    def error_dict(self) -> dict[str, str]:
        assert self.error is not None
        return error_payload(self.error)


def _resolve_pair(workload_name: str, platform_name: str | None) -> tuple[Workload, Any]:
    """``(workload, platform)`` for the named pair, memoized process-wide."""
    key = (str(workload_name).lower(), platform_name)
    with _RESOLVE_LOCK:
        cached = _RESOLVED_PAIRS.get(key)
    if cached is not None:
        return cached
    workload = get_workload(workload_name)
    name = platform_name
    if name is None:
        name = "ivybridge" if workload.device == "cpu" else "titan-xp"
    platform = get_platform(name)
    if workload.device == "cpu" and not isinstance(platform, ComputeNode):
        raise ProtocolError(
            f"workload {workload.name!r} needs a CPU node, got {name!r}"
        )
    if workload.device == "gpu" and not isinstance(platform, GpuCard):
        raise ProtocolError(
            f"workload {workload.name!r} needs a GPU card, got {name!r}"
        )
    pair = (workload, platform)
    with _RESOLVE_LOCK:
        _RESOLVED_PAIRS[key] = pair
    return pair


def _float_param(request: Request, name: str, default: float | None = None) -> float:
    value = request.require(name) if default is None else request.param(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            f"parameter {name!r} of op {request.op!r} must be a number, "
            f"got {type(value).__name__}"
        )
    return float(value)


def _budget_list(request: Request) -> list[float]:
    raw = request.require("budgets_w")
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ProtocolError(
            "parameter 'budgets_w' must be a non-empty list of numbers"
        )
    budgets: list[float] = []
    for value in raw:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError("parameter 'budgets_w' must contain only numbers")
        budgets.append(float(value))
    return budgets


class CoordinationService:
    """Query resolution against one shared engine stack.

    Thread-safety: :meth:`resolve` and :meth:`prefetch` are called from
    the server's resolver executor threads; everything they touch is
    either immutable (platforms, workloads), internally locked (the
    engine's :class:`~repro.core.parallel.MemoCache`, the module-level
    resolution memo), or a :class:`MemoCache` instance (the profile
    memo).
    """

    def __init__(self, engine: SweepEngine | None = None) -> None:
        self.engine = engine if engine is not None else SweepEngine()
        #: Clean profiles keyed by (device, platform, workload) — profiling
        #: does not route through the engine's point cache, so repeat
        #: profile/coord queries get their own memo tier.  There is
        #: deliberately no whole-answer memo: every reply is assembled by
        #: the library call itself (bit-identity stays structural), and
        #: redundant concurrent demand is collapsed by the batcher's
        #: in-flight dedup instead.
        self._profiles = MemoCache(256)

    # ------------------------------------------------------------------
    # fault awareness
    # ------------------------------------------------------------------
    def faults_armed(self) -> bool:
        """True when a non-empty fault plan is armed (:func:`armed`).

        The batcher consults this per flush: under an armed plan,
        request coalescing (prefetch *and* dedup) is disabled so each
        query consumes its own slice of the deterministic fault schedule
        and owns its own degradation classification.
        """
        return armed() is not None

    # ------------------------------------------------------------------
    # micro-batch prefetch (the coalesced kernel pass)
    # ------------------------------------------------------------------
    def prefetch(self, requests: list[Request]) -> int:
        """Prime the engine cache for one flush in coalesced kernel passes.

        Unions the host allocation axes of every CPU ``sweep_best`` /
        ``budget_curve`` query in ``requests`` per ``(platform,
        workload, step)`` partition and resolves each union through one
        :meth:`~repro.core.parallel.SweepEngine.host_subgrid` pass.
        Returns the number of partitions passed through the kernel.

        Skipped entirely (returns 0) when a fault plan is armed — the
        deterministic fault schedule belongs to the per-query resolution
        path — or when the engine runs in ``adaptive`` mode, where the
        planner's own point selection (with warm-start hints) is the
        cheaper way to resolve each query.  Resolution errors here are
        deliberately swallowed: the per-query path reproduces them with
        proper per-reply classification.
        """
        if self.faults_armed() or self.engine.mode == "adaptive":
            return 0
        groups: dict[tuple[str, str, float], dict[str, Any]] = {}
        for request in requests:
            if request.op not in ("sweep_best", "budget_curve"):
                continue
            try:
                workload, platform = _resolve_pair(
                    str(request.require("workload")), request.param("platform")
                )
                if workload.device != "cpu":
                    continue
                step_w = _float_param(request, "step_w", _DEFAULT_STEP_W)
                budgets = (
                    [_float_param(request, "budget_w")]
                    if request.op == "sweep_best"
                    else _budget_list(request)
                )
            except ReproError:
                continue  # the per-query resolution classifies this one
            group_key = (platform.name, workload.name, step_w)
            group = groups.setdefault(
                group_key,
                {
                    "platform": platform,
                    "workload": workload,
                    "step_w": step_w,
                    "proc": [],
                    "mem": [],
                    "seen": set(),
                },
            )
            for budget in budgets:
                if budget in group["seen"]:
                    continue
                group["seen"].add(budget)
                try:
                    proc_w, mem_w = allocation_axis(
                        budget,
                        mem_min_w=_DEFAULT_MEM_MIN_W,
                        proc_min_w=_DEFAULT_PROC_MIN_W,
                        step_w=step_w,
                    )
                except ReproError:
                    continue
                group["proc"].extend(proc_w)
                group["mem"].extend(mem_w)
        passes = 0
        for group in groups.values():
            if not group["proc"]:
                continue
            platform = group["platform"]
            workload = group["workload"]
            try:
                executor = self.engine.host_subgrid(
                    platform.cpu,
                    platform.dram,
                    workload.phases,
                    group["proc"],
                    group["mem"],
                )
                executor.run(range(len(executor)))
                passes += 1
            except ReproError:
                continue
        return passes

    # ------------------------------------------------------------------
    # per-query resolution
    # ------------------------------------------------------------------
    def resolve(self, request: Request) -> Resolution:
        """Answer one query; never raises (errors become typed resolutions)."""
        if request.op not in QUERY_OPS:
            return Resolution(
                error=ProtocolError(f"op {request.op!r} is not a query operation")
            )
        with ledger() as report:
            try:
                result = self._dispatch(request)
            except Exception as exc:  # noqa: BLE001 - the server must answer
                return Resolution(error=exc)
        return Resolution(result, **report.to_dict())  # degraded, events

    def _dispatch(self, request: Request) -> dict[str, Any]:
        workload, platform = _resolve_pair(
            str(request.require("workload")), request.param("platform")
        )
        if request.op == "profile":
            return self._op_profile(workload, platform)
        if request.op == "coord":
            return self._op_coord(request, workload, platform)
        if request.op == "sweep_best":
            return self._op_sweep_best(request, workload, platform)
        return self._op_budget_curve(request, workload, platform)

    # -- profile -------------------------------------------------------
    def _profile(
        self, workload: Workload, platform: Any
    ) -> CpuCriticalPowers | GpuCriticalPowers:
        """The profile, memoized whenever no plan is armed.

        Disarmed, no fault can fire, so every profile is the clean one.
        """
        key = ("profile", workload.device, platform.name, workload.name)
        clean = not self.faults_armed()
        if clean:
            hit, value = self._profiles.lookup(key)
            if hit:
                return value  # type: ignore[return-value]
        critical: CpuCriticalPowers | GpuCriticalPowers
        if workload.device == "cpu":
            critical = profile_cpu_workload(platform.cpu, platform.dram, workload)
        else:
            critical = profile_gpu_workload(platform, workload)
        if clean:
            self._profiles.store(key, critical)
        return critical

    def _op_profile(self, workload: Workload, platform: Any) -> dict[str, Any]:
        return {
            "workload": workload.name,
            "platform": platform.name,
            "device": workload.device,
            "critical": self._profile(workload, platform).as_dict(),
        }

    # -- coord ---------------------------------------------------------
    def _op_coord(
        self, request: Request, workload: Workload, platform: Any
    ) -> dict[str, Any]:
        budget_w = _float_param(request, "budget_w")
        # COORD is pure arithmetic over the profile, so every fault it can
        # meet lands in the profile's majority vote.
        critical = self._profile(workload, platform)
        decision: CoordDecision
        if workload.device == "cpu":
            assert isinstance(critical, CpuCriticalPowers)
            decision = coord_cpu(critical, budget_w)
        else:
            assert isinstance(critical, GpuCriticalPowers)
            decision = coord_gpu(critical, budget_w, hardware_max_w=platform.max_cap_w)
        return {  # repro-lint: disable=RPL004 -- wire snapshot of an already-validated CoordDecision allocation
            "workload": workload.name,
            "platform": platform.name,
            "budget_w": budget_w,
            "status": decision.status.value,
            "accepted": decision.accepted,
            "proc_w": decision.allocation.proc_w,
            "mem_w": decision.allocation.mem_w,
            "surplus_w": decision.surplus_w,
        }

    # -- sweep_best ----------------------------------------------------
    def _op_sweep_best(
        self, request: Request, workload: Workload, platform: Any
    ) -> dict[str, Any]:
        budget_w = _float_param(request, "budget_w")
        # An adaptive engine plans the sweep instead of running its whole
        # grid; the planned best point and index are the full sweep's.
        adaptive = self.engine.mode == "adaptive"
        sweep: PlannedSweep | AllocationSweep | GpuSweep
        if workload.device == "cpu":
            step_w = _float_param(request, "step_w", _DEFAULT_STEP_W)
            host = (platform.cpu, platform.dram, workload, budget_w)
            if adaptive:
                sweep = plan_cpu_sweep(*host, step_w=step_w, engine=self.engine)
            else:
                sweep = sweep_cpu_allocations(*host, step_w=step_w, engine=self.engine)
        else:
            stride = int(request.param("freq_stride", 1))
            card = (platform, workload, budget_w)
            if adaptive:
                sweep = plan_gpu_sweep(*card, freq_stride=stride, engine=self.engine)
            else:
                sweep = sweep_gpu_allocations(
                    *card, freq_stride=stride, engine=self.engine
                )
        best = sweep.best
        result: dict[str, Any] = {  # repro-lint: disable=RPL004 -- wire snapshot of the sweep's already-validated best allocation
            "workload": workload.name,
            "platform": platform.name,
            "budget_w": budget_w,
            "proc_w": best.allocation.proc_w,
            "mem_w": best.allocation.mem_w,
            "performance": best.performance,
            "metric_unit": workload.metric_unit,
            "scenario": best.scenario.roman,
            "actual_total_w": best.result.total_power_w,
            "n_points": (
                sweep.stats.native_points
                if isinstance(sweep, PlannedSweep)
                else len(sweep.points)
            ),
        }
        if isinstance(sweep, GpuSweep):
            result["mem_freq_mhz"] = float(
                sweep.mem_freqs_mhz[sweep.points.index(best)]
            )
        elif isinstance(sweep, PlannedSweep) and workload.device == "gpu":
            result["mem_freq_mhz"] = float(
                gpu_freq_axis(platform, stride)[sweep.best_index]
            )
        return result

    # -- budget_curve --------------------------------------------------
    def _op_budget_curve(
        self, request: Request, workload: Workload, platform: Any
    ) -> dict[str, Any]:
        budgets = _budget_list(request)
        curve: BudgetCurve
        if workload.device == "cpu":
            step_w = _float_param(request, "step_w", _DEFAULT_STEP_W)
            curve = cpu_budget_curve(
                platform.cpu,
                platform.dram,
                workload,
                budgets,
                step_w=step_w,
                engine=self.engine,
            )
        else:
            stride = int(request.param("freq_stride", 1))
            curve = gpu_budget_curve(
                platform, workload, budgets, freq_stride=stride, engine=self.engine
            )
        return {
            "workload": workload.name,
            "platform": platform.name,
            "metric_unit": curve.metric_unit,
            "budgets_w": [float(b) for b in curve.budgets_w],
            "perf_max": [float(p) for p in curve.perf_max],
            "optimal_mem_w": [float(m) for m in curve.optimal_mem_w],
            "saturation_budget_w": curve.saturation_budget_w,
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict[str, Any]:
        """Engine + service-tier counters, JSON-ready."""
        profiles = self._profiles.stats
        return {
            "engine": self.engine.stats_snapshot(),
            "profiles": {
                "hits": profiles.hits,
                "misses": profiles.misses,
                "size": profiles.size,
                "hit_ratio": profiles.hit_ratio,
            },
        }
