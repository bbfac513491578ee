"""The adaptive sweep planner: bit-for-bit equivalence with the oracle.

The planner's contract is *exactness*, not approximation: every answer —
best point (all `SweepPoint` fields, all per-phase execution records),
plateau bracket, budget-curve arrays — must equal what the full-grid
oracle sweeps report, with exact float equality and no tolerances, while
executing a fraction of the native grid.  These tests lock that contract
across the full workload registries on every shipped platform, through
the mode-aware dispatchers and the engine's ``mode`` switch, on
hypothesis-fuzzed synthetic platforms, and on the registry cases known
to trip the structure-violation fallback.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.parallel import SweepEngine
from repro.core.planner import (
    adaptive_cpu_budget_curve,
    adaptive_gpu_budget_curve,
    plan_cpu_sweep,
    plan_gpu_sweep,
    sweep_cpu_best,
    sweep_gpu_best,
)
from repro.core.sweep import (
    cpu_budget_curve,
    gpu_budget_curve,
    gpu_freq_axis,
    optimal_plateau,
    sweep_cpu_allocations,
    sweep_gpu_allocations,
)
from repro.errors import SweepError
from repro.workloads import (
    cpu_workload,
    gpu_workload,
    list_cpu_workloads,
    list_gpu_workloads,
)

from tests.conftest import planner_cpu_cases, property_settings

CPU_BUDGETS = (144.0, 176.0, 208.0, 240.0)
GPU_CAPS = (130.0, 150.0, 190.0, 250.0)


def oracle_engine() -> SweepEngine:
    return SweepEngine()


def assert_points_identical(planned, oracle) -> None:
    """Every SweepPoint field, exactly — down to per-phase records."""
    assert planned == oracle
    assert planned.allocation == oracle.allocation
    assert planned.performance == oracle.performance
    assert planned.scenario == oracle.scenario
    assert planned.result.proc_cap_w == oracle.result.proc_cap_w
    assert planned.result.mem_cap_w == oracle.result.mem_cap_w
    assert planned.result.device == oracle.result.device
    for ps, pp in zip(oracle.result.phases, planned.result.phases):
        for field in dataclasses.fields(ps):
            assert getattr(pp, field.name) == getattr(ps, field.name), field.name


def assert_plan_matches_sweep(planned, sweep) -> None:
    lo, hi = optimal_plateau(sweep.points)
    assert planned.plateau == (lo, hi)
    assert planned.best_index == (lo + hi) // 2
    assert_points_identical(planned.best, sweep.best)
    assert planned.perf_max == sweep.perf_max
    assert planned.workload_name == sweep.workload_name
    assert planned.metric_unit == sweep.metric_unit
    assert planned.stats.native_points == len(sweep.points)
    assert planned.stats.executed_points <= planned.stats.native_points
    if planned.stats.fallback:
        assert planned.stats.executed_points == planned.stats.native_points


# ---------------------------------------------------------------------------
# full-registry equivalence: every workload, every platform
# ---------------------------------------------------------------------------

class TestCpuRegistryEquivalence:
    @pytest.mark.parametrize("name", list_cpu_workloads())
    @pytest.mark.parametrize("platform_fixture", ["ivb", "has"])
    def test_full_registry(self, request, platform_fixture, name):
        node = request.getfixturevalue(platform_fixture)
        wl = cpu_workload(name)
        engine = SweepEngine()  # shared: hints/stash carry over
        for budget in CPU_BUDGETS:
            oracle = sweep_cpu_allocations(
                node.cpu, node.dram, wl, budget, step_w=4.0,
                engine=oracle_engine(),
            )
            planned = plan_cpu_sweep(
                node.cpu, node.dram, wl, budget, step_w=4.0, engine=engine
            )
            assert_plan_matches_sweep(planned, oracle)

    def test_registry_executes_fraction_of_native(self, ivb, has):
        engine = SweepEngine()
        for node in (ivb, has):
            for name in list_cpu_workloads():
                wl = cpu_workload(name)
                for budget in CPU_BUDGETS:
                    plan_cpu_sweep(
                        node.cpu, node.dram, wl, budget, step_w=4.0,
                        engine=engine,
                    )
        stats = engine.planner.stats
        assert stats.sweeps == 2 * len(list_cpu_workloads()) * len(CPU_BUDGETS)
        assert stats.savings_ratio > 2.0
        assert stats.executed_points + stats.points_saved == stats.native_points


class TestGpuRegistryEquivalence:
    @pytest.mark.parametrize("name", list_gpu_workloads())
    @pytest.mark.parametrize("platform_fixture", ["xp", "tv"])
    def test_full_registry(self, request, platform_fixture, name):
        card = request.getfixturevalue(platform_fixture)
        wl = gpu_workload(name)
        engine = SweepEngine()
        for cap in GPU_CAPS:
            oracle = sweep_gpu_allocations(
                card, wl, cap, freq_stride=1, engine=oracle_engine()
            )
            planned = plan_gpu_sweep(
                card, wl, cap, freq_stride=1, engine=engine
            )
            assert_plan_matches_sweep(planned, oracle)

    def test_registry_executes_fraction_of_native(self, xp, tv):
        engine = SweepEngine()
        for card in (xp, tv):
            for name in list_gpu_workloads():
                wl = gpu_workload(name)
                for cap in GPU_CAPS:
                    plan_gpu_sweep(card, wl, cap, freq_stride=1, engine=engine)
        stats = engine.planner.stats
        assert stats.savings_ratio > 2.0
        assert stats.reused_points > 0  # saturation reuse across caps


# ---------------------------------------------------------------------------
# budget curves: exact array equality, warm starts
# ---------------------------------------------------------------------------

class TestBudgetCurveEquivalence:
    @pytest.mark.parametrize("name", ("dgemm", "sra"))
    @pytest.mark.parametrize("platform_fixture", ["ivb", "has"])
    def test_cpu_curve_is_bit_identical(self, request, platform_fixture, name):
        node = request.getfixturevalue(platform_fixture)
        wl = cpu_workload(name)
        budgets = np.arange(120.0, 301.0, 10.0)
        oracle = cpu_budget_curve(
            node.cpu, node.dram, wl, budgets, step_w=6.0,
            engine=oracle_engine(),
        )
        engine = SweepEngine()
        curve = adaptive_cpu_budget_curve(
            node.cpu, node.dram, wl, budgets, step_w=6.0, engine=engine
        )
        assert np.array_equal(curve.budgets_w, oracle.budgets_w)
        assert np.array_equal(curve.perf_max, oracle.perf_max)
        assert np.array_equal(curve.optimal_mem_w, oracle.optimal_mem_w)
        assert engine.planner.stats.warm_starts >= budgets.size - 1

    @pytest.mark.parametrize("name", ("sgemm", "minife"))
    @pytest.mark.parametrize("platform_fixture", ["xp", "tv"])
    def test_gpu_curve_is_bit_identical(self, request, platform_fixture, name):
        card = request.getfixturevalue(platform_fixture)
        wl = gpu_workload(name)
        caps = np.arange(130.0, 301.0, 10.0)
        oracle = gpu_budget_curve(
            card, wl, caps, freq_stride=1, engine=oracle_engine()
        )
        engine = SweepEngine()
        curve = adaptive_gpu_budget_curve(
            card, wl, caps, freq_stride=1, engine=engine
        )
        assert np.array_equal(curve.budgets_w, oracle.budgets_w)
        assert np.array_equal(curve.perf_max, oracle.perf_max)
        assert np.array_equal(curve.optimal_mem_w, oracle.optimal_mem_w)

    def test_empty_budgets_rejected(self, ivb, sra, xp, sgemm):
        with pytest.raises(SweepError):
            adaptive_cpu_budget_curve(ivb.cpu, ivb.dram, sra, [])
        with pytest.raises(SweepError):
            adaptive_gpu_budget_curve(xp, sgemm, [])

    def test_cpu_saturation_reuse_kicks_in_across_budgets(self, ivb, dgemm):
        engine = SweepEngine()
        adaptive_cpu_budget_curve(
            ivb.cpu, ivb.dram, dgemm, np.arange(200.0, 301.0, 10.0),
            step_w=6.0, engine=engine,
        )
        assert engine.planner.stats.reused_points > 0


# ---------------------------------------------------------------------------
# structure-violation fallback: exactness survives, accounting is honest
# ---------------------------------------------------------------------------

class TestFallback:
    def test_cpu_fallback_case_stays_exact(self, ivb, sra):
        # Cold plan of SRA on IvyBridge at 120 W / 6 W steps violates the
        # probe certificates (known registry case) and must transparently
        # run the full oracle sweep.
        engine = SweepEngine()
        planned = plan_cpu_sweep(
            ivb.cpu, ivb.dram, sra, 120.0, step_w=6.0, engine=engine
        )
        assert planned.stats.fallback
        assert planned.stats.executed_points == planned.stats.native_points
        assert planned.stats.reused_points == 0
        oracle = sweep_cpu_allocations(
            ivb.cpu, ivb.dram, sra, 120.0, step_w=6.0, engine=oracle_engine()
        )
        assert_plan_matches_sweep(planned, oracle)
        assert engine.planner.stats.fallbacks == 1

    def test_gpu_fallback_case_stays_exact(self, xp, sgemm):
        engine = SweepEngine()
        planned = plan_gpu_sweep(xp, sgemm, 130.0, freq_stride=1, engine=engine)
        assert planned.stats.fallback
        oracle = sweep_gpu_allocations(
            xp, sgemm, 130.0, freq_stride=1, engine=oracle_engine()
        )
        assert_plan_matches_sweep(planned, oracle)

    def test_fallback_does_not_poison_the_hint_memory(self, ivb, sra):
        # After a fallback the remembered hint is marked unclean, so the
        # next plan of the same grid probes densely instead of leanly —
        # and still answers exactly.
        engine = SweepEngine()
        plan_cpu_sweep(ivb.cpu, ivb.dram, sra, 120.0, step_w=6.0, engine=engine)
        planned = plan_cpu_sweep(
            ivb.cpu, ivb.dram, sra, 120.0, step_w=6.0, engine=engine
        )
        assert planned.stats.warm_started
        oracle = sweep_cpu_allocations(
            ivb.cpu, ivb.dram, sra, 120.0, step_w=6.0, engine=oracle_engine()
        )
        assert_plan_matches_sweep(planned, oracle)

    def test_tiny_grid_is_swept_in_full_without_probes(self, ivb, sra):
        # 24 W leaves a single grid point: below the planner floor the
        # whole grid executes and no probe accounting is reported.
        planned = plan_cpu_sweep(
            ivb.cpu, ivb.dram, sra, 24.0, step_w=4.0,
            engine=SweepEngine(),
        )
        assert planned.stats.probe_points == 0
        assert not planned.stats.fallback
        assert planned.stats.executed_points == planned.stats.native_points == 1


# ---------------------------------------------------------------------------
# mode-aware dispatch: engine mode, entry points
# ---------------------------------------------------------------------------

class TestModeDispatch:
    def test_engine_mode_validation(self):
        assert SweepEngine().mode == "full"
        assert SweepEngine(mode="adaptive").mode == "adaptive"
        with pytest.raises(SweepError):
            SweepEngine(mode="turbo")

    def test_sweep_cpu_best_identical_across_modes(self, has, dgemm):
        full = sweep_cpu_best(
            has.cpu, has.dram, dgemm, 208.0, step_w=4.0,
            engine=SweepEngine(),
        )
        adaptive = sweep_cpu_best(
            has.cpu, has.dram, dgemm, 208.0, step_w=4.0,
            engine=SweepEngine(mode="adaptive"),
        )
        assert_points_identical(adaptive, full)

    def test_sweep_gpu_best_identical_across_modes(self, tv, minife):
        full = sweep_gpu_best(
            tv, minife, 190.0, freq_stride=1, engine=SweepEngine()
        )
        adaptive = sweep_gpu_best(
            tv, minife, 190.0, freq_stride=1,
            engine=SweepEngine(mode="adaptive"),
        )
        assert_points_identical(adaptive, full)

    def test_budget_curve_dispatches_on_adaptive_engine(self, ivb, dgemm):
        budgets = np.arange(144.0, 241.0, 16.0)
        engine = SweepEngine(mode="adaptive")
        curve = cpu_budget_curve(
            ivb.cpu, ivb.dram, dgemm, budgets, step_w=4.0, engine=engine
        )
        oracle = cpu_budget_curve(
            ivb.cpu, ivb.dram, dgemm, budgets, step_w=4.0,
            engine=oracle_engine(),
        )
        assert np.array_equal(curve.perf_max, oracle.perf_max)
        assert np.array_equal(curve.optimal_mem_w, oracle.optimal_mem_w)
        # The adaptive engine planned the sweeps instead of brute-forcing.
        assert engine.planner.stats.sweeps == budgets.size
        assert engine.planner.stats.points_saved > 0

    def test_gpu_budget_curve_dispatches_on_adaptive_engine(self, xp, minife):
        caps = np.arange(140.0, 251.0, 10.0)
        engine = SweepEngine(mode="adaptive")
        curve = gpu_budget_curve(xp, minife, caps, freq_stride=2, engine=engine)
        oracle = gpu_budget_curve(
            xp, minife, caps, freq_stride=2, engine=oracle_engine()
        )
        assert np.array_equal(curve.perf_max, oracle.perf_max)
        assert engine.planner.stats.points_saved > 0


# ---------------------------------------------------------------------------
# hypothesis fuzz: synthetic platforms, including certificate violations
# ---------------------------------------------------------------------------

class TestFuzzedEquivalence:
    @property_settings(30)
    @given(case=planner_cpu_cases())
    def test_fuzzed_platforms(self, case):
        cpu, dram, wl = case["cpu"], case["dram"], case["workload"]
        kwargs = {
            k: case[k]
            for k in ("budget_w", "step_w", "mem_min_w", "proc_min_w")
        }
        oracle = sweep_cpu_allocations(
            cpu, dram, wl, engine=oracle_engine(), **kwargs
        )
        planned = plan_cpu_sweep(
            cpu, dram, wl, engine=SweepEngine(), **kwargs
        )
        assert_plan_matches_sweep(planned, oracle)

    @property_settings(15)
    @given(
        cap=st.integers(min_value=130, max_value=280).map(float),
        stride=st.integers(min_value=1, max_value=4),
        name=st.sampled_from(("sgemm", "minife", "gpu-stream")),
        card_fixture=st.sampled_from(("xp", "tv")),
    )
    def test_fuzzed_gpu_caps(self, request, cap, stride, name, card_fixture):
        card = request.getfixturevalue(card_fixture)
        wl = gpu_workload(name)
        oracle = sweep_gpu_allocations(
            card, wl, cap, freq_stride=stride, engine=oracle_engine()
        )
        planned = plan_gpu_sweep(
            card, wl, cap, freq_stride=stride, engine=SweepEngine()
        )
        assert_plan_matches_sweep(planned, oracle)
