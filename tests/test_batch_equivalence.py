"""Differential harness: the vectorized batch kernel vs the scalar oracle.

The contract under test (:mod:`repro.perfmodel.batch` and its wiring into
:class:`~repro.core.parallel.SweepEngine`) is *bit-for-bit* equivalence:
resolving a whole allocation grid in one NumPy pass must reproduce every
``ExecutionResult`` field — powers, times, utilization, operating points,
mechanisms — and every derived sweep output (performance, scenario
classification, plateau span, best point) exactly, with no tolerances.

Tier-1 runs the full workload registry on representative budgets/caps plus
hypothesis-fuzzed synthetic platforms; the exhaustive budget matrix is
``@pytest.mark.slow``.  The harness also locks the engine-level contract:
the batch path fills the same memo cache point-by-point, so cache
statistics and warm-sweep behaviour are indistinguishable from the scalar
path, and ``SweepEngine(batch=False)`` remains a true escape hatch.  The kernels build their rows without the dataclass
constructor, so every comparison also checks that a kernel row behaves as
the oracle's under hashing, ``repr``, ``asdict``, pickle, copy, the disk
codec and frozenness.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.allocation import allocation_grid
from repro.core.diskcache import decode_result, encode_result
from repro.core.parallel import SweepEngine, use_engine
from repro.core.scenario import classify_cpu, classify_gpu
from repro.core.sweep import (
    AllocationSweep,
    cpu_budget_curve,
    gpu_budget_curve,
    optimal_plateau,
    sweep_cpu_allocations,
    sweep_gpu_allocations,
)
from repro.errors import SweepError
from repro.hardware.cpu import CpuDomain
from repro.hardware.dram import DramDomain
from repro.hardware.pstate import PStateTable
from repro.perfmodel.batch import (
    _HOST_GATHER_CROSSOVER,
    GpuBatchKernel,
    HostBatchKernel,
    execute_gpu_batch,
    execute_host_batch,
)
from repro.perfmodel.executor import execute_on_gpu, execute_on_host
from repro.perfmodel.phase import Phase
from repro.util.units import watts
from repro.workloads import (
    cpu_workload,
    gpu_workload,
    list_cpu_workloads,
    list_gpu_workloads,
)
from tests.conftest import plateau_span, property_settings, sweep_signature

CPU_BUDGETS_FAST = (144.0, 208.0)
GPU_CAPS_FAST = (150.0, 200.0)
CPU_BUDGETS_FULL = (144.0, 176.0, 208.0, 240.0, 280.0)
GPU_CAPS_FULL = (150.0, 200.0, 250.0)

#: Every registered GPU workload has one phase, so a two-phase input
#: (sgemm's phase, then minife's) covers the GPU kernel's phase stacking.
GPU_INPUTS = [*list_gpu_workloads(), "sgemm+minife"]


def gpu_phases(name: str) -> tuple[Phase, ...]:
    return tuple(ph for part in name.split("+") for ph in gpu_workload(part).phases)


def scalar_engine() -> SweepEngine:
    """The oracle: a fresh scalar-executor engine, its cache empty."""
    return SweepEngine(batch=False)


def batch_engine() -> SweepEngine:
    """The engine under test: vectorized misses."""
    return SweepEngine(batch=True)


def assert_results_identical(scalar, batch) -> None:
    """Every ExecutionResult field, exactly — plus the derived aggregates."""
    assert batch == scalar
    assert batch.proc_cap_w == scalar.proc_cap_w
    assert batch.mem_cap_w == scalar.mem_cap_w
    assert batch.device == scalar.device
    for ps, pb in zip(scalar.phases, batch.phases):
        for field in dataclasses.fields(ps):
            assert getattr(pb, field.name) == getattr(ps, field.name), field.name
    assert batch.elapsed_s == scalar.elapsed_s
    assert batch.proc_power_w == scalar.proc_power_w
    assert batch.mem_power_w == scalar.mem_power_w
    assert batch.respects_bound == scalar.respects_bound
    for want, got in ((scalar, batch), *zip(scalar.phases, batch.phases)):
        assert type(got) is type(want)
        assert list(vars(got).items()) == list(vars(want).items())
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert pickle.loads(pickle.dumps(got)) == want
        assert copy.copy(got) == want
        first = dataclasses.fields(got)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got, first, getattr(got, first))
    assert dataclasses.asdict(batch) == dataclasses.asdict(scalar)
    assert encode_result(batch) == encode_result(scalar)
    assert decode_result(encode_result(batch)) == scalar


def assert_sweeps_identical(scalar, batch) -> None:
    """Full observable sweep equivalence — exact, no tolerances."""
    assert sweep_signature(batch) == sweep_signature(scalar)
    assert batch.points == scalar.points
    assert plateau_span(batch) == plateau_span(scalar)
    assert batch.scenarios == scalar.scenarios
    assert batch.best == scalar.best


# ---------------------------------------------------------------------------
# kernel-level equivalence: full registry, representative budgets
# ---------------------------------------------------------------------------

class TestHostKernelEquivalence:
    @pytest.mark.parametrize("name", list_cpu_workloads())
    @pytest.mark.parametrize("platform_fixture", ["ivb", "has"])
    def test_full_registry(self, request, platform_fixture, name):
        node = request.getfixturevalue(platform_fixture)
        wl = cpu_workload(name)
        for budget in CPU_BUDGETS_FAST:
            allocations = allocation_grid(
                budget, mem_min_w=16.0, proc_min_w=8.0, step_w=4.0
            )
            batch = execute_host_batch(
                node.cpu,
                node.dram,
                wl.phases,
                [a.proc_w for a in allocations],
                [a.mem_w for a in allocations],
            )
            assert len(batch) == len(allocations)
            for alloc, result in zip(allocations, batch):
                scalar = execute_on_host(
                    node.cpu, node.dram, wl.phases, alloc.proc_w, alloc.mem_w
                )
                assert_results_identical(scalar, result)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", list_cpu_workloads())
    @pytest.mark.parametrize("platform_fixture", ["ivb", "has"])
    def test_full_budget_matrix(self, request, platform_fixture, name):
        node = request.getfixturevalue(platform_fixture)
        wl = cpu_workload(name)
        for budget in CPU_BUDGETS_FULL:
            allocations = allocation_grid(
                budget, mem_min_w=16.0, proc_min_w=8.0, step_w=4.0
            )
            batch = execute_host_batch(
                node.cpu,
                node.dram,
                wl.phases,
                [a.proc_w for a in allocations],
                [a.mem_w for a in allocations],
            )
            for alloc, result in zip(allocations, batch):
                scalar = execute_on_host(
                    node.cpu, node.dram, wl.phases, alloc.proc_w, alloc.mem_w
                )
                assert_results_identical(scalar, result)

    def test_empty_grid_returns_empty(self, ivb, stream):
        assert execute_host_batch(ivb.cpu, ivb.dram, stream.phases, [], []) == []

    def test_no_phases_rejected(self, ivb):
        with pytest.raises(SweepError):
            execute_host_batch(ivb.cpu, ivb.dram, (), [100.0], [40.0])

    def test_mismatched_columns_rejected(self, ivb, stream):
        with pytest.raises(SweepError):
            execute_host_batch(
                ivb.cpu, ivb.dram, stream.phases, [100.0, 120.0], [40.0]
            )

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), -1.0, "abc", None]
    )
    @pytest.mark.parametrize("column", ["proc", "mem"])
    def test_bad_caps_raise_what_watts_raises(self, ivb, stream, column, bad):
        """The array check defers to watts() entry by entry on failure,
        so the first bad entry's error is raised, as before the check."""
        good = [100.0, 120.0, 140.0]
        caps = {"proc": list(good), "mem": list(good)}
        caps[column][1] = bad
        caps[column][2] = float("nan")
        name = "cpu_cap_w" if column == "proc" else "dram_cap_w"
        with pytest.raises(Exception) as expected:
            [watts(float(c), name) for c in caps[column]]
        with pytest.raises(expected.type) as got:
            HostBatchKernel(ivb.cpu, ivb.dram, stream.phases, caps["proc"], caps["mem"])
        assert str(got.value) == str(expected.value)


class TestGpuKernelEquivalence:
    @pytest.mark.parametrize("name", GPU_INPUTS)
    @pytest.mark.parametrize("platform_fixture", ["xp", "tv"])
    def test_full_registry(self, request, platform_fixture, name):
        card = request.getfixturevalue(platform_fixture)
        phases = gpu_phases(name)
        freqs = [float(f) for f in card.mem.frequencies_mhz]
        for cap in GPU_CAPS_FAST:
            batch = execute_gpu_batch(card, phases, cap, freqs)
            assert len(batch) == len(freqs)
            for freq, result in zip(freqs, batch):
                scalar = execute_on_gpu(card, phases, cap, freq)
                assert_results_identical(scalar, result)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", list_gpu_workloads())
    @pytest.mark.parametrize("platform_fixture", ["xp", "tv"])
    def test_full_cap_matrix(self, request, platform_fixture, name):
        card = request.getfixturevalue(platform_fixture)
        wl = gpu_workload(name)
        freqs = [float(f) for f in card.mem.frequencies_mhz]
        for cap in GPU_CAPS_FULL:
            batch = execute_gpu_batch(card, wl.phases, cap, freqs)
            for freq, result in zip(freqs, batch):
                scalar = execute_on_gpu(card, wl.phases, cap, freq)
                assert_results_identical(scalar, result)

    def test_empty_clock_list_returns_empty(self, xp, sgemm):
        assert execute_gpu_batch(xp, sgemm.phases, 200.0, []) == []

    def test_out_of_range_cap_rejected(self, xp, sgemm):
        from repro.errors import PowerBoundError

        with pytest.raises(PowerBoundError):
            execute_gpu_batch(
                xp, sgemm.phases, 1.0, [float(xp.mem.nominal_mhz)]
            )


# ---------------------------------------------------------------------------
# small gathers: the host scalar transcription behind the gather crossover
# ---------------------------------------------------------------------------

class TestSmallGatherEquivalence:
    """Small gathers against the per-point oracle.

    At or below ``_HOST_GATHER_CROSSOVER`` virtual rows (rows x phases)
    the host kernel resolves each row with its own scalar transcription
    of the model.  Gather sizes straddle that crossover, so multi-phase
    workloads run on both sides of it.  The GPU kernel runs every
    gather, down to one row, through its vector pass.
    """

    @pytest.mark.parametrize("name", list_cpu_workloads())
    @pytest.mark.parametrize("platform_fixture", ["ivb", "has"])
    def test_host_gathers_match_the_oracle(self, request, platform_fixture, name):
        node = request.getfixturevalue(platform_fixture)
        wl = cpu_workload(name)
        allocations = allocation_grid(
            176.0, mem_min_w=16.0, proc_min_w=8.0, step_w=4.0
        )
        proc = [a.proc_w for a in allocations]
        mem = [a.mem_w for a in allocations]
        kernel = HostBatchKernel(node.cpu, node.dram, wl.phases, proc, mem)
        oracle = [
            execute_on_host(node.cpu, node.dram, wl.phases, p, m)
            for p, m in zip(proc, mem)
        ]
        n = len(oracle)
        scalar_rows = _HOST_GATHER_CROSSOVER // len(wl.phases)
        for size in sorted({1, 2, scalar_rows, scalar_rows + 1}):
            for start in range(0, n, size):
                rows = list(range(start, min(start + size, n)))[::-1]
                for i, result in zip(rows, kernel.execute_indices(rows)):
                    assert_results_identical(oracle[i], result)

    @pytest.mark.parametrize("name", GPU_INPUTS)
    @pytest.mark.parametrize("platform_fixture", ["xp", "tv"])
    def test_gpu_gathers_match_the_oracle(self, request, platform_fixture, name):
        card = request.getfixturevalue(platform_fixture)
        freqs = [float(f) for f in card.mem.frequencies_mhz]
        phases = gpu_phases(name)
        kernel = GpuBatchKernel(card, phases, 200.0, freqs)
        oracle = [execute_on_gpu(card, phases, 200.0, f) for f in freqs]
        for i in range(len(freqs)):
            (single,) = kernel.execute_indices([i])
            assert_results_identical(oracle[i], single)
            pair = kernel.execute_indices([i, len(freqs) - 1 - i])
            assert_results_identical(oracle[i], pair[0])
            assert_results_identical(oracle[len(freqs) - 1 - i], pair[1])


# ---------------------------------------------------------------------------
# sweep-level equivalence through the engine (plateau, scenarios, curves)
# ---------------------------------------------------------------------------

class TestSweepEquivalence:
    @pytest.mark.parametrize("name", list_cpu_workloads())
    def test_cpu_sweeps(self, ivb, name):
        wl = cpu_workload(name)
        for budget in CPU_BUDGETS_FAST:
            scalar = sweep_cpu_allocations(
                ivb.cpu, ivb.dram, wl, budget, engine=scalar_engine()
            )
            batch = sweep_cpu_allocations(
                ivb.cpu, ivb.dram, wl, budget, engine=batch_engine()
            )
            assert_sweeps_identical(scalar, batch)

    @pytest.mark.parametrize("name", list_gpu_workloads())
    def test_gpu_sweeps(self, xp, name):
        wl = gpu_workload(name)
        for cap in GPU_CAPS_FAST:
            scalar = sweep_gpu_allocations(xp, wl, cap, engine=scalar_engine())
            batch = sweep_gpu_allocations(xp, wl, cap, engine=batch_engine())
            assert_sweeps_identical(scalar, batch)
            assert np.array_equal(batch.mem_freqs_mhz, scalar.mem_freqs_mhz)
            assert np.array_equal(batch.performances, scalar.performances)

    def test_cpu_budget_curve(self, has, dgemm):
        budgets = [150.0, 200.0, 250.0]
        scalar = cpu_budget_curve(
            has.cpu, has.dram, dgemm, budgets, engine=scalar_engine()
        )
        batch = cpu_budget_curve(
            has.cpu, has.dram, dgemm, budgets, engine=batch_engine()
        )
        assert np.array_equal(batch.perf_max, scalar.perf_max)
        assert np.array_equal(batch.optimal_mem_w, scalar.optimal_mem_w)
        assert batch.saturation_budget_w == scalar.saturation_budget_w

    def test_gpu_budget_curve(self, tv, gpu_stream):
        caps = [150.0, 200.0]
        scalar = gpu_budget_curve(tv, gpu_stream, caps, engine=scalar_engine())
        batch = gpu_budget_curve(tv, gpu_stream, caps, engine=batch_engine())
        assert np.array_equal(batch.perf_max, scalar.perf_max)
        assert np.array_equal(batch.optimal_mem_w, scalar.optimal_mem_w)

    def test_scenarios_from_batch_results_match_scalar(self, ivb, stream):
        """Classification runs on batch-produced results, not re-derived."""
        allocations = allocation_grid(176.0, mem_min_w=16.0, proc_min_w=8.0)
        batch = execute_host_batch(
            ivb.cpu,
            ivb.dram,
            stream.phases,
            [a.proc_w for a in allocations],
            [a.mem_w for a in allocations],
        )
        for alloc, result in zip(allocations, batch):
            scalar = execute_on_host(
                ivb.cpu, ivb.dram, stream.phases, alloc.proc_w, alloc.mem_w
            )
            assert classify_cpu(result) == classify_cpu(scalar)

    def test_gpu_scenarios_from_batch_results(self, xp, minife):
        freqs = [float(f) for f in xp.mem.frequencies_mhz]
        batch = execute_gpu_batch(xp, minife.phases, 200.0, freqs)
        for freq, result in zip(freqs, batch):
            scalar = execute_on_gpu(xp, minife.phases, 200.0, freq)
            assert classify_gpu(result) == classify_gpu(scalar)


# ---------------------------------------------------------------------------
# hypothesis fuzz: synthetic platforms, budgets, grids
# ---------------------------------------------------------------------------

class TestFuzzedEquivalence:
    @property_settings(25)
    @given(
        n_cores=st.integers(min_value=1, max_value=32),
        f_min=st.sampled_from([0.8, 1.2, 1.6]),
        f_span=st.sampled_from([0.0, 0.4, 1.2]),
        idle_w=st.sampled_from([10.0, 25.0, 40.0]),
        dyn_w=st.sampled_from([40.0, 90.0, 140.0]),
        duty_steps=st.integers(min_value=1, max_value=8),
        bg_w=st.sampled_from([8.0, 20.0]),
        access_w=st.sampled_from([30.0, 90.0]),
        level_steps=st.integers(min_value=1, max_value=32),
        budget=st.integers(min_value=20, max_value=80).map(lambda k: 4.0 * k),
        flops=st.sampled_from([0.0, 1e12, 5e13]),
        bytes_moved=st.sampled_from([0.0, 1e11, 8e12]),
    )
    def test_fuzzed_platforms(
        self,
        n_cores,
        f_min,
        f_span,
        idle_w,
        dyn_w,
        duty_steps,
        bg_w,
        access_w,
        level_steps,
        budget,
        flops,
        bytes_moved,
    ):
        if flops == 0.0 and bytes_moved == 0.0:
            flops = 1e12  # a phase must do some work
        cpu = CpuDomain(
            n_cores=n_cores,
            pstates=PStateTable(f_min, f_min + f_span),
            idle_power_w=idle_w,
            max_dynamic_w=dyn_w,
            duty_steps=duty_steps,
        )
        dram = DramDomain(
            background_w=bg_w,
            max_access_w=access_w,
            peak_bw_gbps=60.0,
            level_steps=level_steps,
        )
        phases = (
            Phase(
                name="fuzz",
                flops=flops,
                bytes_moved=bytes_moved,
                activity=0.9,
                stall_activity=0.35,
                compute_efficiency=0.7 if flops else 0.0,
                memory_efficiency=0.8 if bytes_moved else 0.0,
            ),
        )
        allocations = allocation_grid(
            budget, mem_min_w=float(bg_w), proc_min_w=float(idle_w) / 2.0
        )
        batch = execute_host_batch(
            cpu,
            dram,
            phases,
            [a.proc_w for a in allocations],
            [a.mem_w for a in allocations],
        )
        for alloc, result in zip(allocations, batch):
            scalar = execute_on_host(cpu, dram, phases, alloc.proc_w, alloc.mem_w)
            assert_results_identical(scalar, result)

    @property_settings(15)
    @given(
        budget=st.integers(min_value=25, max_value=70).map(lambda k: 4.0 * k),
        step=st.sampled_from([2.0, 3.0, 4.0, 8.0, 12.0]),
        name=st.sampled_from(("dgemm", "stream", "sra")),
    )
    def test_fuzzed_grids_through_engine(self, ivb, budget, step, name):
        wl = cpu_workload(name)
        scalar = sweep_cpu_allocations(
            ivb.cpu, ivb.dram, wl, budget, step_w=step, engine=scalar_engine()
        )
        batch = sweep_cpu_allocations(
            ivb.cpu, ivb.dram, wl, budget, step_w=step, engine=batch_engine()
        )
        assert_sweeps_identical(scalar, batch)

    @property_settings(15)
    @given(
        cap=st.integers(min_value=140, max_value=250).map(float),
        stride=st.integers(min_value=1, max_value=4),
        name=st.sampled_from(("sgemm", "minife")),
    )
    def test_fuzzed_gpu_caps_through_engine(self, xp, cap, stride, name):
        wl = gpu_workload(name)
        scalar = sweep_gpu_allocations(
            xp, wl, cap, freq_stride=stride, engine=scalar_engine()
        )
        batch = sweep_gpu_allocations(
            xp, wl, cap, freq_stride=stride, engine=batch_engine()
        )
        assert_sweeps_identical(scalar, batch)


# ---------------------------------------------------------------------------
# engine contract: cache fill, warm behaviour, escape hatches
# ---------------------------------------------------------------------------

class TestEngineContract:
    def test_batch_fills_memo_cache_point_by_point(self, ivb, stream):
        engine = batch_engine()
        first = sweep_cpu_allocations(ivb.cpu, ivb.dram, stream, 208.0, engine=engine)
        stats = engine.stats
        assert stats.misses == len(first.points)
        assert stats.hits == 0
        assert stats.size == len(first.points)
        again = sweep_cpu_allocations(ivb.cpu, ivb.dram, stream, 208.0, engine=engine)
        assert again.points == first.points
        warm = engine.stats
        assert warm.misses == stats.misses  # nothing re-executed
        assert warm.hits == stats.hits + len(first.points)

    def test_batch_and_scalar_share_cache_keys(self, ivb, sra):
        """A batch-warmed cache fully serves the scalar path."""
        engine = SweepEngine(batch=True)
        sweep_cpu_allocations(ivb.cpu, ivb.dram, sra, 176.0, engine=engine)
        misses = engine.stats.misses
        engine.batch = False
        sweep_cpu_allocations(ivb.cpu, ivb.dram, sra, 176.0, engine=engine)
        assert engine.stats.misses == misses

    def test_duplicate_allocations_execute_once(self, ivb, stream):
        engine = batch_engine()
        allocations = list(
            allocation_grid(208.0, mem_min_w=16.0, proc_min_w=8.0, step_w=8.0)
        )
        results = engine.map_host(ivb.cpu, ivb.dram, stream.phases, allocations * 3)
        assert engine.stats.misses == len(allocations)
        assert results[: len(allocations)] * 3 == results

    def test_partial_cache_hits_compose(self, ivb, dgemm):
        """A half-warm grid resolves misses in batch and hits from cache."""
        engine = batch_engine()
        allocations = list(
            allocation_grid(208.0, mem_min_w=16.0, proc_min_w=8.0, step_w=4.0)
        )
        half = allocations[::2]
        engine.map_host(ivb.cpu, ivb.dram, dgemm.phases, half)
        assert engine.stats.misses == len(half)
        full = engine.map_host(ivb.cpu, ivb.dram, dgemm.phases, allocations)
        assert engine.stats.misses == len(allocations)
        assert engine.stats.hits == len(half)
        for alloc, result in zip(allocations, full):
            assert result == execute_on_host(
                ivb.cpu, ivb.dram, dgemm.phases, alloc.proc_w, alloc.mem_w
            )

    def test_default_engine_uses_batch(self, ivb, sra):
        scalar = sweep_cpu_allocations(
            ivb.cpu, ivb.dram, sra, 176.0, engine=scalar_engine()
        )
        with use_engine(SweepEngine()) as engine:
            assert engine.batch is True
            batch = sweep_cpu_allocations(ivb.cpu, ivb.dram, sra, 176.0)
        assert_sweeps_identical(scalar, batch)


# ---------------------------------------------------------------------------
# NaN/inf guards: a batch kernel must never poison a plateau pick
# ---------------------------------------------------------------------------

class TestNonFiniteGuards:
    @staticmethod
    def _poisoned_sweep(ivb, stream, value: float) -> AllocationSweep:
        sweep = sweep_cpu_allocations(
            ivb.cpu, ivb.dram, stream, 176.0, engine=batch_engine()
        )
        points = list(sweep.points)
        points[len(points) // 2] = dataclasses.replace(
            points[len(points) // 2], performance=value
        )
        return dataclasses.replace(sweep, points=tuple(points))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_optimal_plateau_rejects_nonfinite(self, ivb, stream, value):
        poisoned = self._poisoned_sweep(ivb, stream, value)
        with pytest.raises(SweepError):
            optimal_plateau(poisoned.points)

    def test_best_point_rejects_nonfinite(self, ivb, stream):
        poisoned = self._poisoned_sweep(ivb, stream, float("nan"))
        with pytest.raises(SweepError):
            poisoned.best

    def test_plateau_on_batch_points_is_finite_and_valid(self, ivb, dgemm):
        sweep = sweep_cpu_allocations(
            ivb.cpu, ivb.dram, dgemm, 208.0, engine=batch_engine()
        )
        lo, hi = optimal_plateau(sweep.points)
        assert 0 <= lo <= hi < len(sweep.points)
        assert all(math.isfinite(p.performance) for p in sweep.points)

    def test_batch_results_are_finite_across_registry(self, ivb):
        """No NaN/inf sneaks out of the vectorized arithmetic itself."""
        for name in list_cpu_workloads():
            wl = cpu_workload(name)
            allocations = allocation_grid(176.0, mem_min_w=16.0, proc_min_w=8.0)
            for result in execute_host_batch(
                ivb.cpu,
                ivb.dram,
                wl.phases,
                [a.proc_w for a in allocations],
                [a.mem_w for a in allocations],
            ):
                assert math.isfinite(result.elapsed_s)
                for phase in result.phases:
                    assert math.isfinite(phase.proc_power_w)
                    assert math.isfinite(phase.mem_power_w)
                    assert math.isfinite(phase.utilization)
                    assert math.isfinite(phase.mem_busy)
