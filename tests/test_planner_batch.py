"""Stage-level differential battery: batched planner stages vs the oracle.

The planner resolves every stage's point subset — the probe grid, the
certify/escalation set, each lockstep bracket-walk frontier, the plateau
middle — through one :class:`~repro.core.parallel.SubgridExecutor` per
plan, and each subset is one gathered kernel pass.  These tests trace
the stage-by-stage fetch sequence and check every traced row against
the scalar oracle (``execute_on_host``/``execute_on_gpu``) at that axis
row: bit-for-bit identical results, each row executed once in the cache
accounting — across both full workload registries and
hypothesis-fuzzed synthetic domains.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import given

import numpy as np

from repro.core.allocation import allocation_grid
from repro.core.parallel import (
    PlannerStats,
    SubgridExecutor,
    SweepEngine,
    fingerprint,
)
from repro.core.planner import (
    _default_stride,
    _probe_indices,
    adaptive_cpu_budget_curve,
    adaptive_gpu_budget_curve,
    plan_cpu_sweep,
    plan_gpu_sweep,
)
from repro.core.sweep import gpu_freq_axis
from repro.experiments.fig9 import CPU_BUDGETS_W, GPU_CAPS_W
from repro.hardware.platforms import (
    haswell_node,
    ivybridge_node,
    titan_v_card,
    titan_xp_card,
)
from repro.perfmodel.executor import execute_on_gpu, execute_on_host
from repro.workloads import (
    cpu_workload,
    gpu_workload,
    list_cpu_workloads,
    list_gpu_workloads,
)

from tests.conftest import planner_cpu_cases, property_settings

import pytest


@contextmanager
def subgrid_trace():
    """Record every ``SubgridExecutor.run`` call: one entry per stage batch.

    Each entry is ``(indices, results, keys)`` with the indices exactly as
    the planner requested them, the results exactly as the engine
    returned them, and each requested row's cache key, which names the
    row's axis values and, by fingerprint, the models it ran on.
    """
    log: list[tuple[tuple[int, ...], tuple, tuple]] = []
    original = SubgridExecutor.run

    def wrapped(self, indices):
        out = original(self, indices)
        log.append((
            tuple(int(i) for i in indices),
            tuple(out),
            tuple(self._keys[i] for i in indices),
        ))
        return out

    SubgridExecutor.run = wrapped
    try:
        yield log
    finally:
        SubgridExecutor.run = original


def traced_cpu_plan(node, wl, budget, *, step_w=4.0, engine=None):
    engine = engine or SweepEngine()
    with subgrid_trace() as log:
        planned = plan_cpu_sweep(
            node.cpu, node.dram, wl, budget, step_w=step_w, engine=engine
        )
    return planned, log, engine


def traced_gpu_plan(card, wl, cap, *, engine=None):
    engine = engine or SweepEngine()
    with subgrid_trace() as log:
        planned = plan_gpu_sweep(card, wl, cap, freq_stride=1, engine=engine)
    return planned, log, engine


#: The registered platforms and workloads, by content fingerprint.
_MODELS = {
    fingerprint(model): model
    for model in (
        *(part for node in (ivybridge_node(), haswell_node())
          for part in (node.cpu, node.dram)),
        titan_xp_card(),
        titan_v_card(),
        *(tuple(cpu_workload(name).phases) for name in list_cpu_workloads()),
        *(tuple(gpu_workload(name).phases) for name in list_gpu_workloads()),
    )
}


def assert_trace_matches_oracle(log, *models) -> None:
    """Every traced row is bit-for-bit the scalar oracle's at that row.

    ``models`` adds the CPU, DRAM, card or phase tuples a trace ran on
    beyond the registered ones.
    """
    by_fp = {**_MODELS, **{fingerprint(m): m for m in models}}
    for stage, (indices, results, keys) in enumerate(log):
        assert len(results) == len(keys) == len(indices)
        for key, result in zip(keys, results):
            if key[0] == "host":
                cpu, dram, phases = (by_fp[fp] for fp in key[1:4])
                want = execute_on_host(cpu, dram, phases, *key[4:])
            else:
                card, phases = (by_fp[fp] for fp in key[1:3])
                want = execute_on_gpu(card, phases, *key[3:])
            assert result == want, f"stage {stage} row {key[-2:]}"


def executed_keys(log) -> set[tuple]:
    return {key for _, _, keys in log for key in keys}


def executed_set(log) -> set[int]:
    return {i for indices, *_ in log for i in indices}


# ---------------------------------------------------------------------------
# probe: the first stage batch is the exact probe grid, on both paths
# ---------------------------------------------------------------------------

class TestProbeStage:
    def test_cold_cpu_probe_is_one_exact_batch(self, ivb, dgemm):
        n = len(allocation_grid(208.0, mem_min_w=16.0, proc_min_w=8.0))
        planned, log, _ = traced_cpu_plan(ivb, dgemm, 208.0)
        assert not planned.stats.fallback
        probes = _probe_indices(n, _default_stride(n), None, False)
        assert log[0][0] == tuple(probes)
        assert planned.stats.probe_points == len(probes)

    def test_cold_gpu_probe_is_one_exact_batch(self, xp, sgemm):
        n = len(gpu_freq_axis(xp, 1))
        planned, log, _ = traced_gpu_plan(xp, sgemm, 190.0)
        probes = _probe_indices(n, _default_stride(n), None, False)
        assert log[0][0] == tuple(probes)

    @pytest.mark.parametrize("budget", (176.0, 208.0))
    def test_probe_batch_identical_across_paths(self, ivb, dgemm, budget):
        _, batched, _ = traced_cpu_plan(ivb, dgemm, budget)
        assert_trace_matches_oracle(batched[:1])


# ---------------------------------------------------------------------------
# certify: a violated certificate falls back identically on both paths
# ---------------------------------------------------------------------------

class TestCertifyStage:
    def test_fallback_case_fetches_nothing_past_the_probe(self, ivb, sra):
        # Cold SRA at 120 W / 6 W steps violates the probe certificates:
        # the planner's fetches must stop at the probe batch, and the
        # full sweep that takes over transparently is exactly one
        # whole-axis pass through the same executor loop.
        planned, log, _ = traced_cpu_plan(ivb, sra, 120.0, step_w=6.0)
        assert planned.stats.fallback
        assert len(log) == 2
        assert log[1][0] == tuple(range(planned.stats.native_points))
        assert planned.stats.executed_points == planned.stats.native_points

    def test_fallback_is_identical_across_paths(self, ivb, sra):
        planned, log, engine = traced_cpu_plan(ivb, sra, 120.0, step_w=6.0)
        assert planned.stats.fallback
        assert_trace_matches_oracle(log)
        # The probe rows are hits for the full sweep that takes over.
        assert engine.cache.stats.misses == len(executed_keys(log))
        assert engine.cache.stats.hits == len(log[0][0])

    def test_certify_pass_adds_no_extra_batch(self, has, dgemm):
        # Certification consumes probe results without fetching: on a
        # clean plan every post-probe batch belongs to the walk/select
        # stages and is strictly smaller than the probe batch.
        planned, log, _ = traced_cpu_plan(has, dgemm, 208.0)
        assert not planned.stats.fallback
        probe_size = len(log[0][0])
        assert all(len(idx) < probe_size for idx, *_ in log[1:])


# ---------------------------------------------------------------------------
# bracket/walk: lockstep frontier rounds, batched, identical across paths
# ---------------------------------------------------------------------------

class TestWalkStage:
    def test_frontier_rounds_are_small_batches(self, ivb, dgemm):
        engine = SweepEngine()
        traced_cpu_plan(ivb, dgemm, 176.0, engine=engine)
        planned, log, _ = traced_cpu_plan(ivb, dgemm, 208.0, engine=engine)
        assert not planned.stats.fallback
        # Each lockstep round fetches at most two frontier neighbors and
        # two momentum points; the plateau middle adds a singleton.
        assert all(len(idx) <= 4 for idx, *_ in log[1:])

    def test_walk_rounds_identical_across_paths(self, ivb, dgemm):
        engine = SweepEngine()
        for budget in (176.0, 208.0, 240.0):
            planned, log, _ = traced_cpu_plan(ivb, dgemm, budget, engine=engine)
            assert_trace_matches_oracle(log)
            assert planned.best_index in executed_set(log)

    def test_walk_fetches_are_disjoint_from_probes(self, ivb, dgemm):
        planned, log, _ = traced_cpu_plan(ivb, dgemm, 208.0)
        assert not planned.stats.fallback
        probe_set = set(log[0][0])
        walked = {i for idx, *_ in log[1:] for i in idx}
        assert not (walked & probe_set)


# ---------------------------------------------------------------------------
# select: the plateau middle comes from the same sub-grid door
# ---------------------------------------------------------------------------

class TestSelectStage:
    def test_best_index_is_executed_through_the_subgrid(self, ivb, dgemm):
        planned, log, _ = traced_cpu_plan(ivb, dgemm, 208.0)
        assert not planned.stats.fallback
        assert planned.best_index in executed_set(log)
        lo, hi = planned.plateau
        assert planned.best_index == (lo + hi) // 2

    def test_selected_point_identical_across_paths(self, tv, minife):
        planned, log, _ = traced_gpu_plan(tv, minife, 190.0)
        assert_trace_matches_oracle(log)
        assert planned.best_index in executed_set(log)


# ---------------------------------------------------------------------------
# full registries: every stage batch identical, both devices
# ---------------------------------------------------------------------------

class TestRegistryStageDifferential:
    @pytest.mark.parametrize("name", list_cpu_workloads())
    @pytest.mark.parametrize("platform_fixture", ["ivb", "has"])
    def test_cpu_registry(self, request, platform_fixture, name):
        node = request.getfixturevalue(platform_fixture)
        wl = cpu_workload(name)
        engine = SweepEngine()
        executed: set[tuple] = set()
        for budget in (176.0, 240.0):
            planned, log, _ = traced_cpu_plan(node, wl, budget, engine=engine)
            assert_trace_matches_oracle(log)
            assert planned.stats.executed_points == len(executed_keys(log))
            executed |= executed_keys(log)
        assert engine.cache.stats.misses == len(executed)

    @pytest.mark.parametrize("name", list_gpu_workloads())
    @pytest.mark.parametrize("platform_fixture", ["xp", "tv"])
    def test_gpu_registry(self, request, platform_fixture, name):
        card = request.getfixturevalue(platform_fixture)
        wl = gpu_workload(name)
        engine = SweepEngine()
        executed: set[tuple] = set()
        for cap in (150.0, 250.0):
            planned, log, _ = traced_gpu_plan(card, wl, cap, engine=engine)
            assert_trace_matches_oracle(log)
            assert planned.stats.executed_points == len(executed_keys(log))
            executed |= executed_keys(log)
        assert engine.cache.stats.misses == len(executed)


# ---------------------------------------------------------------------------
# golden executed-point pins: figure-scale runs, exact counts
# ---------------------------------------------------------------------------

def _fig2_scale(engine):
    for node in (ivybridge_node(), haswell_node()):
        for wname in ("dgemm", "sra"):
            adaptive_cpu_budget_curve(
                node.cpu, node.dram, cpu_workload(wname),
                np.arange(120.0, 301.0, 10.0), step_w=6.0, engine=engine,
            )


def _fig6_scale(engine):
    for card in (titan_xp_card(), titan_v_card()):
        caps = np.arange(130.0, 301.0, 10.0)
        caps = caps[(caps >= card.min_cap_w) & (caps <= card.max_cap_w)]
        for wname in ("sgemm", "minife"):
            adaptive_gpu_budget_curve(
                card, gpu_workload(wname), caps, engine=engine
            )


def _fig9_scale(engine):
    node = ivybridge_node()
    for wname in list_cpu_workloads():
        for budget in CPU_BUDGETS_W:
            plan_cpu_sweep(
                node.cpu, node.dram, cpu_workload(wname), float(budget),
                step_w=4.0, engine=engine,
            )
    for card in (titan_xp_card(), titan_v_card()):
        caps = [c for c in GPU_CAPS_W if card.min_cap_w <= c <= card.max_cap_w]
        for wname in list_gpu_workloads():
            for cap in caps:
                plan_gpu_sweep(card, gpu_workload(wname), float(cap), engine=engine)


#: Golden accounting per figure-scale run.  These are exact pins, not
#: bounds: any silent regrowth of the executed set — a batching change
#: that fetches even one speculative point more — moves a counter and
#: fails the test.  Re-derive deliberately when the planner's search
#: policy changes on purpose.
_GOLDEN = {
    "fig2": (_fig2_scale, PlannerStats(
        sweeps=76, fallbacks=1, warm_starts=72,
        native_points=2408, executed_points=707, reused_points=321,
    ), 4, 707),
    "fig6": (_fig6_scale, PlannerStats(
        sweeps=72, fallbacks=2, warm_starts=68,
        native_points=1584, executed_points=431, reused_points=290,
    ), 14, 431),
    "fig9": (_fig9_scale, PlannerStats(
        sweeps=92, fallbacks=1, warm_starts=69,
        native_points=2948, executed_points=959, reused_points=152,
    ), 5, 959),
}


class TestGoldenPointCounts:
    @pytest.mark.parametrize("fig", sorted(_GOLDEN))
    def test_executed_point_pins(self, fig):
        run, pinned, cache_hits, cache_misses = _GOLDEN[fig]
        engine = SweepEngine()
        run(engine)
        assert engine.planner.stats == pinned
        assert engine.cache.stats.hits == cache_hits
        assert engine.cache.stats.misses == cache_misses
        # The planner's memories hold at the default bound: no pin rests
        # on an eviction.
        assert engine.planner._stash.stats.evictions == 0
        assert engine.planner._hints.stats.evictions == 0

    @pytest.mark.parametrize("fig", sorted(_GOLDEN))
    def test_cache_counters_match_scalar_planner(self, fig):
        run, pinned, cache_hits, cache_misses = _GOLDEN[fig]
        engine = SweepEngine()
        with subgrid_trace() as log:
            run(engine)
        assert_trace_matches_oracle(log)
        # Every oracle-checked row was executed once, and every other
        # traced lookup was a hit.
        assert len(executed_keys(log)) == cache_misses
        assert sum(len(set(keys)) for _, _, keys in log) == (
            cache_hits + cache_misses
        )
        assert engine.planner.stats == pinned

    def test_savings_hold_the_papers_multiplier(self):
        # The planner's reason to exist: every figure-scale run executes
        # at least 3x fewer model points than the native grids.
        for fig, (run, pinned, _, _) in _GOLDEN.items():
            assert pinned.savings_ratio > 3.0, fig


# ---------------------------------------------------------------------------
# fuzzed synthetic domains (shared conftest strategies)
# ---------------------------------------------------------------------------

class TestFuzzedStageDifferential:
    @property_settings(25)
    @given(case=planner_cpu_cases())
    def test_fuzzed_stage_traces_match(self, case):
        cpu, dram, wl = case["cpu"], case["dram"], case["workload"]
        kwargs = {
            k: case[k]
            for k in ("budget_w", "step_w", "mem_min_w", "proc_min_w")
        }
        with subgrid_trace() as log:
            planned = plan_cpu_sweep(cpu, dram, wl, engine=SweepEngine(), **kwargs)
        assert_trace_matches_oracle(log, cpu, dram, tuple(wl.phases))
        assert planned.stats.executed_points == len(executed_keys(log))
        assert planned.best_index in executed_set(log)
