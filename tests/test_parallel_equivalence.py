"""Differential harness: the memoized sweep engine vs the serial oracle.

The contract under test (:mod:`repro.core.parallel`) is that memoization
is *invisible*: a sweep run through a cached engine must be bit-for-bit
identical to the serial oracle — same ``ExecutionResult`` per
allocation, in any submission order — while an identical point never
executes twice and a re-characterized workload never hits a stale entry.
The engine-vs-oracle equality of whole sweeps, budget curves and fuzzed
grids is locked in ``tests/test_batch_equivalence.py``.

Property-based tests (hypothesis, derandomized) fuzz budgets and repeat
counts, and check cache statistics: hits monotone over repeats, misses
frozen, mutation-safe keys.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.allocation import allocation_grid
from repro.core.parallel import (
    DEFAULT_CACHE_SIZE,
    CacheStats,
    MemoCache,
    PlannerState,
    SweepEngine,
    default_engine,
    fingerprint,
    freeze,
    set_default_engine,
    use_engine,
)
from repro.core.planner import plan_cpu_sweep, plan_gpu_sweep
from repro.core.sweep import cpu_budget_curve, sweep_cpu_allocations
from repro.errors import SweepError
from repro.faults import FaultPlan
from repro.perfmodel.executor import execute_on_host
from tests.conftest import property_settings, seeded_rng


# ---------------------------------------------------------------------------
# property-based: cache statistics, order independence
# ---------------------------------------------------------------------------

class TestProperties:
    @property_settings(10)
    @given(
        budget=st.integers(min_value=30, max_value=70).map(lambda k: 4.0 * k),
        repeats=st.integers(min_value=2, max_value=4),
    )
    def test_cache_hits_monotone_over_repeats(self, ivb, stream, budget, repeats):
        """Repeating an identical sweep only ever adds hits, never misses."""
        engine = SweepEngine()
        first = sweep_cpu_allocations(
            ivb.cpu, ivb.dram, stream, budget, engine=engine
        )
        baseline = engine.stats
        assert baseline.misses == len(first.points)
        assert baseline.hits == 0
        prior_hits = baseline.hits
        for _ in range(repeats):
            again = sweep_cpu_allocations(
                ivb.cpu, ivb.dram, stream, budget, engine=engine
            )
            assert again.points == first.points
            stats = engine.stats
            assert stats.misses == baseline.misses  # nothing re-executed
            assert stats.hits == prior_hits + len(first.points)
            prior_hits = stats.hits
        assert engine.stats.hit_ratio >= 0.5

    @property_settings(10)
    @given(
        budget=st.integers(min_value=30, max_value=70).map(lambda k: 4.0 * k),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_submission_order_is_invisible(self, ivb, dgemm, budget, seed):
        """Shuffled allocations map to the same per-allocation results."""
        allocations = allocation_grid(budget, mem_min_w=16.0, proc_min_w=8.0,
                                      step_w=4.0)
        shuffled = list(allocations)
        seeded_rng("order", seed).shuffle(shuffled)
        straight = SweepEngine().map_host(
            ivb.cpu, ivb.dram, dgemm.phases, allocations
        )
        permuted = SweepEngine().map_host(
            ivb.cpu, ivb.dram, dgemm.phases, shuffled
        )
        by_alloc = {(a.proc_w, a.mem_w): r for a, r in zip(shuffled, permuted)}
        for alloc, result in zip(allocations, straight):
            assert by_alloc[(alloc.proc_w, alloc.mem_w)] == result

    def test_duplicate_allocations_execute_once(self, ivb, stream):
        # The scalar path dedups too (the batch path is pinned in
        # tests/test_batch_equivalence.py).
        engine = SweepEngine(batch=False)
        allocations = list(allocation_grid(208.0, mem_min_w=16.0,
                                           proc_min_w=8.0, step_w=8.0))
        results = engine.map_host(
            ivb.cpu, ivb.dram, stream.phases, allocations * 3
        )
        assert engine.stats.misses == len(allocations)
        assert results[: len(allocations)] * 3 == results


# ---------------------------------------------------------------------------
# mutation safety: content keys, not identity keys
# ---------------------------------------------------------------------------

class TestCacheMutationSafety:
    def test_scaled_workload_never_served_stale(self, ivb, stream):
        """A workload whose phases change must re-execute, not hit the cache.

        ``Workload.scaled`` keeps the name but rewrites the phases; keys
        are phase-content fingerprints, so the second sweep must be all
        misses and its execution times must differ.
        """
        engine = SweepEngine()
        before = sweep_cpu_allocations(
            ivb.cpu, ivb.dram, stream, 208.0, engine=engine
        )
        stats_before = engine.stats
        mutated = stream.scaled(2.0)
        assert mutated.name == stream.name
        after = sweep_cpu_allocations(
            ivb.cpu, ivb.dram, mutated, 208.0, engine=engine
        )
        stats_after = engine.stats
        assert stats_after.hits == stats_before.hits  # zero stale hits
        assert stats_after.misses == stats_before.misses + len(after.points)
        for b, a in zip(before.points, after.points):
            assert a.result.elapsed_s != b.result.elapsed_s

    def test_fingerprint_tracks_content(self, stream):
        assert fingerprint(stream.phases) == fingerprint(tuple(stream.phases))
        assert fingerprint(stream.phases) != fingerprint(stream.scaled(2.0).phases)

    def test_freeze_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            freeze(object())


# ---------------------------------------------------------------------------
# engine plumbing: fan-out settings, cache bounds, default scoping
# ---------------------------------------------------------------------------

class TestEnginePlumbing:
    def test_bad_backend_rejected(self):
        for backend in ("process", "mpi"):
            with pytest.raises(SweepError):
                SweepEngine(backend=backend)

    def test_only_one_job_accepted(self):
        for n_jobs in (0, 2, 4):
            with pytest.raises(SweepError):
                SweepEngine(n_jobs=n_jobs)
        SweepEngine(n_jobs=None)
        SweepEngine(n_jobs=1, backend="thread")

    @pytest.mark.parametrize(
        "kwargs",
        [{"faults": FaultPlan.empty()}, {"cache": MemoCache(8)}, {"cache_size": 16}],
        ids=["faults", "cache", "cache_size"],
    )
    def test_deleted_arguments_raise_type_error(self, kwargs):
        # Faults arm only through use_faults, and every engine owns its
        # cache at the default bound.
        with pytest.raises(TypeError):
            SweepEngine(**kwargs)

    def test_planner_memory_is_bounded_by_the_memo_bound(self, ivb, dgemm):
        # The stash keeps one completed plan per budget, and a server
        # takes its budgets from clients: both planner maps are LRUs at
        # the engine's memo bound, and evicting from them never moves
        # an answer.
        budgets = np.arange(120.0, 320.0)
        engine = SweepEngine(mode="adaptive")
        assert engine.planner._stash.stats.maxsize == DEFAULT_CACHE_SIZE
        assert engine.planner._hints.stats.maxsize == DEFAULT_CACHE_SIZE
        engine.planner = PlannerState(maxsize=16)
        planned = cpu_budget_curve(ivb.cpu, ivb.dram, dgemm, budgets, engine=engine)
        assert len(engine.planner._stash) <= 16
        assert len(engine.planner._hints) <= 16
        assert engine.planner._stash.stats.evictions > 0
        full = cpu_budget_curve(
            ivb.cpu, ivb.dram, dgemm, budgets, engine=SweepEngine(mode="full")
        )
        assert np.array_equal(planned.perf_max, full.perf_max)
        assert np.array_equal(planned.optimal_mem_w, full.optimal_mem_w)

    def test_planner_memory_bound_holds_across_threads(self):
        # The server's resolver threads share one engine's planner state:
        # a lost update would break size + evictions == distinct stores.
        planner = PlannerState(maxsize=16)

        def hammer(worker: int) -> None:
            for k in range(500):
                planner.stash((worker, k), k)
                planner.remember((worker, k), float(k), True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for memory in (planner._stash, planner._hints):
            stats = memory.stats
            assert stats.size == 16
            assert stats.evictions == 4 * 500 - 16

    @pytest.mark.parametrize("device", ("cpu", "gpu"))
    def test_a_replayed_plan_opens_no_subgrid(self, ivb, dgemm, xp, sgemm, device):
        # Only a replay miss sets up the saturation stash and the engine
        # sub-grid.  The planner maps are LRUs, so an extra access on a
        # replay hit would change what a bounded engine evicts.
        opened: list[str] = []

        class CountingEngine(SweepEngine):
            def host_subgrid(self, *args, **kwargs):
                opened.append("host")
                return super().host_subgrid(*args, **kwargs)

            def gpu_subgrid(self, *args, **kwargs):
                opened.append("gpu")
                return super().gpu_subgrid(*args, **kwargs)

        engine = CountingEngine()

        def plan():
            if device == "cpu":
                return plan_cpu_sweep(ivb.cpu, ivb.dram, dgemm, 180.0, engine=engine)
            return plan_gpu_sweep(xp, sgemm, 200.0, engine=engine)

        first = plan()
        assert opened == ["host" if device == "cpu" else "gpu"]
        lookups = engine.planner._stash.stats.lookups
        replayed = plan()
        assert opened == ["host" if device == "cpu" else "gpu"]
        assert engine.planner._stash.stats.lookups == lookups + 1  # the replay
        assert replayed.best == first.best
        assert replayed.stats.executed_points == 0

    def test_cache_bound_enforced(self):
        with pytest.raises(SweepError):
            MemoCache(maxsize=0)

    def test_cache_evicts_lru(self):
        cache = MemoCache(maxsize=2)
        cache.store("a", 1)
        cache.store("b", 2)
        assert cache.lookup("a") == (True, 1)  # refresh 'a'
        cache.store("c", 3)  # evicts 'b'
        assert cache.lookup("b") == (False, None)
        assert cache.lookup("a") == (True, 1)
        stats = cache.stats
        assert stats.evictions == 1
        assert stats.size == 2

    def test_hit_ratio_tiers_are_disjoint_and_complete(self):
        stats = CacheStats(hits=8, misses=2, evictions=0, size=8, maxsize=16,
                           disk_hits=3)
        assert stats.memo_hits == 5
        total = stats.hit_ratio + stats.disk_hit_ratio
        assert total == pytest.approx(stats.hits / stats.lookups)
        untouched = CacheStats(hits=0, misses=0, evictions=0, size=0, maxsize=4)
        assert untouched.hit_ratio == 0.0
        assert untouched.disk_hit_ratio == 0.0

    def test_engine_respects_shared_cache(self, tmp_path, ivb, sra):
        # Engines share results through a common cache_dir: what a batch
        # engine stored fully serves a scalar engine, with no miss.
        first = SweepEngine(cache_dir=tmp_path)
        warmed = sweep_cpu_allocations(ivb.cpu, ivb.dram, sra, 176.0, engine=first)
        first.flush()
        second = SweepEngine(cache_dir=tmp_path, batch=False)
        served = sweep_cpu_allocations(ivb.cpu, ivb.dram, sra, 176.0, engine=second)
        assert second.stats.misses == 0  # second engine fully served
        assert second.stats.disk_hits == len(warmed.points)
        assert served.points == warmed.points

    def test_memoized_single_point_matches_direct(self, ivb, minife, sgemm):
        engine = SweepEngine()
        direct = execute_on_host(ivb.cpu, ivb.dram, sgemm.phases, 120.0, 40.0)
        assert engine.execute_host(
            ivb.cpu, ivb.dram, sgemm.phases, 120.0, 40.0
        ) == direct
        assert engine.execute_host(
            ivb.cpu, ivb.dram, sgemm.phases, 120.0, 40.0
        ) == direct
        assert engine.stats.hits == 1

    def test_use_engine_restores_previous_default(self):
        original = default_engine()
        scoped = SweepEngine()
        with use_engine(scoped) as active:
            assert active is scoped
            assert default_engine() is scoped
        assert default_engine() is original

    def test_set_default_engine_returns_previous(self):
        original = default_engine()
        replacement = SweepEngine()
        assert set_default_engine(replacement) is original
        try:
            assert default_engine() is replacement
        finally:
            set_default_engine(original)
