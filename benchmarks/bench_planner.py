"""Adaptive sweep planner: executed-point reduction and disk-cache reuse.

Three paper-scale workloads, each run in ``full`` (oracle) and
``adaptive`` (planner) mode with answer equality checked in-run:

* **fig2 curves** — dgemm + sra budget curves on both CPU nodes
  (120–300 W, 10 W apart, 6 W allocation steps);
* **fig6 curves** — sgemm + minife cap curves on both GPU cards
  (130–300 W, 10 W apart, full clock grid);
* **fig9 grid** — the Figure-9 experiment's sweep load: every CPU
  workload at four budgets (4 W steps) on IvyBridge plus every GPU
  workload at the in-range caps on both cards.

Each config times four passes, best-of-5 (min): **cold** passes build a
fresh engine per repeat, **warm** passes re-run the identical load on
the engine the cold pass populated.  The acceptance claims:

* deterministic *model-point counts* — the planner answers bit-for-bit
  identically while executing at least 3x fewer points on every config;
* *wall-clock dominance* — with planner stages resolving through the
  vectorized batch kernel, adaptive beats the full sweep cold AND warm
  on every config (``speedup["<label>_cold"]``/``["<label>_warm"]`` in
  ``reports/planner.json``, both >= 1.0x);
* the fig9 grid additionally runs cold-vs-warm against a persistent
  disk cache (``SweepEngine(cache_dir=...)``): the warm pass re-plans
  from a fresh process-like engine whose lookups are all served from
  disk, and must be at least 5x faster than the cold pass.

``--bench-quick`` runs single repeats, skips the full-oracle fig9
equivalence spot check (``tests/test_planner_equivalence.py`` locks it
exhaustively anyway), and skips the wall-clock floors (single repeats
are too noisy to gate on).
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.core.parallel import SweepEngine
from repro.core.planner import (
    adaptive_cpu_budget_curve,
    adaptive_gpu_budget_curve,
    plan_cpu_sweep,
    plan_gpu_sweep,
)
from repro.core.sweep import (
    cpu_budget_curve,
    gpu_budget_curve,
    sweep_cpu_allocations,
    sweep_gpu_allocations,
)
from repro.experiments.fig9 import CPU_BUDGETS_W, GPU_CAPS_W
from repro.hardware.platforms import (
    haswell_node,
    ivybridge_node,
    titan_v_card,
    titan_xp_card,
)
from repro.workloads import (
    cpu_workload,
    gpu_workload,
    list_cpu_workloads,
    list_gpu_workloads,
)

from _harness import write_json_report, write_text_report

FIG2_BUDGETS = np.arange(120.0, 301.0, 10.0)
FIG2_STEP_W = 6.0
FIG6_CAPS = np.arange(130.0, 301.0, 10.0)
FIG9_STEP_W = 4.0

MIN_POINT_RATIO = 3.0
#: Disk-warm floor vs the cold pass that populated the cache.  The cold
#: baseline is itself batch-kernel-fast now (the planner's stages run
#: vectorized), which compresses this ratio from the ~10x of the scalar
#: planner era; 3x still proves warm planning never touches the model.
MIN_DISK_WARM_SPEEDUP = 3.0


def _fig2_curves(engine, adaptive: bool):
    curves = []
    fn = adaptive_cpu_budget_curve if adaptive else cpu_budget_curve
    for node in (ivybridge_node(), haswell_node()):
        for name in ("dgemm", "sra"):
            curves.append(
                fn(
                    node.cpu,
                    node.dram,
                    cpu_workload(name),
                    FIG2_BUDGETS,
                    step_w=FIG2_STEP_W,
                    engine=engine,
                )
            )
    return curves


def _fig6_curves(engine, adaptive: bool):
    curves = []
    fn = adaptive_gpu_budget_curve if adaptive else gpu_budget_curve
    for card in (titan_xp_card(), titan_v_card()):
        caps = FIG6_CAPS[
            (FIG6_CAPS >= card.min_cap_w) & (FIG6_CAPS <= card.max_cap_w)
        ]
        for name in ("sgemm", "minife"):
            curves.append(
                fn(card, gpu_workload(name), caps, freq_stride=1, engine=engine)
            )
    return curves


def _fig9_bests(engine, adaptive: bool):
    """Best points of every sweep the fig9 experiment issues."""
    bests = []
    node = ivybridge_node()
    for name in list_cpu_workloads():
        wl = cpu_workload(name)
        for budget in CPU_BUDGETS_W:
            if adaptive:
                best = plan_cpu_sweep(
                    node.cpu, node.dram, wl, budget, step_w=FIG9_STEP_W,
                    engine=engine,
                ).best
            else:
                best = sweep_cpu_allocations(
                    node.cpu, node.dram, wl, budget, step_w=FIG9_STEP_W,
                    engine=engine,
                ).best
            bests.append(best)
    for card in (titan_xp_card(), titan_v_card()):
        caps = [c for c in GPU_CAPS_W if card.min_cap_w <= c <= card.max_cap_w]
        for name in list_gpu_workloads():
            wl = gpu_workload(name)
            for cap in caps:
                if adaptive:
                    best = plan_gpu_sweep(
                        card, wl, cap, freq_stride=1, engine=engine
                    ).best
                else:
                    best = sweep_gpu_allocations(
                        card, wl, cap, freq_stride=1, engine=engine
                    ).best
                bests.append(best)
    return bests


def _native_points_fig9() -> int:
    """Native grid size of the fig9 sweep load (what "full" executes)."""
    total = 0
    node = ivybridge_node()
    wl = cpu_workload("dgemm")
    for budget in CPU_BUDGETS_W:
        total += len(
            sweep_cpu_allocations(
                node.cpu, node.dram, wl, budget, step_w=FIG9_STEP_W,
                engine=SweepEngine(mode="full"),
            ).points
        ) * len(list_cpu_workloads())
    for card in (titan_xp_card(), titan_v_card()):
        caps = [c for c in GPU_CAPS_W if card.min_cap_w <= c <= card.max_cap_w]
        grid = len(
            sweep_gpu_allocations(
                card, gpu_workload("sgemm"), caps[0], freq_stride=1,
                engine=SweepEngine(mode="full"),
            ).points
        )
        total += grid * len(caps) * len(list_gpu_workloads())
    return total


def _timed_pass(fn, *args):
    """Wall-clock one pass with the cyclic GC parked.

    A cold pass is ~0.1 s and a gen-2 collection pause is milliseconds,
    so a collection landing inside one mode's pass but not the other's
    would swamp the cold-speedup ratios this benchmark gates on.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def _bench_config(runner, reps: int):
    """Best-of-``reps`` cold and warm wall-clock, full vs adaptive.

    Cold repeats each build a fresh engine, with the two modes
    *interleaved* rep-by-rep so slow drift (thermal, background load)
    cancels out of the ratio instead of biasing whichever mode ran
    last.  Warm repeats re-run the identical load on the engines the
    final cold rep populated (memo cache + planner replay).  The
    planner ``stats`` are snapshotted after that engine's single cold
    pass, so accounting is unpolluted by the warm reruns.
    """
    t = {key: float("inf") for key in
         ("full_cold", "adaptive_cold", "full_warm", "adaptive_warm")}
    full_engine = adaptive_engine = full_out = adaptive_out = None
    for _ in range(reps):
        full_engine = SweepEngine(mode="full")
        full_out, dt = _timed_pass(runner, full_engine, False)
        t["full_cold"] = min(t["full_cold"], dt)
        adaptive_engine = SweepEngine(mode="adaptive")
        adaptive_out, dt = _timed_pass(runner, adaptive_engine, True)
        t["adaptive_cold"] = min(t["adaptive_cold"], dt)
    stats = adaptive_engine.planner.stats
    for _ in range(reps):
        _, dt = _timed_pass(runner, full_engine, False)
        t["full_warm"] = min(t["full_warm"], dt)
        _, dt = _timed_pass(runner, adaptive_engine, True)
        t["adaptive_warm"] = min(t["adaptive_warm"], dt)
    return full_out, adaptive_out, stats, t


def _assert_curves_equal(full, adaptive) -> None:
    for f, a in zip(full, adaptive):
        assert np.array_equal(a.budgets_w, f.budgets_w)
        assert np.array_equal(a.perf_max, f.perf_max)
        assert np.array_equal(a.optimal_mem_w, f.optimal_mem_w)


def test_planner_bench(bench_quick, tmp_path):
    configs = {}
    wall_s = {}
    speedup = {}
    reps = 1 if bench_quick else 5
    runners = (
        ("fig2", _fig2_curves),
        ("fig6", _fig6_curves),
        ("fig9", _fig9_bests),
    )

    # full vs adaptive, cold and warm, answers locked equal in-run.
    planned_bests = None
    for label, runner in runners:
        full, planned, stats, t = _bench_config(runner, reps)
        t_full_cold, t_full_warm = t["full_cold"], t["full_warm"]
        t_cold, t_warm = t["adaptive_cold"], t["adaptive_warm"]
        if label == "fig9":
            planned_bests = planned
            if not bench_quick:
                for f, a in zip(full, planned):
                    assert a == f
            assert stats.native_points == _native_points_fig9()
        else:
            _assert_curves_equal(full, planned)
        wall_s[f"{label}_full_cold"] = t_full_cold
        wall_s[f"{label}_full_warm"] = t_full_warm
        wall_s[f"{label}_adaptive_cold"] = t_cold
        wall_s[f"{label}_adaptive_warm"] = t_warm
        speedup[f"{label}_cold"] = t_full_cold / t_cold
        speedup[f"{label}_warm"] = t_full_warm / t_warm
        configs[label] = {
            "native_points": stats.native_points,
            "executed_points": stats.executed_points,
            "reused_points": stats.reused_points,
            "fallbacks": stats.fallbacks,
            "point_ratio": stats.savings_ratio,
        }

    # fig9 against the persistent disk cache: cold populate, warm re-plan.
    # Warm passes are best-of-N on a fresh engine each time (every repeat
    # is served from disk, none from a prior repeat's memory tier) — the
    # pass is fast enough that timer noise would otherwise dominate.
    cold_dir = tmp_path / "cache"
    cold_engine = SweepEngine(mode="adaptive", cache_dir=cold_dir)
    cold_bests, t_cold = _timed_pass(_fig9_bests, cold_engine, True)
    cold_engine.flush()
    t_warm = float("inf")
    for _ in range(1 if bench_quick else 3):
        warm_engine = SweepEngine(mode="adaptive", cache_dir=cold_dir)
        warm_bests, t = _timed_pass(_fig9_bests, warm_engine, True)
        t_warm = min(t_warm, t)
        assert warm_bests == cold_bests == planned_bests
    disk_hits = warm_engine.stats.disk_hits
    disk_speedup = t_cold / t_warm
    wall_s["fig9_disk_cold"] = t_cold
    wall_s["fig9_disk_warm"] = t_warm

    executions_total = sum(c["native_points"] for c in configs.values())
    executions_saved = executions_total - sum(
        c["executed_points"] for c in configs.values()
    )

    lines = [
        "adaptive sweep planner — executed points and wall-clock vs the "
        "full sweep",
        "",
        f"{'config':8s} {'native':>8s} {'executed':>9s} {'reused':>7s} "
        f"{'fallbacks':>9s} {'ratio':>7s}",
    ]
    for label, c in configs.items():
        lines.append(
            f"{label:8s} {c['native_points']:8d} {c['executed_points']:9d} "
            f"{c['reused_points']:7d} {c['fallbacks']:9d} "
            f"{c['point_ratio']:6.2f}x"
        )
    lines += [
        "",
        f"wall clock, best of {reps} (full -> adaptive):",
        f"{'config':8s} {'full cold':>10s} {'adapt cold':>11s} "
        f"{'cold x':>7s} {'full warm':>10s} {'adapt warm':>11s} {'warm x':>7s}",
    ]
    for label, _ in runners:
        lines.append(
            f"{label:8s} {wall_s[f'{label}_full_cold']:9.3f}s "
            f"{wall_s[f'{label}_adaptive_cold']:10.3f}s "
            f"{speedup[f'{label}_cold']:6.2f}x "
            f"{wall_s[f'{label}_full_warm']:9.3f}s "
            f"{wall_s[f'{label}_adaptive_warm']:10.3f}s "
            f"{speedup[f'{label}_warm']:6.2f}x"
        )
    lines += [
        "",
        f"fig9 vs disk cache: cold {t_cold:.3f} s -> warm {t_warm:.3f} s "
        f"({disk_speedup:.1f}x, {disk_hits} disk hits)",
        "",
        "all adaptive answers asserted bit-identical to the full-sweep",
        "oracle in-run; with planner stages resolving through the batch",
        "kernel, adaptive must dominate the (equally vectorized) full",
        "sweep cold and warm on every config.",
    ]
    rendered = "\n".join(lines)
    write_text_report("planner", rendered)
    write_json_report(
        "planner",
        op="adaptive_planner",
        n_points=executions_total,
        wall_s=wall_s,
        speedup={**speedup, "fig9_disk_warm": disk_speedup},
        cache=warm_engine.stats,
        executions_total=executions_total,
        executions_saved=executions_saved,
        disk_cache_hits=disk_hits,
        configs=configs,
        min_point_ratio=MIN_POINT_RATIO,
        quick=bench_quick,
    )
    print()
    print(rendered)

    # Machine-independent claims: every config meets the 3x point floor
    # with zero accuracy loss (asserted above), and the warm disk pass
    # is served from the persistent cache rather than the model.
    for label, c in configs.items():
        assert c["point_ratio"] >= MIN_POINT_RATIO, (label, c)
    assert disk_hits > 0
    assert executions_saved >= executions_total * (1 - 1 / MIN_POINT_RATIO)
    if not bench_quick:
        assert disk_speedup >= MIN_DISK_WARM_SPEEDUP
        # The tentpole claim: adaptive strictly dominates the full sweep
        # on wall-clock, cold and warm, on every figure-scale config.
        for label, _ in runners:
            assert speedup[f"{label}_cold"] >= 1.0, (label, speedup)
            assert speedup[f"{label}_warm"] >= 1.0, (label, speedup)
