"""Vectorized batch kernel: scalar-vs-batch wall clock at fig9 scale.

Runs the Figure-9-scale CPU grid (every registered CPU workload at four
budgets, 4 W steps — 1892 allocation points) three ways in a single cold
process:

* **scalar cold** — the oracle configuration: ``batch=False``, a cache
  too small to ever hit;
* **batch cold** — the default vectorized path, empty cache, whole
  grids resolved per NumPy call;
* **batch warm** — the same engine re-running the identical grid,
  served from the memo cache the batch pass filled point-by-point.

The headline acceptance number is the cold batch speedup over cold
scalar; the JSON report (``benchmarks/reports/batch.json``) is what the
repo cites in ``docs/modeling.md``.  The in-run assertion is only that
batch is *not slower* than scalar — absolute multipliers vary with the
host, and CI smoke runners are deliberately not trusted for them.

``--bench-quick`` keeps the same grid but runs one timing repeat per
configuration and skips the point-by-point equivalence spot check
(which ``tests/test_batch_equivalence.py`` covers exhaustively anyway).
"""

from __future__ import annotations

import time

from repro.core.parallel import SweepEngine
from repro.core.sweep import sweep_cpu_allocations
from repro.hardware.platforms import ivybridge_node
from repro.workloads import cpu_workload, list_cpu_workloads

from _harness import timed, write_json_report, write_text_report

BUDGETS_W = (144.0, 176.0, 208.0, 240.0)
STEP_W = 4.0


def _run_grid(node, workloads, engine) -> tuple[float, int, list]:
    """Sweep every (workload, budget) pair; return (seconds, points, sweeps)."""
    sweeps = []
    points = 0
    start = time.perf_counter()
    for wl in workloads:
        for budget in BUDGETS_W:
            sweep = sweep_cpu_allocations(
                node.cpu, node.dram, wl, budget, step_w=STEP_W, engine=engine
            )
            points += len(sweep.points)
            sweeps.append(sweep)
    return time.perf_counter() - start, points, sweeps


def test_batch_kernel_bench(bench_quick):
    node = ivybridge_node()
    workloads = [cpu_workload(name) for name in list_cpu_workloads()]
    repeats = 1 if bench_quick else 3

    scalar = SweepEngine(cache_size=1, batch=False)
    t_scalar, n_points, scalar_sweeps = _run_grid(node, workloads, scalar)

    # Best-of-N for the batch passes: they are fast enough that timer
    # noise would otherwise dominate the reported multiplier.
    t_cold = float("inf")
    batch_sweeps = []
    for _ in range(repeats):
        batch = SweepEngine(batch=True)
        t, _, batch_sweeps = _run_grid(node, workloads, batch)
        t_cold = min(t_cold, t)
    t_warm, _, _ = _run_grid(node, workloads, batch)
    stats = batch.stats

    if not bench_quick:
        # Spot equivalence on the last cold pass — the exhaustive field-by-
        # field lock lives in tests/test_batch_equivalence.py.
        for s_sweep, b_sweep in zip(scalar_sweeps, batch_sweeps):
            assert s_sweep.points == b_sweep.points

    speedup_cold = t_scalar / t_cold
    speedup_warm = t_scalar / t_warm

    lines = [
        "vectorized batch kernel — fig9-scale CPU grid "
        f"({len(workloads)} workloads x {len(BUDGETS_W)} budgets, "
        f"step {STEP_W:g} W, {n_points} points/pass)",
        "",
        f"scalar cold (batch=False):     {t_scalar:8.3f} s",
        f"batch cold (default path):     {t_cold:8.3f} s   "
        f"speedup {speedup_cold:5.2f}x",
        f"batch warm (cache reuse):      {t_warm:8.3f} s   "
        f"speedup {speedup_warm:5.2f}x",
        "",
        f"cache: hits={stats.hits} misses={stats.misses} "
        f"evictions={stats.evictions} size={stats.size}/{stats.maxsize}",
        f"cache hit ratio: {stats.hit_ratio:.1%}",
        "",
        "note: batch cold resolves whole allocation grids per NumPy call",
        "in the calling thread and still fills the memo cache",
        "point-by-point, so warm passes are identical to the scalar",
        "engine's.",
    ]
    rendered = "\n".join(lines)
    write_text_report("batch", rendered)
    write_json_report(
        "batch",
        op="batch_cpu_sweep",
        n_points=n_points,
        wall_s={
            "scalar_cold": t_scalar,
            "batch_cold": t_cold,
            "batch_warm": t_warm,
        },
        speedup={"batch_cold": speedup_cold, "batch_warm": speedup_warm},
        cache=stats,
        grid={
            "workloads": len(workloads),
            "budgets_w": list(BUDGETS_W),
            "step_w": STEP_W,
        },
        quick=bench_quick,
    )
    print()
    print(rendered)

    # Machine-independent claims only: the batch path must not lose to
    # scalar, and its cache bookkeeping must match the scalar engine's
    # (cold pass == all misses, warm pass == all hits).
    assert speedup_cold >= 1.0
    assert stats.misses == n_points
    assert stats.hits == n_points
    assert t_warm < t_scalar
