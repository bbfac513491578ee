"""Experiment harness: every figure/table regenerates with the paper's shape.

Most of these run the experiments in ``fast`` mode (coarser sweeps) and
assert the *qualitative* claims — who wins, by roughly what factor, where
crossovers fall — not absolute numbers.  :class:`TestRenderGoldens` is the
exception: it renders every artifact at full resolution and demands the
committed ``benchmarks/reports/<id>.txt`` byte for byte.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.parallel import SweepEngine
from repro.core.scenario import Scenario
from repro.errors import ReproError
from repro.experiments import EXPERIMENTS, list_experiments, run_experiment

REPORTS = Path(__file__).parent.parent / "benchmarks" / "reports"


class TestRenderGoldens:
    """Every paper artifact renders exactly its committed report.

    The reports are the goldens: any change to an answer, a point count
    or a formatting rule shows up here as a diff, in every engine mode.
    Tier-1 checks the batch kernel under both sweep strategies; the
    scalar executor passes are slower and run under ``-m slow``.
    """

    @pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
    @pytest.mark.parametrize(
        "mode, batch",
        [
            ("full", True),
            ("adaptive", True),
            pytest.param("full", False, marks=pytest.mark.slow),
            pytest.param("adaptive", False, marks=pytest.mark.slow),
        ],
    )
    def test_render_matches_committed_report(self, mode, batch, exp_id):
        engine = SweepEngine(mode=mode, batch=batch)
        rendered = run_experiment(exp_id, engine=engine).render() + "\n"
        assert rendered == (REPORTS / f"{exp_id}.txt").read_text()


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {f"fig{i}" for i in range(1, 10)} | {
            "table1", "ablation", "extensions", "biglittle", "cluster",
        }
        assert set(list_experiments()) == expected

    def test_unknown_experiment(self):
        with pytest.raises(ReproError):
            run_experiment("fig42")

    @pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
    def test_runs_and_renders(self, exp_id):
        report = run_experiment(exp_id, fast=True)
        rendered = report.render()
        assert report.experiment_id == exp_id
        assert rendered.startswith(f"=== {exp_id}")
        assert report.tables


@pytest.fixture(scope="module")
def fig1():
    return run_experiment("fig1", fast=True)


@pytest.fixture(scope="module")
def fig2():
    return run_experiment("fig2", fast=True)


@pytest.fixture(scope="module")
def fig9():
    return run_experiment("fig9", fast=True)


class TestFig1Shapes:
    def test_cpu_perf_bound_monotone_then_flat(self, fig1):
        perf = fig1.data["cpu_curve"]["perf"]
        assert np.all(np.diff(perf) >= -1e-9)
        # Flattens: the last two budgets deliver the same performance.
        assert perf[-1] == pytest.approx(perf[-2], rel=1e-6)

    def test_cpu_allocation_spread_dramatic(self, fig1):
        # Paper: up to 30x between best and worst at 208 W.
        sweep = fig1.data["cpu_sweep"]
        assert sweep.perf_spread > 10.0

    def test_gpu_allocation_spread_over_30pct(self, fig1):
        # Paper: best over 30 % above the poorest at 140 W.
        sweep = fig1.data["gpu_sweep"]
        assert sweep.perf_spread > 1.25

    def test_power_capping_keeps_totals_under_budget(self, fig1):
        for p in fig1.data["cpu_sweep"].points:
            if p.result.respects_bound:
                assert p.actual_total_w <= 208.0 + 1e-6
        for p in fig1.data["gpu_sweep"].points:
            if p.result.respects_bound:
                assert p.actual_total_w <= 140.0 + 1e-6

    def test_budget_fully_consumed_even_at_poor_perf(self, fig1):
        # Paper observation 4: some allocations burn most of the budget
        # while delivering very poor performance.
        sweep = fig1.data["cpu_sweep"]
        assert any(
            p.actual_total_w > 0.7 * sweep.budget_w
            and p.performance < 0.5 * sweep.perf_max
            for p in sweep.points
        )


class TestFig2Shapes:
    @pytest.mark.parametrize("wl", ["dgemm", "sra"])
    def test_monotone_saturating(self, fig2, wl):
        for plat in ("ivybridge", "haswell"):
            curve = fig2.data[wl][plat]
            assert np.all(np.diff(curve.perf_max) >= -1e-9)
            assert curve.perf_max[-1] == pytest.approx(curve.perf_max[-2], rel=0.01)

    def test_dgemm_saturates_near_240_on_ivybridge(self, fig2):
        curve = fig2.data["dgemm"]["ivybridge"]
        assert 200.0 <= curve.saturation_budget_w <= 260.0

    def test_dgemm_demands_more_than_stream(self, ivb):
        # Paper: "DGEMM ... has a larger max power demand than STREAM".
        from repro.core.profiler import profile_cpu_workload
        from repro.workloads import cpu_workload

        d = profile_cpu_workload(ivb.cpu, ivb.dram, cpu_workload("dgemm"))
        s = profile_cpu_workload(ivb.cpu, ivb.dram, cpu_workload("stream"))
        assert d.max_demand_w > s.max_demand_w

    def test_haswell_wins_at_small_budgets(self, fig2):
        for wl in ("dgemm", "sra"):
            ivb = fig2.data[wl]["ivybridge"].perf_max[0]
            has = fig2.data[wl]["haswell"].perf_max[0]
            assert has > ivb


class TestFig3Shapes:
    def test_all_six_categories_present(self):
        report = run_experiment("fig3", fast=True)
        assert set(report.data["spans"]) == set(Scenario)

    def test_scenario_vi_worst(self):
        report = run_experiment("fig3", fast=True)
        sweep = report.data["sweep"]
        worst = sweep.worst
        assert worst.scenario is Scenario.VI


class TestFig4Shapes:
    def test_categories_shrink_with_budget(self):
        report = run_experiment("fig4", fast=True)
        sweeps = report.data["sra"]
        n_cats = {b: len(set(s.scenarios)) for b, s in sweeps.items()}
        assert n_cats[176.0] <= n_cats[240.0]

    def test_scenario_i_disappears_at_low_budget(self):
        report = run_experiment("fig4", fast=True)
        sweeps = report.data["sra"]
        assert Scenario.I in set(sweeps[240.0].scenarios)
        assert Scenario.I not in set(sweeps[176.0].scenarios)


class TestFig5Shapes:
    def test_optimum_balances_both_domains(self):
        report = run_experiment("fig5", fast=True)
        for wl in ("dgemm", "stream"):
            data = report.data[wl]
            best_mem = data["optimal_mem_w"]
            best_pt = min(
                data["points"], key=lambda bp: abs(bp.allocation.mem_w - best_mem)
            )
            assert best_pt.compute_utilization > 0.75
            assert best_pt.mem_utilization > 0.75

    def test_skewed_allocations_unbalanced(self):
        report = run_experiment("fig5", fast=True)
        pts = report.data["stream"]["points"]
        lowest_mem = min(pts, key=lambda bp: bp.allocation.mem_w)
        # Memory-starved STREAM: compute idles relative to its capacity or
        # memory runs at full tilt while compute capacity idles.
        assert (
            abs(lowest_mem.compute_utilization - lowest_mem.mem_utilization) > 0.1
            or lowest_mem.mem_utilization > 0.9
        )


class TestFig6Shapes:
    @pytest.fixture(scope="class")
    def fig6(self):
        return run_experiment("fig6", fast=True)

    def test_xp_sgemm_never_flattens(self, fig6):
        curve = fig6.data["titan-xp/sgemm"]["curve"]
        assert curve.perf_max[-1] > curve.perf_max[-3] * 1.01

    def test_xp_minife_saturates_early(self, fig6):
        curve = fig6.data["titan-xp/minife"]["curve"]
        assert curve.saturation_budget_w <= 200.0

    def test_v_sgemm_saturates_in_range(self, fig6):
        curve = fig6.data["titan-v/sgemm"]["curve"]
        assert curve.saturation_budget_w <= 230.0

    def test_v_minife_flat_in_studied_range(self, fig6):
        # Flat across the paper's studied range (caps of ~180 W and up);
        # the V's driver allows caps down to 100 W where demand can bind.
        curve = fig6.data["titan-v/minife"]["curve"]
        assert curve.saturation_budget_w <= 185.0

    def test_default_policy_falls_short_somewhere(self, fig6):
        # "The default power capping mechanism for Nvidia GPUs fails to
        # reach the maximum performance."
        shortfalls = []
        for key, data in fig6.data.items():
            shortfalls.append(np.max(1.0 - data["default"] / data["curve"].perf_max))
        assert max(shortfalls) > 0.05


class TestFig7Shapes:
    @pytest.fixture(scope="class")
    def fig7(self):
        return run_experiment("fig7", fast=True)

    def test_xp_sgemm_best_at_min_memory(self, fig7):
        sweeps = fig7.data["titan-xp/sgemm"]
        for cap, sweep in sweeps.items():
            if cap <= 230.0:  # cap binding
                assert sweep.best.result.phases[0].mem_throttle < 1.0, cap

    def test_xp_stream_rises_with_memory_at_large_cap(self, fig7):
        sweep = fig7.data["titan-xp/gpu-stream"][230.0]
        perfs = sweep.performances
        assert perfs[-1] >= perfs[0]
        assert sweep.best.result.phases[0].mem_throttle == pytest.approx(1.0)

    def test_xp_stream_nonmonotone_at_small_cap(self, fig7):
        # Rising then falling: balance beats both extremes at 140 W.
        sweep = fig7.data["titan-xp/gpu-stream"][140.0]
        perfs = sweep.performances
        best_idx = int(np.argmax(perfs))
        assert 0 < best_idx < len(perfs) - 1

    def test_titan_v_memory_bound(self, fig7):
        for wl in ("gpu-stream", "minife"):
            for cap, sweep in fig7.data[f"titan-v/{wl}"].items():
                assert sweep.best.result.phases[0].mem_throttle == pytest.approx(1.0)


class TestFig8Shapes:
    @pytest.fixture(scope="class")
    def fig8(self):
        return run_experiment("fig8", fast=True)

    def test_every_benchmark_profiled(self, fig8):
        from repro.workloads import list_cpu_workloads, list_gpu_workloads

        for name in list_cpu_workloads():
            assert any(k.startswith(f"ivybridge/{name}/") for k in fig8.data)
        for name in list_gpu_workloads():
            assert any(k.startswith(f"titan-xp/{name}/") for k in fig8.data)

    def test_memory_intensive_workloads_favor_memory(self, fig8):
        mg = fig8.data["ivybridge/mg/208"]
        dg = fig8.data["ivybridge/dgemm/208"]
        # MG's optimum allocates more watts to memory than DGEMM's.
        assert mg.best.allocation.mem_w > dg.best.allocation.mem_w


class TestFig9Shapes:
    def test_cpu_coord_accuracy(self, fig9):
        gaps, large_gaps = [], []
        for (name, budget), row in fig9.data["cpu"].items():
            if not np.isfinite(row["coord"]):
                continue
            gap = 1.0 - row["coord"] / row["best"]
            gaps.append(gap)
            if budget >= 208.0:
                large_gaps.append(gap)
        # Paper: 9.6 % average over all caps, < 5 % for large caps.
        assert np.mean(gaps) < 0.15
        assert np.mean(large_gaps) < 0.06

    def test_coord_beats_memory_first_at_small_budgets(self, fig9):
        wins = 0
        total = 0
        for (name, budget), row in fig9.data["cpu"].items():
            if budget <= 176.0 and np.isfinite(row["coord"]):
                total += 1
                if row["coord"] >= row["memory_first"] * 0.999:
                    wins += 1
        assert wins >= 0.7 * total

    def test_gpu_coord_accuracy(self, fig9):
        gaps = [
            1.0 - row["coord"] / row["best"] for row in fig9.data["gpu"].values()
        ]
        assert np.mean(gaps) < 0.05  # paper: < 2 % (full-resolution sweeps)

    def test_gpu_coord_beats_default_somewhere(self, fig9):
        advantages = [
            row["coord"] / row["default"] - 1.0 for row in fig9.data["gpu"].values()
        ]
        assert max(advantages) > 0.05
        # ... and never catastrophically loses to it.
        assert min(advantages) > -0.10


class TestTable1Shapes:
    def test_progression(self):
        report = run_experiment("table1", fast=True)
        rows = report.data["rows"]
        assert rows[0].critical is None
        assert Scenario.I in rows[0].intersection
        by_budget = {r.budget_w: r for r in rows}
        assert by_budget[224.0].critical == "DRAM"
        assert set(by_budget[224.0].intersection) == {Scenario.II, Scenario.III}


class TestAblationShapes:
    @pytest.fixture(scope="class")
    def ablation(self):
        return run_experiment("ablation", fast=True)

    def test_gamma_half_competitive(self, ablation):
        # gamma = 0.5 (the paper's choice) is within 10 % of the best gamma
        # for every (workload, cap) studied.
        data = ablation.data["gamma"]
        keys = {(wl, cap) for (wl, cap, _g) in data}
        for wl, cap in keys:
            by_gamma = {g: data[(wl, cap, g)]["perf"] for (w, c, g) in data
                        if (w, c) == (wl, cap)}
            best = max(by_gamma.values())
            assert by_gamma[0.5] >= 0.90 * best, (wl, cap)

    def test_coarser_stepping_never_better(self, ablation):
        data = ablation.data["stepping"]
        keys = {(wl, b) for (wl, b, _s) in data}
        for wl, b in keys:
            by_step = {s: data[(wl, b, s)]["perf"] for (w, bb, s) in data
                       if (w, bb) == (wl, b)}
            steps = sorted(by_step)
            assert by_step[steps[0]] >= by_step[steps[-1]] - 1e-9

    def test_memory_first_never_beats_coord_by_much(self, ablation):
        data = ablation.data["memory_first"]
        for row in data.values():
            assert row["coord"] >= 0.90 * row["memory_first"]
