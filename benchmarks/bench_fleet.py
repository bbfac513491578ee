"""Fleet-scale simulation throughput: 1,000 nodes, 100k jobs, one engine.

Drives a seeded synthetic Poisson trace through the event-driven
:class:`~repro.sched.fleet.FleetSimulator` at paper-vision scale
(Sections 5.1/8: node-level COORD as the foundation of a cluster-wide
power scheduler).  The global bound is set well below the fleet's
aggregate demand so the interesting machinery actually engages: held
admissions (missed-budget points), periodic water-filling re-splits, and
grant re-timing.

Two passes over the identical trace share one engine:

* **cold** — each (profile, workload) grant lattice resolves as a
  whole, in one batch-kernel pass, the first time a job touches it:
  every lattice row is one memo miss;
* **warm** — the same simulation replayed: each lattice resolves from
  the memo (one hit per row) and nothing executes.  Allocation rounds
  and re-splits read grants off the resolved tables in both passes, so
  the two do the same event work and differ only by a handful of
  kernel passes.

Determinism is asserted the strong way — the warm replay must reproduce
the cold run's ``FleetStats`` exactly.  The committed report
(``benchmarks/reports/fleet.json``) carries the headline numbers
(throughput, makespan, missed-budget count) and is pinned by
``tests/test_report_schema.py``.

``--bench-quick`` shrinks the fleet and trace (CI smoke); the committed
artifact comes from the full-scale run.
"""

from __future__ import annotations

from repro.core.parallel import SweepEngine
from repro.sched import FleetSimulator
from repro.sched.traces import poisson_trace

from _harness import timed, write_json_report, write_text_report

SEED = 2016


def _simulate(trace, n_nodes: int, bound_w: float, engine: SweepEngine):
    """The replay's stats and the rows of every lattice it touched."""
    sim = FleetSimulator(
        trace,
        n_nodes=n_nodes,
        global_bound_w=bound_w,
        resplit_interval_s=30.0,
        engine=engine,
    )
    stats = sim.run()
    return stats, sum(len(spec.lattice_w) for spec in sim._specs.values())


def test_fleet_bench(bench_quick):
    n_nodes = 128 if bench_quick else 1000
    n_jobs = 5_000 if bench_quick else 100_000
    # Offered load well past what the bound can serve (~33 jobs/s at 60 W
    # per node): admissions go power-blocked, re-splits move real grants.
    rate_per_s = 12.0 if bench_quick else 48.0
    bound_w = 60.0 * n_nodes

    trace, gen_s = timed(
        lambda: poisson_trace(n_jobs=n_jobs, rate_per_s=rate_per_s, seed=SEED)
    )
    engine = SweepEngine()
    (cold, lattice_rows), cold_s = timed(
        lambda: _simulate(trace, n_nodes, bound_w, engine)
    )
    cold_misses = engine.cache.stats.misses
    (warm, _), warm_s = timed(lambda: _simulate(trace, n_nodes, bound_w, engine))

    # The simulation is a pure function of (trace, shape, bound): the warm
    # replay must be bit-identical, cache state notwithstanding.
    assert warm == cold
    assert cold.n_completed + cold.n_rejected == n_jobs
    assert cold.peak_charged_w <= bound_w + 1e-6
    # The pressure machinery actually engaged: power-blocked admission
    # points and re-timed grants both occurred.
    assert cold.n_missed_budget > 0
    assert cold.n_resplits > 0
    # Each touched lattice (a few dozen rows per (profile, workload)
    # pair) resolves exactly once per replay: the cold replay misses
    # every row once, the warm replay adds no miss and hits every row.
    assert cold.n_kernel_passes > 0
    assert 0 < lattice_rows < 1_000
    assert cold_misses == lattice_rows
    cache = engine.cache.stats
    assert cache.misses == cold_misses
    assert cache.hits == lattice_rows

    events_per_s = cold.n_events / cold_s
    lines = [
        "fleet-scale event-driven simulation (seeded Poisson trace)",
        f"({n_nodes} nodes under {bound_w / 1000.0:.0f} kW, {n_jobs} jobs at "
        f"{rate_per_s:g} jobs/s, re-split every 30 s, seed {SEED})",
        "",
        f"trace generation:  {gen_s:8.3f} s",
        f"cold simulation:   {cold_s:8.3f} s   "
        f"({events_per_s:,.0f} events/s, "
        f"{cold.n_kernel_passes} round x lattice groups)",
        f"warm replay:       {warm_s:8.3f} s   (bit-identical stats)",
        "",
        f"completed {cold.n_completed}, rejected {cold.n_rejected}, "
        f"makespan {cold.makespan_s:,.0f} s",
        f"throughput {cold.throughput_jobs_per_hour:,.0f} jobs/h, "
        f"mean wait {cold.mean_wait_s:.1f} s",
        f"power: peak {cold.peak_charged_w / 1000.0:.1f} kW charged, "
        f"{cold.n_missed_budget} missed-budget holds",
        f"re-splits: {cold.n_resplits} rounds re-timed {cold.n_retimed} grants",
        f"rounds: {cold.n_rounds} allocation rounds, "
        f"{cold.n_events} events dispatched",
        "",
        f"lattices: {lattice_rows} rows, each resolved once per replay "
        f"({cold_misses} cold misses, {cache.hits} warm hits)",
        "",
        "note: grants live on an 8 W lattice per (profile, workload), so the",
        "allocation space collapses to a few dozen model points per pair.",
        "Each lattice resolves in one kernel pass on first touch; rounds and",
        "re-splits read grants off its tables, and the warm replay executes",
        "nothing.",
    ]
    rendered = "\n".join(lines)
    write_text_report("fleet", rendered)
    write_json_report(
        "fleet",
        op="fleet_simulation",
        n_points=n_jobs,
        wall_s={"trace_gen": gen_s, "cold": cold_s, "warm": warm_s},
        speedup={"warm": cold_s / warm_s},
        cache=cache,
        fleet={
            "n_nodes": n_nodes,
            "global_bound_w": bound_w,
            "resplit_interval_s": 30.0,
            "rate_per_s": rate_per_s,
            "seed": SEED,
        },
        throughput_jobs_per_hour=round(cold.throughput_jobs_per_hour, 1),
        makespan_s=round(cold.makespan_s, 3),
        mean_wait_s=round(cold.mean_wait_s, 3),
        n_completed=cold.n_completed,
        n_rejected=cold.n_rejected,
        n_missed_budget=cold.n_missed_budget,
        n_resplits=cold.n_resplits,
        n_retimed=cold.n_retimed,
        n_kernel_passes=cold.n_kernel_passes,
        lattice_rows=lattice_rows,
        n_events=cold.n_events,
        events_per_s=round(events_per_s, 1),
        peak_charged_w=round(cold.peak_charged_w, 3),
        quick=bench_quick,
    )
    print()
    print(rendered)
