"""Dynamic power rebalancing scheduler."""

import pytest

from repro.hardware.platforms import ivybridge_node
from repro.sched import Cluster, Job
from repro.sched.rebalance import RebalancingScheduler
from repro.sched.scheduler import PowerBoundedScheduler
from repro.workloads import cpu_workload


def make_cluster(n_nodes=2, bound=400.0):
    return Cluster(node_factory=ivybridge_node, n_nodes=n_nodes, global_bound_w=bound)


def starved_pair():
    """Two jobs on two nodes under power for ~1.5 jobs: the second runs
    throttled until the first completes and frees its share."""
    jobs = [
        Job(0, cpu_workload("stream").scaled(0.3), 220.0, submit_time_s=0.0),
        Job(1, cpu_workload("dgemm"), 240.0, submit_time_s=0.0),
    ]
    return jobs


class TestRebalancing:
    def test_boost_happens_when_power_frees(self):
        sched = RebalancingScheduler(make_cluster(bound=330.0))
        for job in starved_pair():
            sched.submit(job)
        stats = sched.run()
        assert stats.n_completed == 2
        assert stats.n_boosts >= 1
        assert stats.boosted_w_total > 0
        boosted = sched.records[1]
        assert any("boosted" in line for line in boosted.events)

    def test_boost_speeds_up_the_survivor(self):
        jobs = starved_pair()
        base = PowerBoundedScheduler(make_cluster(bound=330.0))
        for job in jobs:
            base.submit(job)
        base_stats = base.run()

        dyn = RebalancingScheduler(make_cluster(bound=330.0))
        for job in starved_pair():
            dyn.submit(job)
        dyn_stats = dyn.run()
        # The boosted run finishes the queue strictly earlier.
        assert dyn_stats.makespan_s < base_stats.makespan_s - 1e-6

    def test_bound_respected_through_boosts(self):
        sched = RebalancingScheduler(make_cluster(n_nodes=3, bound=500.0))
        for i, name in enumerate(("stream", "dgemm", "mg", "sra")):
            sched.submit(Job(i, cpu_workload(name), 240.0, submit_time_s=float(i)))
        stats = sched.run()
        assert stats.peak_charged_w <= 500.0 + 1e-9
        assert stats.n_completed == 4

    def test_no_boost_when_grants_already_max(self):
        # Ample global bound: every job gets its full demand at admission;
        # completions free power nobody can use.
        sched = RebalancingScheduler(make_cluster(bound=1000.0))
        sched.submit(Job(0, cpu_workload("stream"), 300.0))
        sched.submit(Job(1, cpu_workload("sra"), 300.0))
        stats = sched.run()
        assert stats.n_boosts == 0

    def test_grant_never_exceeds_demand(self):
        sched = RebalancingScheduler(make_cluster(bound=330.0))
        for job in starved_pair():
            sched.submit(job)
        sched.run()
        for record in sched.records.values():
            critical = sched._critical(record)
            assert record.granted_budget_w <= critical.max_demand_w + 1e-6

    def test_stats_type_and_fields(self):
        sched = RebalancingScheduler(make_cluster(bound=330.0))
        for job in starved_pair():
            sched.submit(job)
        stats = sched.run()
        assert hasattr(stats, "n_boosts")
        assert stats.throughput_jobs_per_hour > 0

    def test_matches_base_scheduler_semantics_otherwise(self):
        # With nothing to boost, rebalancing degenerates to the base FCFS.
        jobs = [
            Job(0, cpu_workload("stream"), 300.0),
            Job(1, cpu_workload("mg"), 300.0, submit_time_s=1.0),
        ]
        base = PowerBoundedScheduler(make_cluster(bound=1000.0))
        dyn = RebalancingScheduler(make_cluster(bound=1000.0))
        for sched in (base, dyn):
            for job in jobs:
                sched.submit(
                    Job(job.job_id, job.workload, job.requested_budget_w,
                        job.submit_time_s)
                )
        s1, s2 = base.run(), dyn.run()
        assert s1.makespan_s == pytest.approx(s2.makespan_s)
        assert s1.n_completed == s2.n_completed
