"""Property-based tests on the batch schedulers (hypothesis).

Job/cluster generation lives in ``tests/conftest.py`` (``job_mixes``,
``cluster_shapes``), shared with the fleet battery in ``test_fleet.py``.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.hardware.platforms import haswell_node, ivybridge_node
from repro.sched import Cluster, Job, JobState, PowerBoundedScheduler
from repro.sched.rebalance import RebalancingScheduler
from repro.workloads import cpu_workload

from tests.conftest import cluster_shapes, job_mixes, property_settings
from tests.test_sched_golden import profiles


def run_mix(scheduler_cls, jobs, n_nodes, bound):
    cluster = Cluster(
        node_factory=ivybridge_node, n_nodes=n_nodes, global_bound_w=bound
    )
    sched = scheduler_cls(cluster)
    sched._profile_cache.update(profiles("ivybridge"))
    for job in jobs:
        sched.submit(job)
    stats = sched.run()
    return sched, stats


class TestSchedulerProperties:
    @property_settings(25)
    @given(jobs=job_mixes(), n_nodes=st.integers(1, 4), bound=st.floats(150.0, 900.0))
    def test_no_job_lost(self, jobs, n_nodes, bound):
        sched, stats = run_mix(PowerBoundedScheduler, jobs, n_nodes, bound)
        assert stats.n_completed + stats.n_rejected == len(jobs)
        terminal = {JobState.COMPLETED, JobState.REJECTED}
        assert all(r.state in terminal for r in sched.records.values())

    @property_settings(25)
    @given(jobs=job_mixes(), n_nodes=st.integers(1, 4), bound=st.floats(150.0, 900.0))
    def test_global_bound_never_exceeded(self, jobs, n_nodes, bound):
        _, stats = run_mix(PowerBoundedScheduler, jobs, n_nodes, bound)
        assert stats.peak_charged_w <= bound + 1e-6

    @property_settings(25)
    @given(jobs=job_mixes(), n_nodes=st.integers(1, 4), bound=st.floats(150.0, 900.0))
    def test_completed_jobs_have_consistent_times(self, jobs, n_nodes, bound):
        sched, stats = run_mix(PowerBoundedScheduler, jobs, n_nodes, bound)
        for record in sched.records.values():
            if record.state is JobState.COMPLETED:
                assert record.start_time_s >= record.job.submit_time_s - 1e-9
                assert record.finish_time_s > record.start_time_s
                assert record.finish_time_s <= stats.makespan_s + 1e-9
                assert record.granted_budget_w <= record.job.requested_budget_w + 1e-9

    @property_settings(20)
    @given(jobs=job_mixes(), n_nodes=st.integers(1, 3), bound=st.floats(200.0, 700.0))
    @example(
        # Job 0's boost ends it before job 1 arrives.  Job 2 then waited
        # for job 1 with a node and 108 W free (+5.4%) before a stale
        # completion swept the queue at its old instant.
        jobs=[
            Job(i, cpu_workload(name), budget, submit_time_s=submit)
            for i, (name, budget, submit) in enumerate(
                [("sra", 171.0, 1.0), ("sra", 97.0, 19.0), ("sra", 97.0, 20.0),
                 ("mg", 184.0, 0.0), ("sra", 60.0, 0.0)]
            )
        ],
        n_nodes=2,
        bound=205.0,
    )
    def test_rebalancer_never_slower_and_never_over_bound(self, jobs, n_nodes, bound):
        def clone(js):
            return [
                Job(j.job_id, j.workload, j.requested_budget_w, j.submit_time_s)
                for j in js
            ]

        _, base = run_mix(PowerBoundedScheduler, clone(jobs), n_nodes, bound)
        _, dyn = run_mix(RebalancingScheduler, clone(jobs), n_nodes, bound)
        assert dyn.n_completed == base.n_completed
        assert dyn.peak_charged_w <= bound + 1e-6
        # Not strictly never slower: boosts are non-preemptive, so a held
        # boost can leave a later admission less headroom.  One known mix
        # breaks even this 5% bound (+5.5%; rebalance.py's module
        # docstring gives it).
        if base.n_completed and base.makespan_s > 0:
            assert dyn.makespan_s <= base.makespan_s * 1.05 + 1e-6

    @property_settings(20)
    @given(jobs=job_mixes(), bound=st.floats(250.0, 900.0))
    def test_fcfs_start_order(self, jobs, bound):
        sched, _ = run_mix(PowerBoundedScheduler, jobs, 2, bound)
        started = [
            r for r in sched.records.values() if r.state is JobState.COMPLETED
        ]
        started.sort(key=lambda r: (r.job.submit_time_s, r.job.job_id))
        starts = [r.start_time_s for r in started]
        assert starts == sorted(starts)

    @property_settings(20)
    @given(jobs=job_mixes(multi_node=True), shape=cluster_shapes(),
           scheduler_cls=st.sampled_from(
               (PowerBoundedScheduler, RebalancingScheduler)),
           order=st.sampled_from(("fcfs", "sjf")))
    def test_stats_agree_with_records(self, jobs, shape, scheduler_cls, order):
        sched = scheduler_cls(Cluster(**shape), order=order)
        platform = (
            "haswell" if shape["node_factory"] is haswell_node else "ivybridge"
        )
        sched._profile_cache.update(profiles(platform))
        for job in jobs:
            sched.submit(job)
        stats = sched.run()
        records = list(sched.records.values())
        completed = [r for r in records if r.state is JobState.COMPLETED]
        assert stats.n_completed == len(completed)
        assert stats.n_rejected == sum(
            r.state is JobState.REJECTED for r in records)
        assert stats.makespan_s == max(
            (r.finish_time_s for r in completed), default=0.0)
        assert stats.total_energy_j == pytest.approx(
            sum(r.energy_j for r in completed), rel=1e-12)
        waits = [r.start_time_s - r.job.submit_time_s for r in completed]
        assert stats.mean_wait_s == pytest.approx(
            sum(waits) / len(waits) if waits else 0.0, rel=1e-12)
        # Cluster.charge admits a grant up to 1e-9 W past the headroom.
        assert stats.peak_charged_w <= shape["global_bound_w"] + 1e-9
