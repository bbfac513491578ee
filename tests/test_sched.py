"""Power-bounded batch scheduler."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.parallel import fingerprint
from repro.errors import ConfigurationError, SchedulerError
from repro.hardware.platforms import ivybridge_node
from repro.sched import (
    Cluster,
    Job,
    JobState,
    PowerBoundedScheduler,
    RebalancingScheduler,
)
from repro.workloads import cpu_workload, gpu_workload

from tests.conftest import cluster_shapes, property_settings
from tests.test_sched_golden import snapshot


def make_cluster(n_nodes=2, bound=500.0):
    return Cluster(node_factory=ivybridge_node, n_nodes=n_nodes, global_bound_w=bound)


class TestCluster:
    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            Cluster(node_factory=ivybridge_node, n_nodes=0, global_bound_w=100.0)

    @pytest.mark.parametrize("n_nodes", [0, -1, -100])
    def test_non_positive_node_count_rejected(self, n_nodes):
        with pytest.raises(ConfigurationError):
            Cluster(
                node_factory=ivybridge_node,
                n_nodes=n_nodes,
                global_bound_w=100.0,
            )

    @pytest.mark.parametrize("bound", [0.0, -1.0, -500.0, float("nan")])
    def test_non_positive_bound_rejected(self, bound):
        # Regression: 0.0 W used to construct successfully (watts() only
        # checks non-negativity), leaving a cluster no job could ever be
        # charged against.  The whole non-positive range must raise the
        # typed ConfigurationError (UnitError subclasses it).
        with pytest.raises(ConfigurationError):
            Cluster(
                node_factory=ivybridge_node, n_nodes=2, global_bound_w=bound
            )

    @property_settings(20)
    @given(shape=cluster_shapes())
    def test_valid_shapes_always_construct(self, shape):
        cluster = Cluster(**shape)
        assert len(cluster.slots) == shape["n_nodes"]
        assert cluster.headroom_w == shape["global_bound_w"]

    def test_charge_release_cycle(self):
        cluster = make_cluster()
        slot = cluster.free_slot()
        cluster.charge(slot, 200.0, job_id=1)
        assert cluster.charged_w == 200.0
        assert cluster.headroom_w == 300.0
        assert cluster.release(slot) == 200.0
        assert cluster.charged_w == 0.0

    def test_double_charge_rejected(self):
        cluster = make_cluster()
        slot = cluster.free_slot()
        cluster.charge(slot, 100.0, job_id=1)
        with pytest.raises(SchedulerError):
            cluster.charge(slot, 100.0, job_id=2)

    def test_overcommit_rejected(self):
        cluster = make_cluster(bound=150.0)
        slot = cluster.free_slot()
        with pytest.raises(SchedulerError):
            cluster.charge(slot, 200.0, job_id=1)

    def test_release_idle_rejected(self):
        cluster = make_cluster()
        with pytest.raises(SchedulerError):
            cluster.release(cluster.slots[0])

    def test_free_slot_exhaustion(self):
        cluster = make_cluster(n_nodes=1)
        cluster.charge(cluster.free_slot(), 100.0, job_id=1)
        assert cluster.free_slot() is None


class TestJobs:
    def test_gpu_job_rejected_at_submit(self):
        sched = PowerBoundedScheduler(make_cluster())
        with pytest.raises(SchedulerError):
            sched.submit(Job(1, gpu_workload("sgemm"), 250.0))

    def test_duplicate_id_rejected(self):
        sched = PowerBoundedScheduler(make_cluster())
        sched.submit(Job(1, cpu_workload("stream"), 200.0))
        with pytest.raises(SchedulerError):
            sched.submit(Job(1, cpu_workload("stream"), 200.0))

    def test_negative_submit_time_rejected(self):
        with pytest.raises(ConfigurationError):
            Job(1, cpu_workload("stream"), 200.0, submit_time_s=-1.0)


class TestScheduling:
    def test_all_jobs_complete(self):
        sched = PowerBoundedScheduler(make_cluster(n_nodes=2, bound=600.0))
        for i, name in enumerate(("stream", "dgemm", "mg")):
            sched.submit(Job(i, cpu_workload(name), 250.0))
        stats = sched.run()
        assert stats.n_completed == 3
        assert stats.n_rejected == 0
        assert stats.makespan_s > 0

    def test_unproductive_budget_rejected(self):
        sched = PowerBoundedScheduler(make_cluster())
        sched.submit(Job(1, cpu_workload("dgemm"), 60.0))  # below threshold
        stats = sched.run()
        assert stats.n_rejected == 1
        record = sched.records[1]
        assert record.state is JobState.REJECTED
        assert "threshold" in record.reject_reason

    def test_surplus_reclaimed(self):
        sched = PowerBoundedScheduler(make_cluster(bound=1000.0))
        sched.submit(Job(1, cpu_workload("stream"), 400.0))  # far above demand
        stats = sched.run()
        assert stats.reclaimed_w_total > 100.0
        record = sched.records[1]
        # The grant was trimmed to the application's maximum demand.
        assert record.granted_budget_w < 400.0

    def test_global_bound_never_exceeded(self):
        sched = PowerBoundedScheduler(make_cluster(n_nodes=4, bound=500.0))
        for i in range(6):
            sched.submit(Job(i, cpu_workload("dgemm"), 240.0))
        stats = sched.run()
        assert stats.peak_charged_w <= 500.0 + 1e-9
        assert stats.n_completed == 6

    def test_power_gating_queues_jobs(self):
        # Two nodes but power for only one job at a time.
        sched = PowerBoundedScheduler(make_cluster(n_nodes=2, bound=240.0))
        sched.submit(Job(0, cpu_workload("dgemm"), 230.0))
        sched.submit(Job(1, cpu_workload("dgemm"), 230.0))
        stats = sched.run()
        assert stats.n_completed == 2
        r0, r1 = sched.records[0], sched.records[1]
        # The second job waited for the first to release its power.
        assert r1.start_time_s >= r0.finish_time_s - 1e-9

    def test_fcfs_order(self):
        sched = PowerBoundedScheduler(make_cluster(n_nodes=1, bound=300.0))
        sched.submit(Job(0, cpu_workload("stream"), 220.0, submit_time_s=0.0))
        sched.submit(Job(1, cpu_workload("mg"), 220.0, submit_time_s=1.0))
        sched.run()
        assert sched.records[0].start_time_s <= sched.records[1].start_time_s

    def test_arrival_times_respected(self):
        sched = PowerBoundedScheduler(make_cluster())
        sched.submit(Job(0, cpu_workload("stream"), 220.0, submit_time_s=100.0))
        sched.run()
        assert sched.records[0].start_time_s >= 100.0

    def test_coordinated_allocation_recorded(self):
        sched = PowerBoundedScheduler(make_cluster())
        sched.submit(Job(0, cpu_workload("stream"), 200.0))
        sched.run()
        record = sched.records[0]
        assert record.allocation is not None
        assert record.allocation.total_w <= record.granted_budget_w + 1e-9
        assert record.performance > 0
        assert record.energy_j > 0

    def test_profile_cache_reused(self):
        sched = PowerBoundedScheduler(make_cluster(bound=1000.0))
        for i in range(3):
            sched.submit(Job(i, cpu_workload("stream"), 220.0))
        sched.run()
        assert set(sched._profile_cache) == {
            fingerprint(cpu_workload("stream").phases)
        }

    def test_same_named_workloads_get_their_own_profiles(self):
        # Job 1 is named "dgemm" but runs stream's phases: it must run at
        # stream's COORD split, not at the split of the dgemm profiled
        # first under the same name.
        sched = PowerBoundedScheduler(make_cluster(bound=400.0))
        sched.submit(Job(0, cpu_workload("dgemm"), 200.0))
        sched.submit(Job(1, replace(cpu_workload("stream"), name="dgemm"), 200.0))
        sched.run()
        splits = [
            (sched.records[i].allocation.proc_w, sched.records[i].allocation.mem_w)
            for i in (0, 1)
        ]
        assert splits == [(148.6875, 51.3125), (84.0, 116.0)]
        assert len(sched._profile_cache) == 2

    def test_stats_wait_and_turnaround(self):
        sched = PowerBoundedScheduler(make_cluster(n_nodes=1, bound=300.0))
        sched.submit(Job(0, cpu_workload("stream"), 220.0))
        sched.submit(Job(1, cpu_workload("stream"), 220.0))
        stats = sched.run()
        assert stats.mean_wait_s > 0  # second job queued behind the first
        assert sched.records[1].turnaround_s > sched.records[0].turnaround_s
        assert stats.throughput_jobs_per_hour > 0


class TestSingleRun:
    """A scheduler runs once; a second run() raises and changes nothing."""

    SCHEDULERS = [PowerBoundedScheduler, RebalancingScheduler]

    @staticmethod
    def _ran(scheduler_cls):
        sched = scheduler_cls(make_cluster(n_nodes=2, bound=500.0))
        for job in (Job(1, cpu_workload("ft"), 150.0, submit_time_s=0.0),
                    Job(2, cpu_workload("mg"), 180.0, submit_time_s=0.0),
                    Job(3, cpu_workload("ft"), 200.0, submit_time_s=5.0)):
            sched.submit(job)
        stats = sched.run()
        assert stats.n_completed == 3 and stats.makespan_s > 0.0
        return sched

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_second_run_raises_typed_and_changes_nothing(self, scheduler_cls):
        sched = self._ran(scheduler_cls)
        records = snapshot(sched)
        counters = (sched.reclaimed_w_total, sched.peak_charged_w)
        with pytest.raises(SchedulerError, match="runs once"):
            sched.run()
        assert snapshot(sched) == records
        assert (sched.reclaimed_w_total, sched.peak_charged_w) == counters
        assert sched.cluster.charged_w == 0.0

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_late_submission_does_not_rerun_the_clock(self, scheduler_cls):
        # A job submitted after run() would never run and no stats would
        # count it, so a finished scheduler refuses it before recording it.
        sched = self._ran(scheduler_cls)
        records = snapshot(sched)
        with pytest.raises(SchedulerError, match="only before it runs"):
            sched.submit(Job(9, cpu_workload("ft"), 150.0, submit_time_s=1.0))
        assert 9 not in sched.records and not sched._pending
        assert snapshot(sched) == records
        with pytest.raises(SchedulerError, match="runs once"):
            sched.run()
        assert snapshot(sched) == records
