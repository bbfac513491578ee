"""Dynamic power rebalancing across running jobs (extension).

The FCFS scheduler grants each job a fixed budget for its lifetime; watts
freed by a completion sit idle until the next admission.  Production power
managers (GEOPM and kin) instead *rebalance*: redistribute freed power to
jobs that are still running, speeding them up mid-flight.

:class:`RebalancingScheduler` adds that loop to the batch scheduler: at
every completion event, pending admissions are served first (so boosting
never delays an admission available *at that instant*), then running jobs
whose grant sits below their maximum demand are boosted with the leftover
headroom, COORD is re-run at the new grant, and the job's remaining
execution is re-timed at the new rate — the node-level equivalent of the
paper's "returning the excessive budget to an upper level scheduler",
closed into a loop.

A boost moves its job's completion earlier, and the base scheduler admits
lazily: an arrival on a busy cluster waits for the next completion sweep
even when a node and power are free.  So a boost must not take away the
sweep the job's old finish would have given: the superseded completion
still advances the clock to its instant and sweeps the queue there.
Without that sweep, on ivybridge, 2 nodes under 205 W, with jobs (id,
workload, W, submit s) (0, sra, 171, 1), (1, sra, 97, 19), (2, sra, 97,
20), (3, mg, 184, 0) and (4, sra, 60, 0), job 0's boost ends it at
18.96 s instead of 26.38 s; job 2 then finds a free node and 108 W at
t=20 but waits for job 1 until 41.2 s, and the makespan is 51.22 s
against 48.60 s without rebalancing (+5.4%).  With it, job 2 starts at
26.38 s and the makespan is 44.54 s.

Boosts are **non-preemptive**: a boosted job holds its extra watts until
it completes, so a job admitted after a boost can find less headroom
than under plain FCFS and start later or on a smaller grant.  On
ivybridge, 2 nodes under 359 W, with jobs (0, ep, 223, 12), (1, dgemm,
74, 12), (2, bt, 136, 6), (3, ep, 64, 13), (4, lu, 286, 15) and (5,
dgemm, 188, 4), job 2's 42 W boost at 16.5 s leaves job 4 a 181 W grant
instead of 223 W at 26.5 s, and the makespan is 37.94 s against 35.95 s
(+5.5%).  Across mixed queues the makespan effect is strongly
net-positive (see the ``cluster`` experiment), but an individual arrival
pattern can regress by several percent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.coord import coord_cpu
from repro.core.elasticity import power_elasticity
from repro.core.parallel import SweepEngine
from repro.errors import SchedulerError
from repro.perfmodel.executor import execute_on_host
from repro.sched.cluster import Cluster, NodeSlot
from repro.sched.events import EventLoop, JobCompletion
from repro.sched.scheduler import PowerBoundedScheduler, SchedulerStats

__all__ = ["RebalanceStats", "RebalancingScheduler"]

#: Don't bother re-programming caps for less than this much extra power.
_MIN_UPLIFT_W = 4.0


@dataclass(frozen=True)
class RebalanceStats(SchedulerStats):
    """Scheduler stats plus rebalancing activity."""

    n_boosts: int = 0
    boosted_w_total: float = 0.0


class RebalancingScheduler(PowerBoundedScheduler):
    """Power-bounded scheduler with completion-time power rebalancing.

    ``boost_order`` selects who gets freed watts first:

    * ``"fcfs"`` (default) — oldest running job first (fairness);
    * ``"elasticity"`` — the job whose marginal performance per watt is
      highest (throughput; see :mod:`repro.core.elasticity`).
    """

    def __init__(
        self,
        cluster: Cluster,
        order: str = "fcfs",
        boost_order: str = "fcfs",
        engine: Optional[SweepEngine] = None,
    ) -> None:
        super().__init__(cluster, order=order, engine=engine)
        if boost_order not in ("fcfs", "elasticity"):
            raise SchedulerError(
                f"boost_order must be 'fcfs' or 'elasticity', got {boost_order!r}"
            )
        self.boost_order = boost_order
        self.n_boosts = 0
        self.boosted_w_total = 0.0
        # Re-timing state: slot -> live completion epoch, and slot ->
        # currently scheduled finish.
        self._epoch: dict[int, int] = {}
        self._finish_by_slot: dict[int, float] = {}

    # ------------------------------------------------------------------
    # boosting
    # ------------------------------------------------------------------
    def _boost_priority(self, pair: tuple[int, NodeSlot]) -> float:
        """Sort key for elasticity-ordered boosting (most elastic first)."""
        _, slot = pair
        assert slot.running_job_id is not None
        record = self.records[slot.running_job_id]
        if record.job.n_nodes > 1:
            return 0.0  # multi-node jobs are not boosted; rank last
        critical = self._critical(record)
        estimate = power_elasticity(
            slot.node.cpu, slot.node.dram, record.job.workload,
            critical, record.granted_budget_w,
        )
        return -estimate.per_watt

    def _boost_running(self, now_s: float) -> list[tuple[int, float]]:
        """Give freed headroom to running jobs; returns re-timed finishes.

        Jobs are boosted in start order (FCFS fairness) up to their
        profiled maximum demand.  A boost re-runs COORD at the new grant
        and rescales the job's remaining time by the old/new rate ratio.
        """
        updates: list[tuple[int, float]] = []
        busy = [
            (i, slot) for i, slot in enumerate(self.cluster.slots) if slot.busy
        ]
        if self.boost_order == "elasticity":
            busy.sort(key=self._boost_priority)
        else:

            def _start_key(pair: tuple[int, NodeSlot]) -> float:
                job_id = pair[1].running_job_id
                assert job_id is not None
                started = self.records[job_id].start_time_s
                assert started is not None
                return started

            busy.sort(key=_start_key)
        for idx, slot in busy:
            assert slot.running_job_id is not None
            record = self.records[slot.running_job_id]
            if record.job.n_nodes > 1:
                # Multi-node jobs would need a synchronized multi-slot
                # boost; left to a future refinement.
                continue
            critical = self._critical(record)
            headroom = self.cluster.headroom_w
            uplift = min(
                headroom, critical.max_demand_w - record.granted_budget_w
            )
            if uplift < _MIN_UPLIFT_W:
                continue
            new_grant = record.granted_budget_w + uplift
            decision = coord_cpu(critical, new_grant)
            if not decision.accepted:  # pragma: no cover - grants only grow
                continue
            old_perf = record.performance
            result = execute_on_host(
                slot.node.cpu,
                slot.node.dram,
                record.job.workload.phases,
                decision.allocation.proc_w,
                decision.allocation.mem_w,
            )
            new_perf = record.job.workload.performance(result)
            if new_perf <= old_perf * 1.001:
                continue  # the extra watts buy nothing (already saturated)
            # Charge the uplift and re-time the remaining work.
            slot.charged_w += uplift
            self.peak_charged_w = max(self.peak_charged_w, self.cluster.charged_w)
            old_finish = self._finish_by_slot[idx]
            remaining = max(0.0, old_finish - now_s)
            new_finish = now_s + remaining * (old_perf / new_perf)
            record.granted_budget_w = new_grant
            record.allocation = decision.allocation
            record.performance = new_perf
            record.log(
                f"boosted at t={now_s:.1f}s by {uplift:.0f} W -> "
                f"{decision.allocation} (finish {old_finish:.1f}s -> "
                f"{new_finish:.1f}s)"
            )
            self.n_boosts += 1
            self.boosted_w_total += uplift
            updates.append((idx, new_finish))
        return updates

    # ------------------------------------------------------------------
    # event-core hooks: boosts become re-timed completions, invalidated
    # lazily through the event epochs
    # ------------------------------------------------------------------
    def _collect_stats(self) -> RebalanceStats:
        base = super()._collect_stats()
        return RebalanceStats(
            n_completed=base.n_completed,
            n_rejected=base.n_rejected,
            makespan_s=base.makespan_s,
            total_energy_j=base.total_energy_j,
            mean_wait_s=base.mean_wait_s,
            reclaimed_w_total=base.reclaimed_w_total,
            peak_charged_w=base.peak_charged_w,
            n_boosts=self.n_boosts,
            boosted_w_total=self.boosted_w_total,
        )

    def _push_completion(self, loop: EventLoop, slot_idx: int, finish: float) -> None:
        """Re-timable completion: bump the slot epoch, record the finish."""
        self._epoch[slot_idx] = self._epoch.get(slot_idx, 0) + 1
        self._finish_by_slot[slot_idx] = finish
        loop.schedule(
            JobCompletion(finish, slot=slot_idx, epoch=self._epoch[slot_idx])
        )

    def on_completion(self, loop: EventLoop, event: JobCompletion) -> None:
        if self._epoch.get(event.slot) != event.epoch:
            # Stale: the job was re-timed by a boost.  Sweep the queue at
            # the old finish anyway, as the unboosted run would have, so
            # a lazily held arrival is not stranded until some later
            # completion.
            self._now = max(self._now, event.time_s)
            self._admit_available(loop)
            return
        self._now = max(self._now, event.time_s)
        self._complete(event)
        del self._finish_by_slot[event.slot]
        # Freed power: queue progress first (pending admissions see
        # exactly the power the base scheduler would offer them), then
        # boost the survivors with whatever headroom is left, then sweep
        # again before the next event dispatch.
        self._admit_available(loop)
        for boost_idx, new_finish in self._boost_running(self._now):
            self._push_completion(loop, boost_idx, new_finish)
        self._admit_available(loop)
