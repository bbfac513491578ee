"""The power-bounded batch scheduler.

Implements the control loop the paper sketches for higher-level power
scheduling (Sections 5.1 and 8):

1. jobs arrive with a requested power budget;
2. admission profiles the workload (cached — profiling is lightweight and
   application-specific, not per-job) and consults
   :func:`~repro.core.budget.advise_budget`:

   * grants above the application's maximum demand are *trimmed* and the
     surplus stays in the global pool ("the unused power should be
     reclaimed by the system for other uses");
   * grants below the productive threshold wait for headroom rather than
     run unproductively, and are rejected outright if no feasible grant
     could ever satisfy them;

3. COORD distributes the granted budget across the node's domains;
4. completion events free node and power, unblocking the queue.

Scheduling is FCFS with conservative in-order admission (no backfill), so
job starvation cannot occur; time advances over simulated execution times
from the node model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.budget import BudgetVerdict, advise_budget
from repro.core.coord import coord_cpu
from repro.core.critical import CpuCriticalPowers
from repro.core.parallel import MemoCache, SweepEngine, default_engine, fingerprint
from repro.core.profiler import profile_cpu_workload
from repro.errors import SchedulerError
from repro.perfmodel.executor import execute_on_host
from repro.sched.cluster import Cluster, NodeSlot
from repro.sched.events import (
    BudgetResplit,
    EventLoop,
    EventObserver,
    JobArrival,
    JobCompletion,
    NodeWakeup,
)
from repro.sched.job import Job, JobRecord, JobState

__all__ = ["PowerBoundedScheduler", "PredictKey", "SchedulerStats"]


@dataclass(frozen=True)
class PredictKey:
    """Typed cache key for runtime predictions.

    Keyed on the workload's *characterization fingerprint*, not its object
    identity or name alone: two jobs submitting same-named workloads with
    different phase characterizations (e.g. scaled problem sizes) predict
    independently, and a mutated characterization can never be served a
    stale prediction.
    """

    workload_name: str
    workload_fp: str
    budget_w: float


@dataclass(frozen=True)
class SchedulerStats:
    """Aggregate outcome of a scheduling run."""

    n_completed: int
    n_rejected: int
    makespan_s: float
    total_energy_j: float
    mean_wait_s: float
    reclaimed_w_total: float
    peak_charged_w: float

    @property
    def throughput_jobs_per_hour(self) -> float:
        if self.makespan_s <= 0.0:
            return 0.0
        return self.n_completed / (self.makespan_s / 3600.0)


class PowerBoundedScheduler:
    """Power-bounded batch scheduler over a simulated cluster.

    ``order`` selects the admission order:

    * ``"fcfs"`` (default) — by submit time; no starvation by construction;
    * ``"sjf"`` — shortest predicted job first (predicted with one model
      run per application at its requested budget).  The order is fixed at
      queue time, so long jobs are delayed but never starved.

    Both orders admit strictly head-first (no backfill), so the power
    bound and node count are the only things that gate progress.
    """

    def __init__(
        self,
        cluster: Cluster,
        order: str = "fcfs",
        engine: SweepEngine | None = None,
    ) -> None:
        if order not in ("fcfs", "sjf"):
            raise SchedulerError(f"order must be 'fcfs' or 'sjf', got {order!r}")
        self.cluster = cluster
        self.order = order
        self.records: dict[int, JobRecord] = {}
        self._engine = engine if engine is not None else default_engine()
        # Profiles keyed by the phases' fingerprint, like PredictKey: a
        # same-named workload with other phases gets its own profile.
        self._profile_cache: dict[str, CpuCriticalPowers] = {}
        # Thread-safe typed-key map so parallel callers never race on dict
        # writes; the model runs behind it memoize into the shared engine.
        self._predict_cache: MemoCache = MemoCache(maxsize=1024)
        self._pending: list[JobRecord] = []
        self.reclaimed_w_total = 0.0
        self.peak_charged_w = 0.0
        # Policy state of the one run: the simulated clock (owned by the
        # policy, not the event loop), stat accumulators, and the
        # slot-identity -> index map records and completions are keyed by.
        self._ran = False
        self._now = 0.0
        self._total_energy_j = 0.0
        self._makespan_s = 0.0
        self._slot_index = {id(s): i for i, s in enumerate(cluster.slots)}

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> JobRecord:
        """Queue a job; returns its mutable scheduling record.

        A finished scheduler takes no more jobs: after :meth:`run` this
        raises :class:`SchedulerError` and changes nothing.
        """
        if self._ran:
            raise SchedulerError(
                f"job {job.job_id}: a {type(self).__name__} takes jobs only "
                "before it runs; build a new one"
            )
        if job.workload.device != "cpu":
            raise SchedulerError(
                f"job {job.job_id}: the batch scheduler runs host workloads; "
                f"got device {job.workload.device!r}"
            )
        if job.job_id in self.records:
            raise SchedulerError(f"duplicate job id {job.job_id}")
        record = JobRecord(job=job)
        self.records[job.job_id] = record
        self._pending.append(record)
        record.log(f"submitted at t={job.submit_time_s:.1f}s requesting "
                   f"{job.requested_budget_w:.0f} W")
        return record

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _critical(self, record: JobRecord) -> CpuCriticalPowers:
        key = fingerprint(record.job.workload.phases)
        if key not in self._profile_cache:
            slot = self.cluster.slots[0]
            self._profile_cache[key] = profile_cpu_workload(
                slot.node.cpu, slot.node.dram, record.job.workload
            )
        return self._profile_cache[key]

    def _predict_elapsed_s(self, record: JobRecord) -> float:
        """Model-predicted runtime at the job's requested per-node budget."""
        wl = record.job.workload
        key = PredictKey(
            workload_name=wl.name,
            workload_fp=fingerprint(wl.phases),
            budget_w=float(record.job.requested_budget_w),
        )

        def compute() -> float:
            critical = self._critical(record)
            decision = coord_cpu(critical, record.job.requested_budget_w)
            if not decision.accepted:
                return float("inf")
            node = self.cluster.slots[0].node
            result = self._engine.execute_host(
                node.cpu, node.dram, wl.phases,
                decision.allocation.proc_w, decision.allocation.mem_w,
            )
            return result.elapsed_s

        return self._predict_cache.get_or_compute(key, compute)  # type: ignore[return-value]

    def _queue_key(
        self, record: JobRecord
    ) -> Union[tuple[float, float, int], tuple[float, int]]:
        """Ordering key among currently *available* jobs.

        SJF can starve long jobs under a continuous stream of short ones;
        FCFS cannot.  The trade-off is the user's via ``order``.
        """
        if self.order == "sjf":
            return (
                self._predict_elapsed_s(record),
                record.job.submit_time_s,
                record.job.job_id,
            )
        return (record.job.submit_time_s, record.job.job_id)

    def _try_start(self, record: JobRecord, now_s: float) -> tuple[NodeSlot, float] | None:
        """Attempt admission; returns (primary slot, finish) or ``None``.

        Multi-node jobs acquire all their nodes atomically with the same
        per-node grant (weak scaling: identical per-node work, so a single
        per-node simulation times the whole job).
        """
        k = record.job.n_nodes
        slots = self.cluster.free_slots(k)
        if slots is None:
            return None
        critical = self._critical(record)
        grant = min(record.job.requested_budget_w, self.cluster.headroom_w / k)
        advice = advise_budget(critical, grant)
        if advice.verdict is BudgetVerdict.REJECT:
            # Could a larger grant ever help?  Only if the request itself
            # (under an empty cluster) clears the threshold.
            feasible = min(
                record.job.requested_budget_w, self.cluster.global_bound_w / k
            )
            if feasible < critical.productive_threshold_w:
                record.state = JobState.REJECTED
                record.reject_reason = (
                    f"per-node budget {feasible:.0f} W below productive "
                    f"threshold {critical.productive_threshold_w:.0f} W"
                )
                record.log(record.reject_reason)
                return None
            record.log(
                f"holding at t={now_s:.1f}s: per-node headroom {grant:.0f} W "
                f"below threshold {critical.productive_threshold_w:.0f} W"
            )
            return None
        if advice.verdict is BudgetVerdict.ACCEPT_WITH_SURPLUS:
            reclaimed = advice.surplus_w
            grant -= reclaimed
            self.reclaimed_w_total += reclaimed * k
            record.log(f"trimmed per-node grant by surplus {reclaimed:.0f} W")

        decision = coord_cpu(critical, grant)
        if not decision.accepted:  # pragma: no cover - advice gate precedes
            raise SchedulerError(f"COORD rejected an advised budget {grant:.0f} W")
        for slot in slots:
            self.cluster.charge(slot, grant, record.job.job_id)
        self.peak_charged_w = max(self.peak_charged_w, self.cluster.charged_w)
        primary = slots[0]
        result = execute_on_host(
            primary.node.cpu,
            primary.node.dram,
            record.job.workload.phases,
            decision.allocation.proc_w,
            decision.allocation.mem_w,
            rapl=primary.node.rapl,
        )
        record.state = JobState.RUNNING
        record.node_name = primary.node.name
        record.slot_indices = [self._slot_index[id(s)] for s in slots]
        record.granted_budget_w = grant
        record.allocation = decision.allocation
        record.start_time_s = now_s
        record.performance = record.job.workload.performance(result) * k
        record.energy_j = result.energy_j * k
        finish = now_s + result.elapsed_s
        record.log(
            f"started at t={now_s:.1f}s on {k} node(s) with "
            f"{decision.allocation} per node (finish t={finish:.1f}s)"
        )
        return primary, finish

    # ------------------------------------------------------------------
    # event-driven run: the scheduler is a hook policy on the event core
    # ------------------------------------------------------------------
    def run(self, *, observer: Optional[EventObserver] = None) -> SchedulerStats:
        """Run the cluster until the queue drains; returns aggregate stats.

        Drives :class:`~repro.sched.events.EventLoop` with the scheduler
        itself as the hook policy.  ``observer`` receives every
        dispatched event — the property tests use it to check
        bound/ordering invariants at event boundaries.  A scheduler runs
        once: a second call raises :class:`SchedulerError` and changes
        nothing (build a new scheduler to run more jobs).
        """
        if self._ran:
            raise SchedulerError(
                f"a {type(self).__name__} runs once; build a new one"
            )
        self._ran = True
        loop = EventLoop(self, observer=observer)
        self._pending.sort(key=lambda r: (r.job.submit_time_s, r.job.job_id))
        # Admission removes records from _pending, so stream a snapshot.
        loop.run(arrivals=[
            JobArrival(record.job.submit_time_s, job_id=record.job.job_id)
            for record in self._pending
        ])
        return self._collect_stats()

    def _collect_stats(self) -> SchedulerStats:
        completed = [r for r in self.records.values() if r.state is JobState.COMPLETED]
        rejected = [r for r in self.records.values() if r.state is JobState.REJECTED]
        waits = [r.wait_time_s for r in completed]
        return SchedulerStats(
            n_completed=len(completed),
            n_rejected=len(rejected),
            makespan_s=self._makespan_s,
            total_energy_j=self._total_energy_j,
            mean_wait_s=sum(waits) / len(waits) if waits else 0.0,
            reclaimed_w_total=self.reclaimed_w_total,
            peak_charged_w=self.peak_charged_w,
        )

    def _admit_available(self, loop: EventLoop) -> None:
        """Head-first admission sweep over the jobs that have arrived.

        Ordered by the selected policy, stopping at the first job that
        must wait so the policy order is never bypassed (no backfill).
        Availability is judged against the policy clock over the *full*
        pending list (not arrival-event firing), so a completion-time
        sweep also admits the arrivals of that instant, whose events
        dispatch after the completion.
        """
        while True:
            available = [
                r for r in self._pending if r.job.submit_time_s <= self._now
            ]
            if not available:
                break
            record = min(available, key=self._queue_key)
            started = self._try_start(record, self._now)
            if record.state is JobState.REJECTED:
                self._pending.remove(record)
                continue
            if started is None:
                break
            slot, finish = started
            self._push_completion(loop, self._slot_index[id(slot)], finish)
            self._pending.remove(record)

    def _push_completion(self, loop: EventLoop, slot_idx: int, finish: float) -> None:
        """Queue the completion for an admitted job (subclasses re-time)."""
        loop.schedule(JobCompletion(finish, slot=slot_idx, epoch=0))

    def _complete(self, event: JobCompletion) -> JobRecord:
        """Terminal bookkeeping for a live completion."""
        slot = self.cluster.slots[event.slot]
        job_id = slot.running_job_id
        assert job_id is not None
        record = self.records[job_id]
        record.state = JobState.COMPLETED
        record.finish_time_s = event.time_s
        self._total_energy_j += record.energy_j
        self._makespan_s = max(self._makespan_s, event.time_s)
        for slot_idx in record.slot_indices:
            self.cluster.release(self.cluster.slots[slot_idx])
        record.log(f"completed at t={event.time_s:.1f}s")
        return record

    # -- SchedulerHooks ------------------------------------------------
    def on_arrival(self, loop: EventLoop, event: JobArrival) -> None:
        """Sweep only when the cluster is idle.

        Admission is lazy: it runs at completions and when an arrival
        finds the cluster idle, never mid-run, so an arrival on a busy
        cluster waits for the next completion sweep.  An idle sweep can
        never log "holding" (with nothing running the grant equals the
        feasibility bound), so sweeping once per arrival rather than once
        per distinct arrival time changes no log line.
        """
        if any(slot.busy for slot in self.cluster.slots):
            return
        self._now = max(self._now, event.time_s)
        self._admit_available(loop)

    def on_completion(self, loop: EventLoop, event: JobCompletion) -> None:
        self._now = max(self._now, event.time_s)
        self._complete(event)
        self._admit_available(loop)

    def on_resplit(self, loop: EventLoop, event: BudgetResplit) -> None:
        """The static schedulers never re-split; fleet policies do."""

    def on_wakeup(self, loop: EventLoop, event: NodeWakeup) -> None:
        """No wake-up callbacks in the static schedulers."""

    def on_drain(self, loop: EventLoop) -> bool:
        """Nothing queued: reject the unschedulable head, one per drain."""
        if not self._pending:
            return False
        self._admit_available(loop)
        if loop.queue:
            return True
        if not self._pending:
            return False
        head = min(self._pending, key=self._queue_key)
        self._pending.remove(head)
        head.state = JobState.REJECTED
        head.reject_reason = (
            "unschedulable: no running job will ever free enough power"
        )
        head.log(head.reject_reason)
        return True
