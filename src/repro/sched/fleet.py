"""Fleet-scale power-coordinated cluster simulation.

The paper's Section 5.1/8 vision — node-level COORD as the foundation of
a cluster-wide power scheduler — needs more than the small static
clusters of :mod:`repro.sched.scheduler`: trace-driven arrivals,
periodic cluster-wide budget re-splits (FastCap-style fair capping), and
thousands of heterogeneous nodes.  :class:`FleetSimulator` is that
layer, built as a hook policy on :mod:`repro.sched.events`.

Scale comes from four structural decisions:

* **Lattice tables.**  Every grant lives on a per-(profile, workload)
  lattice of ``grant_quantum_w`` multiples spanning the workload's
  productive threshold to its maximum useful demand — a few dozen rows
  per pair.  The first job to touch a pair resolves its whole lattice
  in one :meth:`~repro.core.parallel.SweepEngine.host_subgrid` pass and
  keeps ``elapsed_s``/``energy_j`` columns, so allocation rounds and
  re-splits are index arithmetic with no engine call.  Under an armed
  fault plan that pass falls back to the scalar path, faults and all.
* **Held-head fast path.**  Only a completion, a re-split or an
  admission can unblock a power-blocked head, so an arrival behind a
  held head records its round and missed-budget hold without re-running
  the round.
* **Merged arrivals.**  The sorted trace reaches the event loop as a
  lazy arrival stream merged with the heap, so no arrival is ever
  pushed and the heap holds about one event per busy node.
* **Lazy invalidation.**  Budget re-splits re-time running jobs by
  bumping a per-node epoch and pushing a fresh completion; stale
  completions are detected and discarded, never processed.

A round that admits one job (the common case) queues its completion
directly; one that admits several, and a re-split that re-times
several, queue theirs grouped by lattice in first-appearance order.
``FleetStats.n_kernel_passes`` counts those (round, lattice) groups.

The re-split policy is water-filling fair sharing: every running job is
first guaranteed its lattice floor (its quantized productive threshold
— feasible by construction, since each was admitted at or above it),
then the remaining cluster budget is distributed one equal share at a
time in node order, capped at each workload's maximum useful demand.
Grants can shrink as well as grow between intervals; re-timing scales
the job's remaining work by the old/new modeled rate, exactly the
rebalancer's boost arithmetic.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.coord import coord_cpu
from repro.core.parallel import SweepEngine, default_engine
from repro.core.profiler import profile_cpu_workload
from repro.errors import ConfigurationError, SchedulerError
from repro.hardware.node import ComputeNode
from repro.hardware.platforms import haswell_node, ivybridge_node
from repro.sched.events import (
    BudgetResplit,
    EventLoop,
    EventObserver,
    JobArrival,
    JobCompletion,
    NodeWakeup,
)
from repro.sched.job import JobState
from repro.sched.traces import TraceJob
from repro.workloads.base import Workload
from repro.workloads.cpu_suite import cpu_workload

__all__ = ["FleetNode", "FleetRecord", "FleetSimulator", "FleetStats", "PROFILES"]

#: Node profiles the fleet can cycle over (name -> platform factory).
PROFILES: dict[str, Callable[[], ComputeNode]] = {
    "ivybridge": ivybridge_node,
    "haswell": haswell_node,
}


@dataclass(slots=True)
class FleetNode:
    """One node's mutable scheduling state (deliberately tiny: the fleet
    holds thousands of these, so the heavyweight platform model lives
    once per *profile*, not per node).  ``spec``, ``floor_w`` and
    ``cap_w`` cache the running job's lattice and re-split bounds at
    admission; they are meaningful only while the node is busy."""

    index: int
    profile: str
    job_id: Optional[int] = None
    grant_w: float = 0.0
    epoch: int = 0
    spec: Optional[_AllocSpec] = None
    floor_w: float = 0.0
    cap_w: float = 0.0

    @property
    def busy(self) -> bool:
        return self.job_id is not None


@dataclass(slots=True)
class FleetRecord:
    """Per-job outcome record (compact: no event-log list at 100k jobs)."""

    job: TraceJob
    state: JobState = JobState.PENDING
    node_index: Optional[int] = None
    profile: Optional[str] = None
    grant_w: float = 0.0
    start_s: Optional[float] = None
    finish_s: Optional[float] = None
    elapsed_s: float = 0.0
    energy_j: float = 0.0
    n_retimes: int = 0
    reject_reason: Optional[str] = None

    @property
    def wait_s(self) -> float:
        if self.start_s is None:
            raise ConfigurationError(f"job {self.job.job_id} never started")
        return self.start_s - self.job.submit_time_s


@dataclass(frozen=True)
class FleetStats:
    """Aggregate outcome of a fleet run."""

    n_nodes: int
    n_jobs: int
    n_completed: int
    n_rejected: int
    makespan_s: float
    total_energy_j: float
    mean_wait_s: float
    peak_charged_w: float
    n_resplits: int
    n_retimed: int
    n_missed_budget: int
    n_rounds: int
    n_kernel_passes: int
    n_events: int

    @property
    def throughput_jobs_per_hour(self) -> float:
        if self.makespan_s <= 0.0:
            return 0.0
        return self.n_completed / (self.makespan_s / 3600.0)


@dataclass(eq=False)
class _AllocSpec:
    """One (profile, workload) grant lattice, resolved once: row ``i``
    grants ``lattice_w[i]`` watts and runs the workload in
    ``elapsed_s[i]`` seconds for ``energy_j[i]`` joules."""

    lattice_w: list[float]  # ascending grant_quantum_w multiples
    elapsed_s: list[float]
    energy_j: list[float]

    def row_at_or_below(self, value_w: float) -> int:
        """Largest lattice row with watts <= ``value_w`` (>= the floor)."""
        return bisect_right(self.lattice_w, value_w) - 1


class FleetSimulator:
    """Event-driven power-coordinated scheduler over a heterogeneous fleet.

    Parameters
    ----------
    trace:
        Arrivals (see :mod:`repro.sched.traces`); single-node jobs.
    n_nodes:
        Fleet size; node ``i`` takes ``profiles[i % len(profiles)]``.
    global_bound_w:
        Cluster-wide power bound shared by all grants.
    profiles:
        Names from :data:`PROFILES` to cycle nodes over.
    resplit_interval_s:
        Period of the water-filling budget re-split; ``0`` disables it.
    grant_quantum_w:
        Lattice step for grants (power-of-two watts keep the charged-
        power accounting exact in floating point).
    engine:
        Shared :class:`~repro.core.parallel.SweepEngine`; defaults to
        the process-wide default engine.
    """

    def __init__(
        self,
        trace: Sequence[TraceJob],
        *,
        n_nodes: int,
        global_bound_w: float,
        profiles: Sequence[str] = ("ivybridge", "haswell"),
        resplit_interval_s: float = 0.0,
        grant_quantum_w: float = 8.0,
        engine: Optional[SweepEngine] = None,
    ) -> None:
        if n_nodes <= 0:
            raise ConfigurationError(f"n_nodes must be > 0, got {n_nodes}")
        if not global_bound_w > 0.0:
            raise ConfigurationError(
                f"global_bound_w must be > 0, got {global_bound_w}"
            )
        if not grant_quantum_w > 0.0:
            raise ConfigurationError(
                f"grant_quantum_w must be > 0, got {grant_quantum_w}"
            )
        if resplit_interval_s < 0.0:
            raise ConfigurationError(
                f"resplit_interval_s must be >= 0, got {resplit_interval_s}"
            )
        if not profiles:
            raise ConfigurationError("profiles must be non-empty")
        unknown = sorted(set(profiles) - set(PROFILES))
        if unknown:
            raise ConfigurationError(
                f"unknown profiles {unknown}; available: {sorted(PROFILES)}"
            )
        seen = set()
        for job in trace:
            if job.job_id in seen:
                raise ConfigurationError(f"duplicate job id {job.job_id} in trace")
            seen.add(job.job_id)
        self.trace = tuple(trace)
        self.global_bound_w = float(global_bound_w)
        self.resplit_interval_s = float(resplit_interval_s)
        self.grant_quantum_w = float(grant_quantum_w)
        self._engine = engine if engine is not None else default_engine()
        self._platforms: dict[str, ComputeNode] = {
            name: PROFILES[name]() for name in dict.fromkeys(profiles)
        }
        profile_cycle = list(dict.fromkeys(profiles))
        self.nodes = [
            FleetNode(index=i, profile=profile_cycle[i % len(profile_cycle)])
            for i in range(n_nodes)
        ]
        self.records: dict[int, FleetRecord] = {
            job.job_id: FleetRecord(job=job) for job in self.trace
        }
        self._workloads: dict[str, Workload] = {}
        for job in self.trace:
            if job.workload not in self._workloads:
                try:
                    self._workloads[job.workload] = cpu_workload(job.workload)
                except Exception as exc:
                    raise ConfigurationError(
                        f"trace references unknown workload {job.workload!r}"
                    ) from exc
        self._specs: dict[tuple[str, str], _AllocSpec] = {}
        # Run state.
        self._free: list[int] = []
        self._arrived: list[FleetRecord] = []  # FIFO (appended in time order)
        self._arrived_head = 0
        self._head_held = False  # the last round held the head; nothing moved since
        self._resplit_armed = False
        self.charged_w = 0.0
        self.peak_charged_w = 0.0
        self._now = 0.0
        self._makespan_s = 0.0
        self._total_energy_j = 0.0
        self._n_completed = 0
        self._n_rejected = 0
        self.n_resplits = 0
        self.n_retimed = 0
        self.n_missed_budget = 0
        self.n_rounds = 0
        self.n_kernel_passes = 0

    # ------------------------------------------------------------------
    # allocation lattice
    # ------------------------------------------------------------------
    def _spec(self, profile: str, workload_name: str) -> _AllocSpec:
        key = (profile, workload_name)
        spec = self._specs.get(key)
        if spec is not None:
            return spec
        node = self._platforms[profile]
        workload = self._workloads[workload_name]
        critical = profile_cpu_workload(node.cpu, node.dram, workload)
        q = self.grant_quantum_w
        lo = -(-critical.productive_threshold_w // q) * q  # ceil to lattice
        hi = -(-critical.max_demand_w // q) * q
        lattice: list[float] = []
        proc: list[float] = []
        mem: list[float] = []
        w = lo
        while w <= hi + 1e-9:
            decision = coord_cpu(critical, w)
            if decision.accepted:
                lattice.append(w)
                proc.append(decision.allocation.proc_w)
                mem.append(decision.allocation.mem_w)
            w += q
        if not lattice:
            raise SchedulerError(
                f"no feasible grant lattice for {workload_name!r} on "
                f"{profile!r} (threshold {critical.productive_threshold_w:.0f} W)"
            )
        results = self._engine.host_subgrid(
            node.cpu, node.dram, workload.phases, proc, mem
        ).run(range(len(lattice)))
        spec = _AllocSpec(
            lattice_w=lattice,
            elapsed_s=[r.elapsed_s for r in results],
            energy_j=[r.energy_j for r in results],
        )
        self._specs[key] = spec
        return spec

    # ------------------------------------------------------------------
    # the allocation round
    # ------------------------------------------------------------------
    @property
    def headroom_w(self) -> float:
        return self.global_bound_w - self.charged_w

    def _allocation_round(self, loop: EventLoop) -> None:
        """Admit head-first at lattice grants read off the resolved
        tables, then queue the admitted jobs' completions."""
        self.n_rounds += 1
        admitted: list[tuple[FleetNode, float]] = []
        while self._arrived_head < len(self._arrived) and self._free:
            record = self._arrived[self._arrived_head]
            node = self.nodes[self._free[0]]  # min-heap: lowest index first
            spec = self._spec(node.profile, record.job.workload)
            floor_w = spec.lattice_w[0]
            budget = record.job.budget_w
            limit = min(budget, self.headroom_w)
            if limit < floor_w:
                if min(budget, self.global_bound_w) < floor_w:
                    # No lattice point under the request even on an empty
                    # cluster: the ask sits below the productive threshold.
                    record.state = JobState.REJECTED
                    record.reject_reason = (
                        f"requested {budget:.0f} W below the productive "
                        f"floor {floor_w:.0f} W on {node.profile}"
                    )
                    self._n_rejected += 1
                    self._arrived_head += 1
                    continue
                # Power-blocked: a free node exists but headroom cannot
                # fund the head productively.  No backfill — hold.
                self.n_missed_budget += 1
                self._head_held = True
                break
            row = spec.row_at_or_below(limit)
            grant = spec.lattice_w[row]
            heapq.heappop(self._free)
            self.charged_w += grant
            self.peak_charged_w = max(self.peak_charged_w, self.charged_w)
            node.job_id = record.job.job_id
            node.grant_w = grant
            node.spec = spec
            node.floor_w = floor_w
            node.cap_w = (
                grant if budget <= limit
                else spec.lattice_w[spec.row_at_or_below(budget)]
            )
            record.state = JobState.RUNNING
            record.node_index = node.index
            record.profile = node.profile
            record.grant_w = grant
            record.start_s = self._now
            record.elapsed_s = spec.elapsed_s[row]
            record.energy_j = spec.energy_j[row]
            record.finish_s = finish_s = self._now + record.elapsed_s
            admitted.append((node, finish_s))
            self._arrived_head += 1
        if self._arrived_head > 4096 and self._arrived_head == len(self._arrived):
            del self._arrived[: self._arrived_head]
            self._arrived_head = 0
        if not admitted:
            return
        self._schedule_completions(loop, admitted)
        if self.resplit_interval_s > 0.0 and not self._resplit_armed:
            self._arm_resplit(loop, self._now)

    def _schedule_completions(
        self, loop: EventLoop, timed: list[tuple[FleetNode, float]]
    ) -> None:
        """Queue each (re-)timed job's completion, grouped by lattice in
        first-appearance order; each group counts as one kernel pass."""
        if len(timed) > 1:
            groups: dict[Optional[_AllocSpec], list[tuple[FleetNode, float]]] = {}
            for item in timed:
                groups.setdefault(item[0].spec, []).append(item)
            self.n_kernel_passes += len(groups)
            timed = [item for group in groups.values() for item in group]
        else:
            self.n_kernel_passes += 1
        for node, finish_s in timed:
            node.epoch += 1
            loop.schedule(JobCompletion(finish_s, node.index, node.epoch))

    # ------------------------------------------------------------------
    # the water-filling budget re-split
    # ------------------------------------------------------------------
    def _arm_resplit(self, loop: EventLoop, from_s: float) -> None:
        self._resplit_armed = True
        interval_s = self.resplit_interval_s
        loop.schedule(BudgetResplit(from_s + interval_s, interval_s=interval_s))

    def _resplit(self, loop: EventLoop) -> None:
        """Re-split the cluster budget fairly across running jobs."""
        self.n_resplits += 1
        busy = [n for n in self.nodes if n.job_id is not None]
        if not busy:
            return
        q = self.grant_quantum_w
        grants = [n.floor_w for n in busy]
        caps = [n.cap_w for n in busy]
        remaining = self.global_bound_w - sum(grants)
        # Admitted grants were all >= their floors and summed under the
        # bound, so the floors fit; distribute the leftover one equal
        # lattice share at a time, node order breaking the remainder.
        active = [k for k in range(len(busy)) if grants[k] < caps[k]]
        while remaining >= q - 1e-9 and active:
            share = (remaining / len(active)) // q * q
            if share < q:
                for k in active:
                    if remaining < q - 1e-9:
                        break
                    grants[k] += q
                    remaining -= q
                break
            progressed = False
            for k in active:
                take = min(caps[k] - grants[k], share)
                grants[k] += take
                remaining -= take
                progressed = progressed or take > 0.0
            active = [k for k in active if grants[k] < caps[k] - 1e-9]
            if not progressed:  # pragma: no cover - active filter advances
                break
        retimed: list[tuple[FleetNode, float]] = []
        for node, grant in zip(busy, grants):
            new_grant = min(grant, node.cap_w)
            if abs(new_grant - node.grant_w) < q / 2.0:
                continue
            assert node.job_id is not None and node.spec is not None
            record = self.records[node.job_id]
            assert record.finish_s is not None
            spec = node.spec
            row = spec.row_at_or_below(new_grant)
            self.charged_w += new_grant - node.grant_w
            node.grant_w = new_grant
            record.grant_w = new_grant
            # Remaining work scales with the modeled rate ratio — the
            # rebalancer's boost arithmetic, shrink or grow.
            remaining_s = max(0.0, record.finish_s - self._now)
            record.finish_s = finish_s = self._now + remaining_s * (
                spec.elapsed_s[row] / record.elapsed_s
            )
            record.elapsed_s = spec.elapsed_s[row]
            record.energy_j = spec.energy_j[row]
            record.n_retimes += 1
            self.n_retimed += 1
            retimed.append((node, finish_s))
        self.peak_charged_w = max(self.peak_charged_w, self.charged_w)
        if retimed:
            self._schedule_completions(loop, retimed)

    # ------------------------------------------------------------------
    # SchedulerHooks
    # ------------------------------------------------------------------
    def on_arrival(self, loop: EventLoop, event: JobArrival) -> None:
        self._now = max(self._now, event.time_s)
        self._arrived.append(self.records[event.job_id])
        if not self._free:
            return
        if self._head_held:
            # Same head, same free node, same headroom: the round would
            # hold again, so record it without re-running it.
            self.n_rounds += 1
            self.n_missed_budget += 1
        else:
            self._allocation_round(loop)

    def on_completion(self, loop: EventLoop, event: JobCompletion) -> None:
        node = self.nodes[event.slot]
        if node.epoch != event.epoch:
            return  # stale: the job was re-timed by a budget re-split
        self._now = max(self._now, event.time_s)
        self._head_held = False
        assert node.job_id is not None
        record = self.records[node.job_id]
        record.state = JobState.COMPLETED
        record.finish_s = event.time_s
        self._n_completed += 1
        self._total_energy_j += record.energy_j
        self._makespan_s = max(self._makespan_s, event.time_s)
        self.charged_w -= node.grant_w
        node.job_id = None
        node.grant_w = 0.0
        heapq.heappush(self._free, node.index)
        if self._arrived_head < len(self._arrived):
            self._allocation_round(loop)

    def on_resplit(self, loop: EventLoop, event: BudgetResplit) -> None:
        self._now = max(self._now, event.time_s)
        self._resplit_armed = False
        self._head_held = False
        self._resplit(loop)
        # Freed/shrunk power may admit held jobs at this boundary.
        if self._arrived_head < len(self._arrived) and self._free:
            self._allocation_round(loop)
        if any(n.busy for n in self.nodes):
            self._arm_resplit(loop, event.time_s)

    def on_wakeup(self, loop: EventLoop, event: NodeWakeup) -> None:
        """No wake-up callbacks in the fleet policy (hook kept for API)."""

    def on_drain(self, loop: EventLoop) -> bool:
        """Arrived jobs that survive a drained queue and arrival stream
        can never start."""
        if self._arrived_head >= len(self._arrived):
            return False
        record = self._arrived[self._arrived_head]
        self._arrived_head += 1
        record.state = JobState.REJECTED
        record.reject_reason = (
            "unschedulable: no running job will ever free enough power"
        )
        self._n_rejected += 1
        return True

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def run(self, *, observer: Optional[EventObserver] = None) -> FleetStats:
        """Drive the whole trace; returns aggregate fleet statistics."""
        loop = EventLoop(self, observer=observer)
        self._free = [n.index for n in self.nodes]
        heapq.heapify(self._free)
        n_events = loop.run(arrivals=(
            JobArrival(job.submit_time_s, job.job_id)
            for job in sorted(self.trace, key=lambda j: (j.submit_time_s, j.job_id))
        ))
        waits = [
            r.wait_s
            for r in self.records.values()
            if r.state is JobState.COMPLETED
        ]
        return FleetStats(
            n_nodes=len(self.nodes),
            n_jobs=len(self.trace),
            n_completed=self._n_completed,
            n_rejected=self._n_rejected,
            makespan_s=self._makespan_s,
            total_energy_j=self._total_energy_j,
            mean_wait_s=sum(waits) / len(waits) if waits else 0.0,
            peak_charged_w=self.peak_charged_w,
            n_resplits=self.n_resplits,
            n_retimed=self.n_retimed,
            n_missed_budget=self.n_missed_budget,
            n_rounds=self.n_rounds,
            n_kernel_passes=self.n_kernel_passes,
            n_events=n_events,
        )
