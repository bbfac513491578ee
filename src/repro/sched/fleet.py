"""Fleet-scale power-coordinated cluster simulation.

The paper's Section 5.1/8 vision — node-level COORD as the foundation of
a cluster-wide power scheduler — needs more than the small static
clusters of :mod:`repro.sched.scheduler`: trace-driven arrivals,
periodic cluster-wide budget re-splits (FastCap-style fair capping), and
thousands of heterogeneous nodes.  :class:`FleetSimulator` is that
layer, built as a hook policy on :mod:`repro.sched.events`.

Scale comes from five structural decisions (``docs/scheduling.md`` §4):

* **Lattice tables.**  Every grant lives on a per-(profile, workload)
  lattice of ``grant_quantum_w`` multiples, from the workload's
  productive threshold to its maximum useful demand.  The first job to
  touch a pair resolves its whole lattice in one
  :meth:`~repro.core.parallel.SweepEngine.host_subgrid` pass, so
  allocation rounds and re-splits are index arithmetic with no engine
  call.
* **Columns, not objects.**  The simulator runs on the columnar
  :class:`~repro.sched.traces.Trace` in arrival order (sorted only when
  it is not already), so the FIFO of arrived jobs is a range of rows.
  Each job's outcome lives in per-job columns, and
  :attr:`FleetSimulator.records` builds a :class:`FleetRecord` only when
  one is looked up.
* **Held-head fast path.**  Only a completion, a re-split or an
  admission can unblock a power-blocked head, so an arrival behind a
  held head records its round and hold without re-running the round.
* **Merged arrivals.**  The trace's columns reach the event loop as a
  lazy arrival stream merged with the heap; no arrival is pushed.
* **Lazy invalidation.**  A re-split re-times a running job by bumping
  its node's epoch and pushing a fresh completion; stale completions
  are discarded.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.allocation import PowerAllocation
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
from repro.sched.traces import Trace, TraceJob
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
    once per *profile*, not per node).  ``row``, ``spec``, ``floor_w``
    and ``cap_w`` cache the running job's trace row, lattice and re-split
    bounds at admission; they are meaningful only while the node is busy."""

    index: int
    profile: str
    job_id: Optional[int] = None
    row: int = -1
    grant_w: float = 0.0
    epoch: int = 0
    spec: Optional[_AllocSpec] = None
    floor_w: float = 0.0
    cap_w: float = 0.0

    @property
    def busy(self) -> bool:
        return self.job_id is not None


@dataclass(frozen=True, slots=True)
class FleetRecord:
    """One job's outcome, read off the simulator's per-job columns."""

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


class _Records(Mapping[int, FleetRecord]):
    """``FleetSimulator.records``: job id -> :class:`FleetRecord` in trace
    order, each record built from the simulator's columns on lookup."""

    __slots__ = ("_sim",)

    def __init__(self, sim: FleetSimulator) -> None:
        self._sim = sim

    def __len__(self) -> int:
        return len(self._sim.trace)

    def __iter__(self) -> Iterator[int]:
        return iter(self._sim.trace.job_ids)

    def __getitem__(self, job_id: int) -> FleetRecord:
        sim = self._sim
        row = sim._jobs.row_of(job_id)
        job, state, node_index = sim._jobs[row], sim._state[row], sim._node[row]
        if node_index < 0:  # never admitted
            return FleetRecord(job, state, reject_reason=sim._reasons.get(row))
        node = sim.nodes[node_index]
        return FleetRecord(
            job, state, node_index=node_index, profile=node.profile,
            grant_w=sim._grant[row], start_s=sim._start[row],
            finish_s=sim._finish[row], elapsed_s=sim._elapsed[row],
            energy_j=sim._energy[row], n_retimes=sim._retimes[row],
        )


class FleetSimulator:
    """Event-driven power-coordinated scheduler over a heterogeneous fleet.

    Parameters
    ----------
    trace:
        Arrivals (see :mod:`repro.sched.traces`); single-node jobs.  Any
        sequence of :class:`TraceJob` is converted to a :class:`Trace`.
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
        unknown = sorted(set(profiles) - set(PROFILES))
        for bad, message in (
            (n_nodes <= 0, f"n_nodes must be > 0, got {n_nodes}"),
            (not global_bound_w > 0.0,
             f"global_bound_w must be > 0, got {global_bound_w}"),
            (not grant_quantum_w > 0.0,
             f"grant_quantum_w must be > 0, got {grant_quantum_w}"),
            (resplit_interval_s < 0.0,
             f"resplit_interval_s must be >= 0, got {resplit_interval_s}"),
            (not profiles, "profiles must be non-empty"),
            (bool(unknown),
             f"unknown profiles {unknown}; available: {sorted(PROFILES)}"),
        ):
            if bad:
                raise ConfigurationError(message)
        self.trace = Trace.from_jobs(trace)
        # The simulator runs on the trace's rows in arrival order: the
        # k-th arrival dispatched is row k, so the FIFO of arrived jobs
        # is the row range [_queue_head, _n_arrived).
        self._jobs = jobs = self.trace.in_arrival_order()
        self.global_bound_w = float(global_bound_w)
        self.resplit_interval_s = float(resplit_interval_s)
        self.grant_quantum_w = float(grant_quantum_w)
        self._engine = engine if engine is not None else default_engine()
        profile_cycle = list(dict.fromkeys(profiles))
        self._platforms = {name: PROFILES[name]() for name in profile_cycle}
        self.nodes = [
            FleetNode(index=i, profile=profile_cycle[i % len(profile_cycle)])
            for i in range(n_nodes)
        ]
        self._workloads: dict[str, Workload] = {}
        for index in dict.fromkeys(jobs.workload_index):
            name = jobs.workload_names[index]
            try:
                self._workloads[name] = cpu_workload(name)
            except Exception as exc:
                raise ConfigurationError(
                    f"trace references unknown workload {name!r}"
                ) from exc
        self._specs: dict[tuple[str, str], _AllocSpec] = {}
        # Per-job outcome columns by row (``records``); node -1: not admitted.
        # Lists where every value is a shared object (a slot costs what an
        # array's does, stores are cheaper); arrays for new start/finish floats.
        n_jobs = len(jobs)
        self._state = [JobState.PENDING] * n_jobs
        self._node, self._retimes = [-1] * n_jobs, [0] * n_jobs
        self._grant, self._elapsed, self._energy = ([0.0] * n_jobs for _ in range(3))
        self._start, self._finish = (array("d", [0.0]) * n_jobs for _ in range(2))
        self._reasons: dict[int, str] = {}  # rejected rows only
        # Each admitted (so completed) job's wait, in admission order: for
        # a time-ordered trace, trace order.
        self._waits = array("d")
        # Run state.
        self._ran = False
        self._free: list[int] = []
        self._queue_head = self._n_arrived = 0
        self._head_held = False  # the last round held the head; nothing moved since
        self._resplit_armed = False
        self.charged_w = self.peak_charged_w = 0.0
        self._now = self._makespan_s = self._total_energy_j = 0.0
        self._n_completed = 0
        self.n_resplits = self.n_retimed = self.n_missed_budget = 0
        self.n_rounds = self.n_kernel_passes = 0

    @property
    def records(self) -> Mapping[int, FleetRecord]:
        """Job id -> :class:`FleetRecord`, in trace order, built on lookup."""
        return _Records(self)

    # -- allocation lattice --------------------------------------------
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
        allocations: list[PowerAllocation] = []
        w = lo
        while w <= hi + 1e-9:
            decision = coord_cpu(critical, w)
            if decision.accepted:
                lattice.append(w)
                allocations.append(decision.allocation)
            w += q
        if not lattice:
            raise SchedulerError(
                f"no feasible grant lattice for {workload_name!r} on "
                f"{profile!r} (threshold {critical.productive_threshold_w:.0f} W)"
            )
        results = self._engine.host_subgrid(
            node.cpu, node.dram, workload.phases,
            [a.proc_w for a in allocations], [a.mem_w for a in allocations],
        ).run(range(len(lattice)))
        spec = self._specs[key] = _AllocSpec(
            lattice_w=lattice,
            elapsed_s=[r.elapsed_s for r in results],
            energy_j=[r.energy_j for r in results],
        )
        return spec

    # -- the allocation round ------------------------------------------
    @property
    def headroom_w(self) -> float:
        return self.global_bound_w - self.charged_w

    def _allocation_round(self, loop: EventLoop) -> None:
        """Admit head-first at lattice grants read off the resolved
        tables, then queue the admitted jobs' completions."""
        self.n_rounds += 1
        admitted: list[tuple[FleetNode, float]] = []
        jobs = self._jobs
        names, workload_index = jobs.workload_names, jobs.workload_index
        while self._queue_head < self._n_arrived and self._free:
            job = self._queue_head
            node = self.nodes[self._free[0]]  # min-heap: lowest index first
            spec = self._spec(node.profile, names[workload_index[job]])
            floor_w = spec.lattice_w[0]
            budget = jobs.budgets_w[job]
            limit = min(budget, self.headroom_w)
            if limit < floor_w:
                if min(budget, self.global_bound_w) < floor_w:
                    # No lattice point under the request even on an empty
                    # cluster: the ask sits below the productive threshold.
                    self._reject_head(
                        f"requested {budget:.0f} W below the productive "
                        f"floor {floor_w:.0f} W on {node.profile}"
                    )
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
            node.job_id = jobs.job_ids[job]
            node.row = job
            node.grant_w = grant
            node.spec = spec
            node.floor_w = floor_w
            node.cap_w = (
                grant if budget <= limit
                else spec.lattice_w[spec.row_at_or_below(budget)]
            )
            self._state[job] = JobState.RUNNING
            self._node[job] = node.index
            self._grant[job] = grant
            self._start[job] = now = self._now
            self._waits.append(now - jobs.submit_times_s[job])
            self._elapsed[job] = elapsed_s = spec.elapsed_s[row]
            self._energy[job] = spec.energy_j[row]
            self._finish[job] = finish_s = now + elapsed_s
            admitted.append((node, finish_s))
            self._queue_head += 1
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

    # -- the water-filling budget re-split -----------------------------
    def _arm_resplit(self, loop: EventLoop, from_s: float) -> None:
        self._resplit_armed = True
        interval_s = self.resplit_interval_s
        loop.schedule(BudgetResplit(from_s + interval_s, interval_s=interval_s))

    def _resplit(self, loop: EventLoop) -> None:
        """Water-filling: each running job gets its lattice floor, then the
        rest of the bound is dealt one equal share at a time in node
        order, capped at each job's ask."""
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
            assert node.spec is not None
            spec, job = node.spec, node.row
            row = spec.row_at_or_below(new_grant)
            self.charged_w += new_grant - node.grant_w
            node.grant_w = new_grant
            self._grant[job] = new_grant
            # Remaining work scales with the modeled rate ratio — the
            # rebalancer's boost arithmetic, shrink or grow.
            remaining_s = max(0.0, self._finish[job] - self._now)
            self._finish[job] = finish_s = self._now + remaining_s * (
                spec.elapsed_s[row] / self._elapsed[job]
            )
            self._elapsed[job] = spec.elapsed_s[row]
            self._energy[job] = spec.energy_j[row]
            self._retimes[job] += 1
            self.n_retimed += 1
            retimed.append((node, finish_s))
        self.peak_charged_w = max(self.peak_charged_w, self.charged_w)
        if retimed:
            self._schedule_completions(loop, retimed)

    # -- SchedulerHooks ------------------------------------------------
    def on_arrival(self, loop: EventLoop, event: JobArrival) -> None:
        self._now = max(self._now, event.time_s)
        self._n_arrived += 1  # the event is row _n_arrived - 1's arrival
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
        job = node.row
        self._state[job] = JobState.COMPLETED
        self._finish[job] = event.time_s
        self._n_completed += 1
        self._total_energy_j += self._energy[job]
        self._makespan_s = max(self._makespan_s, event.time_s)
        self.charged_w -= node.grant_w
        node.job_id = None
        node.grant_w = 0.0
        heapq.heappush(self._free, node.index)
        if self._queue_head < self._n_arrived:
            self._allocation_round(loop)

    def on_resplit(self, loop: EventLoop, event: BudgetResplit) -> None:
        self._now = max(self._now, event.time_s)
        self._resplit_armed = False
        self._head_held = False
        self._resplit(loop)
        # Freed/shrunk power may admit held jobs at this boundary.
        if self._queue_head < self._n_arrived and self._free:
            self._allocation_round(loop)
        if any(n.busy for n in self.nodes):
            self._arm_resplit(loop, event.time_s)

    def on_wakeup(self, loop: EventLoop, event: NodeWakeup) -> None:
        """No wake-up callbacks in the fleet policy (hook kept for API)."""

    def on_drain(self, loop: EventLoop) -> bool:
        """Arrived jobs that survive a drained queue and arrival stream
        can never start."""
        if self._queue_head >= self._n_arrived:
            return False
        self._reject_head("unschedulable: no running job will ever free enough power")
        return True

    def _reject_head(self, reason: str) -> None:
        """Reject the job at the head of the arrival FIFO."""
        job = self._queue_head
        self._queue_head += 1
        self._state[job] = JobState.REJECTED
        self._reasons[job] = reason

    # -- driving -------------------------------------------------------
    def run(self, *, observer: Optional[EventObserver] = None) -> FleetStats:
        """Drive the whole trace; returns aggregate fleet statistics.

        A simulator runs once: a second call raises :class:`SchedulerError`
        and changes nothing (build a new simulator to replay a trace).
        """
        if self._ran:
            raise SchedulerError("a FleetSimulator runs once; build a new one")
        self._ran = True
        loop = EventLoop(self, observer=observer)
        self._free = [n.index for n in self.nodes]
        heapq.heapify(self._free)
        n_events = loop.run(
            arrivals=map(JobArrival, self._jobs.submit_times_s, self._jobs.job_ids)
        )
        return FleetStats(
            n_nodes=len(self.nodes),
            n_jobs=len(self.trace),
            n_completed=self._n_completed,
            n_rejected=len(self._reasons),
            makespan_s=self._makespan_s,
            total_energy_j=self._total_energy_j,
            mean_wait_s=sum(self._waits) / len(self._waits) if self._waits else 0.0,
            peak_charged_w=self.peak_charged_w,
            n_resplits=self.n_resplits,
            n_retimed=self.n_retimed,
            n_missed_budget=self.n_missed_budget,
            n_rounds=self.n_rounds,
            n_kernel_passes=self.n_kernel_passes,
            n_events=n_events,
        )
