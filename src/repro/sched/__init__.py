"""Power-bounded batch scheduling (extension).

The paper positions node-level coordination as the foundation for
higher-level power scheduling: nodes request an appropriate budget,
enforce it with COORD, and return surplus to the upper-level scheduler
(Sections 5.1 and 8).  This package implements that loop as a miniature
Slurm-like batch system over simulated nodes:

* :class:`~repro.sched.job.Job` — a workload plus a budget request;
* :class:`~repro.sched.cluster.Cluster` — nodes sharing one global bound;
* :class:`~repro.sched.scheduler.PowerBoundedScheduler` — admission via
  COORD (refusing unproductive budgets), allocation, surplus reclaim, and
  event-driven completion.

Everything runs on the discrete-event core in :mod:`repro.sched.events`
(typed events, deterministic queue, pluggable hooks): the batch
schedulers are hook policies on it, and :mod:`repro.sched.fleet` scales
the same loop to thousands of heterogeneous nodes driven by the seeded
synthetic traces of :mod:`repro.sched.traces`.
"""

from repro.sched.job import Job, JobRecord, JobState
from repro.sched.cluster import Cluster, NodeSlot
from repro.sched.events import (
    BudgetResplit,
    Event,
    EventKind,
    EventLoop,
    EventQueue,
    JobArrival,
    JobCompletion,
    NodeWakeup,
    SchedulerHooks,
)
from repro.sched.scheduler import PowerBoundedScheduler, PredictKey, SchedulerStats
from repro.sched.coschedule import (
    CoScheduleResult,
    TenantOutcome,
    coschedule_pair,
    partition_host,
    split_budget,
)
from repro.sched.fleet import FleetNode, FleetRecord, FleetSimulator, FleetStats
from repro.sched.rebalance import RebalanceStats, RebalancingScheduler
from repro.sched.traces import (
    TraceJob,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
    read_trace,
    write_trace,
)

__all__ = [
    "BudgetResplit",
    "Cluster",
    "CoScheduleResult",
    "Event",
    "EventKind",
    "EventLoop",
    "EventQueue",
    "FleetNode",
    "FleetRecord",
    "FleetSimulator",
    "FleetStats",
    "Job",
    "JobArrival",
    "JobCompletion",
    "JobRecord",
    "JobState",
    "NodeSlot",
    "NodeWakeup",
    "PowerBoundedScheduler",
    "PredictKey",
    "RebalanceStats",
    "RebalancingScheduler",
    "SchedulerHooks",
    "SchedulerStats",
    "TenantOutcome",
    "TraceJob",
    "bursty_trace",
    "coschedule_pair",
    "diurnal_trace",
    "partition_host",
    "poisson_trace",
    "read_trace",
    "split_budget",
    "write_trace",
]
