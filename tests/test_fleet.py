"""The fleet battery: the event core, its policies and the fleet.

Three layers of lockdown for the discrete-event ``repro.sched``:

1. **Differential**: the batch schedulers' ``run()`` must reproduce the
   committed histories of ``tests/golden/sched_histories.json`` —
   `JobRecord` histories, `SchedulerStats`, and the per-job event logs —
   **bit-for-bit**, on both CPU platform registries, FCFS, SJF and
   rebalancing, with and without surplus reclaim, plus a seeded corpus
   over the shared job-mix/cluster-shape ranges (cases and regeneration
   in ``tests/test_sched_golden.py``).
2. **Properties**: no event dispatches out of timestamp order; charged
   power never exceeds the global bound at any event boundary; every
   arrived job reaches a terminal state; seeded traces replay
   identically (regeneration, re-simulation, and file round-trip).
3. **Chaos**: the event core under armed ``repro.faults`` plans (worker
   and RAPL kinds) classifies as identical/degraded/typed-error — never
   a silent wrong answer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.coord import coord_cpu
from repro.core.profiler import profile_cpu_workload
from repro.core.parallel import SweepEngine
from repro.errors import ConfigurationError, SchedulerError
from repro.faults.contract import _run_check
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.hardware.platforms import haswell_node, ivybridge_node
from repro.perfmodel.executor import execute_on_host
from repro.sched import (
    BudgetResplit,
    Cluster,
    Event,
    EventKind,
    EventLoop,
    EventQueue,
    FleetSimulator,
    JobArrival,
    JobCompletion,
    JobState,
    NodeWakeup,
    PowerBoundedScheduler,
    RebalancingScheduler,
)
from repro.sched.traces import (
    TraceJob,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
    read_trace,
    write_trace,
)
from repro.workloads import cpu_workload, list_cpu_workloads

from tests.conftest import (
    cluster_shapes,
    fleet_traces,
    job_mixes,
    property_settings,
)
from tests.test_sched_golden import (
    BATTERY_MIXES,
    PLATFORMS,
    check,
    corpus_names,
    mismatches,
    plain_mix,
    profiles,
    snapshot,
)


# ---------------------------------------------------------------------------
# the batch schedulers against their committed histories
# ---------------------------------------------------------------------------

class TestDifferentialBattery:
    """run() reproduces the committed histories
    (``tests/golden/sched_histories.json``), bit for bit, both registries."""

    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    @pytest.mark.parametrize(
        "scheduler_cls", [PowerBoundedScheduler, RebalancingScheduler]
    )
    @pytest.mark.parametrize("mix", list(BATTERY_MIXES))
    def test_bit_identical_histories(self, platform, scheduler_cls, mix):
        check(f"{mix}-{scheduler_cls.__name__}-{platform}")

    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    def test_surplus_reclaim_engages_and_matches(self, platform):
        sched, stats = check(f"reclaim-PowerBoundedScheduler-{platform}")
        assert stats.reclaimed_w_total > 0.0
        assert any("trimmed" in line for r in sched.records.values()
                   for line in r.events)

    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    def test_no_reclaim_when_asks_are_modest(self, platform):
        _, stats = check(f"modest-asks-{platform}")
        assert stats.reclaimed_w_total == 0.0

    def test_holding_logs_match(self):
        sched, _ = check("contention-PowerBoundedScheduler-ivybridge")
        assert any("holding" in line for r in sched.records.values()
                   for line in r.events)

    def test_sjf_order_matches(self):
        check("sjf")

    def test_rebalancer_boosts_and_stale_events_match(self):
        sched, stats = check("boosts-and-stale-completions")
        # A boost re-times a completion, so the event queue held a stale
        # completion the core had to discard — the laziest invalidation
        # path is on the differential record too.
        assert stats.n_boosts > 0
        assert any("boosted" in line for r in sched.records.values()
                   for line in r.events)

    def test_rebalancer_sweeps_at_stale_instants_and_matches(self):
        # Job 0's boost moves its finish from 26.38 s to 18.96 s; job 2
        # (arrived t=20 on a busy cluster) is admitted by the sweep at
        # the stale 26.38 s instant, not at job 1's completion (41.2 s).
        sched, _ = check("stale-instant-sweep")
        boosted = sched.records[0]
        assert any("boosted" in line for line in boosted.events)
        assert boosted.finish_time_s < 19.0
        assert sched.records[2].start_time_s == pytest.approx(26.380016051364365)

    def test_elasticity_boost_order_matches(self):
        check("elasticity")

    def test_unschedulable_head_matches(self):
        sched, stats = check("unschedulable-head")
        assert stats.n_rejected == 1
        record = sched.records[1]
        assert "unschedulable" in (record.reject_reason or "")

    def test_held_boost_matches(self):
        # The open held-boost bug (ROADMAP): boosts are non-preemptive, so
        # job 2's 42 W boost at 16.5 s leaves job 4 a 181 W grant where
        # plain FCFS gives it 223 W, and rebalancing runs 5.5% longer.
        # Fixing it moves the rebalancer's entry and these asserts.
        base, base_stats = check("held-boost-PowerBoundedScheduler")
        dyn, dyn_stats = check("held-boost-RebalancingScheduler")
        assert "by 42 W" in dyn.records[2].events[2]
        assert "(P_proc=107.0 W, P_mem=116.0 W)" in base.records[4].events[1]
        assert "(P_proc=109.2 W, P_mem=71.9 W)" in dyn.records[4].events[1]
        assert dyn_stats.makespan_s > base_stats.makespan_s * 1.05

    def test_fuzzed_mixes_fcfs(self):
        check("fuzz-example")
        assert mismatches(corpus_names(PowerBoundedScheduler)) == []

    def test_fuzzed_mixes_rebalancing(self):
        assert mismatches(corpus_names(RebalancingScheduler)) == []


# ---------------------------------------------------------------------------
# the event core itself
# ---------------------------------------------------------------------------

class _RecordingHooks:
    """Minimal hook policy: records dispatches, never refills."""

    def __init__(self):
        self.seen = []

    def on_arrival(self, loop, event):
        self.seen.append(("arrival", event.time_s))

    def on_completion(self, loop, event):
        self.seen.append(("completion", event.time_s))

    def on_resplit(self, loop, event):
        self.seen.append(("resplit", event.time_s))

    def on_wakeup(self, loop, event):
        self.seen.append(("wakeup", event.time_s))

    def on_drain(self, loop):
        return False


class TestEventQueue:
    def test_orders_by_time_then_kind_then_fifo(self):
        q = EventQueue()
        q.push(JobArrival(5.0, job_id=1))
        q.push(JobCompletion(5.0, slot=0))
        q.push(NodeWakeup(5.0, tag="a"))
        q.push(BudgetResplit(5.0, interval_s=1.0))
        q.push(JobArrival(5.0, job_id=2))
        q.push(JobArrival(1.0, job_id=3))
        kinds = [type(q.pop()).__name__ for _ in range(5)]
        assert kinds == [
            "JobArrival",      # t=1 before everything at t=5
            "JobCompletion",   # completions first at equal time
            "BudgetResplit",   # then re-splits
            "JobArrival",      # then arrivals ...
            "JobArrival",
        ]
        last = q.pop()
        assert isinstance(last, NodeWakeup)  # wake-ups last
        assert q.pushed == 6 and q.popped == 6

    def test_fifo_among_exact_ties(self):
        q = EventQueue()
        for job_id in (7, 3, 9):
            q.push(JobArrival(2.0, job_id=job_id))
        assert [q.pop().job_id for _ in range(3)] == [7, 3, 9]

    def test_pop_empty_raises_typed(self):
        with pytest.raises(SchedulerError):
            EventQueue().pop()

    def test_peek_is_non_destructive(self):
        q = EventQueue()
        assert q.peek() is None
        q.push(JobArrival(1.0, job_id=1))
        assert q.peek() is q.peek()
        assert len(q) == 1

    @pytest.mark.parametrize(
        "bad", [-1.0, float("nan"), float("inf"), float("-inf"), -1, -1e-300]
    )
    def test_bad_timestamps_rejected(self, bad):
        with pytest.raises(SchedulerError):
            JobArrival(bad, job_id=1)

    @pytest.mark.parametrize("good", [0, 0.0, -0.0, 7, 1e-300, 2.5e9])
    def test_good_timestamps_accepted(self, good):
        for event in (JobArrival(good, job_id=1), JobCompletion(good),
                      BudgetResplit(good), NodeWakeup(good)):
            assert event.time_s == good

    def test_kind_priorities_are_pinned(self):
        assert EventKind.COMPLETION < EventKind.RESPLIT
        assert EventKind.RESPLIT < EventKind.ARRIVAL
        assert EventKind.ARRIVAL < EventKind.WAKEUP


class TestEventLoop:
    def test_dispatches_every_kind_to_its_hook(self):
        hooks = _RecordingHooks()
        loop = EventLoop(hooks)
        loop.schedule(JobArrival(1.0, job_id=1))
        loop.schedule(JobCompletion(2.0, slot=0))
        loop.schedule(BudgetResplit(3.0, interval_s=1.0))
        loop.wake_me_up_at(4.0, tag="check")
        n = loop.run()
        assert n == 4
        assert hooks.seen == [
            ("arrival", 1.0), ("completion", 2.0),
            ("resplit", 3.0), ("wakeup", 4.0),
        ]

    def test_observer_sees_every_event_after_its_hook(self):
        hooks = _RecordingHooks()
        observed = []

        def observer(loop, event):
            observed.append((type(event).__name__, len(hooks.seen)))

        loop = EventLoop(hooks, observer=observer)
        loop.schedule(JobArrival(1.0, job_id=1))
        loop.schedule(NodeWakeup(2.0))
        loop.run()
        # the hook had already appended when the observer fired
        assert observed == [("JobArrival", 1), ("NodeWakeup", 2)]

    def test_drain_hook_can_refill(self):
        class Refiller(_RecordingHooks):
            def __init__(self):
                super().__init__()
                self.refills = 0

            def on_drain(self, loop):
                if self.refills >= 2:
                    return False
                self.refills += 1
                loop.schedule(NodeWakeup(float(self.refills)))
                return True

        hooks = Refiller()
        assert EventLoop(hooks).run() == 2
        assert hooks.seen == [("wakeup", 1.0), ("wakeup", 2.0)]


class TestEventValues:
    EVENTS = (JobArrival(1.0, 3), JobCompletion(1.0, 2, 1),
              BudgetResplit(1.0, 30.0), NodeWakeup(1.0, "t"))

    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: type(e).__name__)
    def test_events_are_immutable_values(self, event):
        assert isinstance(event, Event)
        with pytest.raises(AttributeError):
            event.time_s = 2.0
        with pytest.raises(AttributeError):
            event.extra = 1
        assert event == type(event)(*event) and hash(event) == hash(type(event)(*event))

    def test_equality_and_hash_by_type_and_fields(self):
        assert BudgetResplit(1.0, 0.0) != JobArrival(1.0, 0)
        assert not BudgetResplit(1.0, 0.0) == JobArrival(1.0, 0)
        assert JobCompletion(2.0, slot=1, epoch=3) == JobCompletion(2.0, 1, 3)
        assert JobCompletion(2.0, 1, 3) != JobCompletion(2.0, 1, 4)
        assert NodeWakeup(4.0) == NodeWakeup(4.0, tag="")
        assert len({JobArrival(1.0, 0), JobArrival(1.0, 0),
                    BudgetResplit(1.0, 0.0)}) == 2

    def test_kind_is_a_class_constant(self):
        assert [type(e).kind for e in self.EVENTS] == [
            EventKind.ARRIVAL, EventKind.COMPLETION,
            EventKind.RESPLIT, EventKind.WAKEUP,
        ]
        assert JobArrival(0.0, 1).kind.name == "ARRIVAL"


class _EventLog:
    """Records every dispatched event, and how many had been dispatched
    each time ``on_drain`` ran; an arrival whose id is in ``reactions``
    pushes those events."""

    def __init__(self, reactions=None):
        self.events = []
        self.reactions = reactions or {}
        self.drained_after = []

    def on_completion(self, loop, event):
        self.events.append(event)

    on_resplit = on_wakeup = on_completion

    def on_arrival(self, loop, event):
        self.events.append(event)
        for follow_up in self.reactions.get(event.job_id, ()):
            loop.schedule(follow_up)

    def on_drain(self, loop):
        self.drained_after.append(len(self.events))
        return False


class TestArrivalStream:
    def test_same_instant_ties_against_each_kind(self):
        hooks = _EventLog()
        loop = EventLoop(hooks)
        loop.wake_me_up_at(5.0)
        loop.schedule(BudgetResplit(5.0, 1.0))
        loop.schedule(JobCompletion(5.0, 0))
        assert loop.run(arrivals=[JobArrival(5.0, 1)]) == 4
        assert [e.kind for e in hooks.events] == [
            EventKind.COMPLETION, EventKind.RESPLIT,
            EventKind.ARRIVAL, EventKind.WAKEUP,
        ]

    def test_arrival_ties_keep_push_order(self):
        # Queued before run(): ahead of the stream.  Pushed by a hook
        # during the run: behind it.  The stream itself stays FIFO.
        hooks = _EventLog({1: [JobArrival(5.0, 9)]})
        loop = EventLoop(hooks)
        loop.schedule(JobArrival(5.0, 0))
        loop.run(arrivals=[JobArrival(5.0, 1), JobArrival(5.0, 2)])
        assert [e.job_id for e in hooks.events] == [0, 1, 2, 9]

    @pytest.mark.parametrize("seed", range(25))
    def test_stream_dispatches_as_if_pushed_first(self, seed):
        rng = random.Random(seed)
        times = sorted(rng.randint(0, 5) for _ in range(12))
        arrivals = [JobArrival(float(t), i) for i, t in enumerate(times)]
        kinds = (JobCompletion, BudgetResplit, NodeWakeup, JobArrival)
        serial = iter(range(100, 1000))  # distinct payloads, no reactions

        def random_event(at_least):
            kind, n = rng.choice(kinds), next(serial)
            return kind(float(rng.randint(at_least, 6)),
                        str(n) if kind is NodeWakeup else n)

        queued = [random_event(0) for _ in range(6)]
        reactions = {i: [random_event(int(a.time_s))
                         for _ in range(rng.randint(0, 3))]
                     for i, a in enumerate(arrivals)}
        dispatched = []
        for streamed in (False, True):
            hooks = _EventLog(reactions)
            loop = EventLoop(hooks)
            for event in queued:
                loop.schedule(event)
            if streamed:
                n = loop.run(arrivals=iter(arrivals))
            else:
                for arrival in arrivals:
                    loop.schedule(arrival)
                n = loop.run()
            assert n == len(hooks.events)
            dispatched.append(hooks.events)
        assert dispatched[0] == dispatched[1]

    def test_backwards_arrival_raises(self):
        hooks = _EventLog()
        with pytest.raises(SchedulerError, match="time-ordered"):
            EventLoop(hooks).run(
                arrivals=[JobArrival(2.0, 1), JobArrival(1.0, 2)]
            )
        assert hooks.drained_after == []

    def test_drain_waits_for_the_stream(self):
        hooks = _EventLog()
        loop = EventLoop(hooks)
        loop.schedule(JobCompletion(0.5, 0))
        arrivals = [JobArrival(float(t), t) for t in range(3)]
        assert loop.run(arrivals=arrivals) == 4
        assert hooks.drained_after == [4]

    def test_stream_is_pulled_one_arrival_ahead(self):
        pulled = []

        def stream():
            for job_id in range(4):
                pulled.append(job_id)
                yield JobArrival(float(job_id), job_id)

        ahead = []
        loop = EventLoop(_EventLog(),
                         observer=lambda loop, e: ahead.append(len(pulled) - 1 - e.job_id))
        loop.run(arrivals=stream())
        assert ahead == [1, 1, 1, 0]

    def test_observer_sees_every_streamed_arrival(self):
        observed = []
        loop = EventLoop(_EventLog(),
                         observer=lambda loop, event: observed.append(event))
        loop.schedule(JobCompletion(1.0, 0))
        arrivals = [JobArrival(float(t // 2), t) for t in range(6)]
        assert loop.run(arrivals=iter(arrivals)) == 7
        assert [e for e in observed if e.kind is EventKind.ARRIVAL] == arrivals


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

class TestEventProperties:
    @property_settings(10)
    @given(jobs=job_mixes(), shape=cluster_shapes())
    def test_dispatch_order_and_bound_at_event_boundaries(self, jobs, shape):
        cluster = Cluster(**shape)
        sched = RebalancingScheduler(cluster)
        platform = (
            "haswell" if shape["node_factory"] is haswell_node else "ivybridge"
        )
        sched._profile_cache.update(profiles(platform))
        for job in jobs:
            sched.submit(job)
        times = []

        def observer(loop, event):
            times.append(event.time_s)
            assert cluster.charged_w <= shape["global_bound_w"] + 1e-6

        sched.run(observer=observer)
        assert times == sorted(times)

    @property_settings(10)
    @given(jobs=job_mixes(), shape=cluster_shapes())
    def test_every_arrived_job_reaches_terminal_state(self, jobs, shape):
        cluster = Cluster(**shape)
        sched = PowerBoundedScheduler(cluster)
        platform = (
            "haswell" if shape["node_factory"] is haswell_node else "ivybridge"
        )
        sched._profile_cache.update(profiles(platform))
        for job in jobs:
            sched.submit(job)
        stats = sched.run()
        terminal = {JobState.COMPLETED, JobState.REJECTED}
        assert all(r.state in terminal for r in sched.records.values())
        assert stats.n_completed + stats.n_rejected == len(jobs)


class TestFleetProperties:
    @property_settings(8)
    @given(trace=fleet_traces(), n_nodes=st.integers(2, 6),
           bound=st.sampled_from((400.0, 900.0, 1600.0)))
    def test_fleet_invariants(self, trace, n_nodes, bound):
        sim = FleetSimulator(
            trace, n_nodes=n_nodes, global_bound_w=bound,
            resplit_interval_s=10.0,
        )
        times = []

        def observer(loop, event):
            times.append(event.time_s)
            assert sim.charged_w <= bound + 1e-6

        stats = sim.run(observer=observer)
        assert times == sorted(times)
        assert stats.peak_charged_w <= bound + 1e-6
        terminal = {JobState.COMPLETED, JobState.REJECTED}
        assert all(r.state in terminal for r in sim.records.values())
        assert stats.n_completed + stats.n_rejected == stats.n_jobs
        for r in sim.records.values():
            if r.state is JobState.COMPLETED:
                assert r.start_s is not None and r.finish_s is not None
                assert r.start_s >= r.job.submit_time_s - 1e-9
                assert r.finish_s <= stats.makespan_s + 1e-9
                assert r.grant_w <= r.job.budget_w + 1e-9

    @property_settings(8)
    @given(trace=fleet_traces(), n_nodes=st.integers(2, 5))
    def test_fleet_replays_identically(self, trace, n_nodes):
        runs = []
        for _ in range(2):
            sim = FleetSimulator(
                trace, n_nodes=n_nodes, global_bound_w=800.0,
                resplit_interval_s=7.0,
            )
            stats = sim.run()
            runs.append((stats, {
                j: (r.state, r.start_s, r.finish_s, r.grant_w, r.energy_j)
                for j, r in sim.records.items()
            }))
        assert runs[0] == runs[1]

    @property_settings(8)
    @given(trace=fleet_traces(), n_nodes=st.integers(2, 5),
           whole_seconds=st.booleans(), data=st.data())
    def test_row_order_and_id_labels_do_not_matter(
        self, trace, n_nodes, whole_seconds, data
    ):
        """Metamorphic: shuffle the rows and relabel the ids with a
        strictly increasing, gapped map; the run is the same run."""
        if whole_seconds:  # many equal submit times: ties break by id
            trace = [dataclasses.replace(j, submit_time_s=float(int(j.submit_time_s)))
                     for j in trace]
        jobs = list(trace)
        gaps = data.draw(st.lists(st.integers(1, 10**12), min_size=len(jobs),
                                  max_size=len(jobs)))
        relabel = dict(zip(sorted(j.job_id for j in jobs), itertools.accumulate(gaps)))
        order = data.draw(st.permutations(range(len(jobs))))
        shuffled = [dataclasses.replace(jobs[i], job_id=relabel[jobs[i].job_id])
                    for i in order]
        runs = []
        for rows in (jobs, shuffled):
            sim = FleetSimulator(rows, n_nodes=n_nodes, global_bound_w=700.0,
                                 resplit_interval_s=5.0)
            arrivals: list[int] = []
            stats = sim.run(observer=lambda loop, e: arrivals.append(e.job_id)
                            if e.kind is EventKind.ARRIVAL else None)
            runs.append((sim, stats, arrivals))
        (base, stats, arrivals), (moved, moved_stats, moved_arrivals) = runs
        assert moved_stats == stats
        assert moved_arrivals == [relabel[i] for i in arrivals]
        assert list(moved.records) == [j.job_id for j in shuffled]
        for job_id, record in base.records.items():
            job = dataclasses.replace(record.job, job_id=relabel[job_id])
            assert moved.records[relabel[job_id]] == dataclasses.replace(record, job=job)

    def test_resplit_engages_under_pressure(self):
        trace = bursty_trace(
            n_jobs=30, burst_size=8, gap_s=20.0, seed=11,
            budget_levels=(120.0, 160.0, 240.0),
        )
        sim = FleetSimulator(
            trace, n_nodes=4, global_bound_w=520.0, resplit_interval_s=5.0
        )
        stats = sim.run()
        assert stats.n_resplits > 0
        assert stats.n_retimed > 0          # grants actually moved
        assert stats.n_missed_budget > 0    # and power blocked someone
        assert stats.peak_charged_w <= 520.0 + 1e-6

    def test_rounds_resolve_through_the_batch_kernel(self):
        engine = SweepEngine()
        trace = poisson_trace(n_jobs=40, rate_per_s=4.0, seed=3)
        cold = FleetSimulator(
            trace, n_nodes=8, global_bound_w=2000.0, engine=engine
        )
        stats = cold.run()
        assert stats.n_kernel_passes > 0
        # Admissions group by lattice within a round, so (round, lattice)
        # groups never outnumber the admitted jobs.
        assert stats.n_kernel_passes <= stats.n_completed
        # Each touched lattice resolves exactly once, as a whole: the
        # cold replay misses every row once; a warm replay of the same
        # trace hits every row once and executes nothing.
        rows = sum(len(spec.lattice_w) for spec in cold._specs.values())
        assert 0 < rows < 1_000
        assert (engine.stats.misses, engine.stats.hits) == (rows, 0)
        warm = FleetSimulator(
            trace, n_nodes=8, global_bound_w=2000.0, engine=engine
        )
        assert warm.run() == stats
        assert (engine.stats.misses, engine.stats.hits) == (rows, rows)


# ---------------------------------------------------------------------------
# golden pins: the fleet's outputs, bit for bit
# ---------------------------------------------------------------------------

#: ``FleetStats``, a digest of every ``FleetRecord`` and a digest of
#: every dispatched event for the perf benchmark's quick
#: ``fleet-pressure`` shape (128 nodes, 60 W per node, 30 s re-splits,
#: 5,000 Poisson jobs at 12/s, seed 2016).  Regenerate with
#: ``PYTHONPATH=src python -m tests.test_fleet`` only when a change is
#: *meant* to move fleet outcomes or their dispatch order.
GOLDEN = Path(__file__).parent / "golden" / "fleet_quick.json"

#: Each event type's payload fields, in constructor order.
_PAYLOAD = {
    EventKind.ARRIVAL: ("job_id",),
    EventKind.COMPLETION: ("slot", "epoch"),
    EventKind.RESPLIT: ("interval_s",),
    EventKind.WAKEUP: ("tag",),
}


def _records_sha256(sim: FleetSimulator) -> str:
    """sha256 over every record's outcome, floats by exact ``repr``."""
    digest = hashlib.sha256()
    for job_id, r in sim.records.items():
        row = (job_id, r.state.name, r.node_index, r.profile, r.grant_w,
               r.start_s, r.finish_s, r.elapsed_s, r.energy_j, r.n_retimes)
        digest.update(repr(row).encode() + b"\n")
    return digest.hexdigest()


def _quick_fleet_outcome() -> dict:
    trace = poisson_trace(n_jobs=5_000, rate_per_s=12.0, seed=2016)
    sim = FleetSimulator(trace, n_nodes=128, global_bound_w=7_680.0,
                         resplit_interval_s=30.0, engine=SweepEngine())
    dispatch = hashlib.sha256()

    def observer(loop, event):
        # Fields, not repr(event): the digest survives a change of the
        # event types' representation but not of what was dispatched.
        row = (event.kind.name, repr(event.time_s),
               *(getattr(event, name) for name in _PAYLOAD[event.kind]))
        dispatch.update(repr(row).encode() + b"\n")

    stats = sim.run(observer=observer)
    return {"stats": dataclasses.asdict(stats),
            "records_sha256": _records_sha256(sim),
            "dispatch_sha256": dispatch.hexdigest()}


class TestFleetGolden:
    def test_quick_fleet_matches_golden(self):
        assert _quick_fleet_outcome() == json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("profile", sorted(PLATFORMS))
    def test_lattice_columns_match_the_scalar_oracle(self, profile):
        names = list_cpu_workloads()
        trace = [TraceJob(job_id=i, workload=name, budget_w=200.0,
                          submit_time_s=0.0) for i, name in enumerate(names)]
        sim = FleetSimulator(trace, n_nodes=1, global_bound_w=500.0,
                             profiles=(profile,), engine=SweepEngine())
        node = PLATFORMS[profile]()
        for name in names:
            workload = cpu_workload(name)
            spec = sim._spec(profile, name)
            critical = profile_cpu_workload(node.cpu, node.dram, workload)
            allocations = [coord_cpu(critical, w).allocation
                           for w in spec.lattice_w]
            want = [execute_on_host(node.cpu, node.dram, workload.phases,
                                    a.proc_w, a.mem_w) for a in allocations]
            assert spec.elapsed_s == [r.elapsed_s for r in want], name
            assert spec.energy_j == [r.energy_j for r in want], name


class TestTraces:
    @property_settings(10)
    @given(trace=fleet_traces())
    def test_round_trips_through_the_file_format(self, trace, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "t.trace"
        write_trace(path, trace)
        assert read_trace(path) == trace

    def test_generators_are_seed_deterministic(self):
        for gen, kw in (
            (poisson_trace, dict(n_jobs=50, rate_per_s=2.0)),
            (bursty_trace, dict(n_jobs=50, burst_size=4, gap_s=5.0)),
            (diurnal_trace, dict(n_jobs=50, base_rate_per_s=0.5,
                                 peak_rate_per_s=3.0, period_s=300.0)),
        ):
            assert gen(seed=123, **kw) == gen(seed=123, **kw)
            assert gen(seed=123, **kw) != gen(seed=124, **kw)

    def test_arrivals_are_sorted_and_positive(self):
        trace = diurnal_trace(
            n_jobs=200, base_rate_per_s=0.2, peak_rate_per_s=5.0,
            period_s=600.0, seed=9,
        )
        times = [j.submit_time_s for j in trace]
        assert times == sorted(times)
        assert all(t >= 0.0 and math.isfinite(t) for t in times)
        assert len({j.job_id for j in trace}) == len(trace)

    def test_rejects_malformed_files(self, tmp_path):
        missing_header = tmp_path / "bad1.trace"
        missing_header.write_text("0,ft,100.0,0.0\n")
        with pytest.raises(ConfigurationError):
            read_trace(missing_header)
        bad_fields = tmp_path / "bad2.trace"
        bad_fields.write_text("# repro-trace v1\n0,ft,100.0\n")
        with pytest.raises(ConfigurationError):
            read_trace(bad_fields)
        bad_value = tmp_path / "bad3.trace"
        bad_value.write_text("# repro-trace v1\n0,ft,-5.0,0.0\n")
        with pytest.raises(ConfigurationError):
            read_trace(bad_value)
        with pytest.raises(ConfigurationError):
            read_trace(tmp_path / "does-not-exist.trace")

    def test_generator_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            poisson_trace(n_jobs=0, rate_per_s=1.0, seed=1)
        with pytest.raises(ConfigurationError):
            poisson_trace(n_jobs=5, rate_per_s=0.0, seed=1)
        with pytest.raises(ConfigurationError):
            bursty_trace(n_jobs=5, burst_size=0, gap_s=1.0, seed=1)
        with pytest.raises(ConfigurationError):
            diurnal_trace(n_jobs=5, base_rate_per_s=2.0, peak_rate_per_s=1.0,
                          period_s=60.0, seed=1)
        with pytest.raises(ConfigurationError):
            TraceJob(job_id=0, workload="ft", budget_w=0.0, submit_time_s=0.0)


class TestFleetValidation:
    def test_constructor_rejects_bad_shapes(self):
        trace = poisson_trace(n_jobs=3, rate_per_s=1.0, seed=1)
        with pytest.raises(ConfigurationError):
            FleetSimulator(trace, n_nodes=0, global_bound_w=500.0)
        with pytest.raises(ConfigurationError):
            FleetSimulator(trace, n_nodes=4, global_bound_w=0.0)
        with pytest.raises(ConfigurationError):
            FleetSimulator(trace, n_nodes=4, global_bound_w=500.0,
                           grant_quantum_w=0.0)
        with pytest.raises(ConfigurationError):
            FleetSimulator(trace, n_nodes=4, global_bound_w=500.0,
                           resplit_interval_s=-1.0)
        with pytest.raises(ConfigurationError):
            FleetSimulator(trace, n_nodes=4, global_bound_w=500.0,
                           profiles=("epyc",))
        with pytest.raises(ConfigurationError):
            FleetSimulator(trace, n_nodes=4, global_bound_w=500.0,
                           profiles=())

    def test_duplicate_job_ids_rejected(self):
        trace = [
            TraceJob(job_id=1, workload="ft", budget_w=120.0, submit_time_s=0.0),
            TraceJob(job_id=1, workload="mg", budget_w=120.0, submit_time_s=1.0),
        ]
        with pytest.raises(ConfigurationError):
            FleetSimulator(trace, n_nodes=2, global_bound_w=500.0)

    def test_unknown_workload_rejected(self):
        trace = [
            TraceJob(job_id=1, workload="nope", budget_w=120.0, submit_time_s=0.0)
        ]
        with pytest.raises(ConfigurationError):
            FleetSimulator(trace, n_nodes=2, global_bound_w=500.0)

    def test_heterogeneous_profiles_cycle(self):
        trace = poisson_trace(n_jobs=6, rate_per_s=2.0, seed=5)
        sim = FleetSimulator(trace, n_nodes=5, global_bound_w=1500.0)
        assert [n.profile for n in sim.nodes] == [
            "ivybridge", "haswell", "ivybridge", "haswell", "ivybridge"
        ]
        stats = sim.run()
        profiles_used = {
            r.profile for r in sim.records.values()
            if r.state is JobState.COMPLETED
        }
        assert stats.n_completed > 0
        assert len(profiles_used) > 1  # both registries actually ran jobs

    def test_below_floor_ask_gets_typed_reason(self):
        trace = [
            TraceJob(job_id=1, workload="ft", budget_w=30.0, submit_time_s=0.0)
        ]
        sim = FleetSimulator(trace, n_nodes=1, global_bound_w=500.0)
        stats = sim.run()
        assert stats.n_rejected == 1
        assert "productive floor" in (sim.records[1].reject_reason or "")

    def test_second_run_raises_typed_and_changes_nothing(self):
        trace = poisson_trace(n_jobs=50, rate_per_s=2.0, seed=3)
        sim = FleetSimulator(trace, n_nodes=4, global_bound_w=600.0)
        stats = sim.run()
        records = dict(sim.records)
        with pytest.raises(SchedulerError, match="runs once"):
            sim.run()
        assert dict(sim.records) == records
        assert stats.n_completed + stats.n_rejected == len(trace)
        fresh = FleetSimulator(trace, n_nodes=4, global_bound_w=600.0)
        assert fresh.run() == stats


# ---------------------------------------------------------------------------
# chaos: the event core under armed fault plans
# ---------------------------------------------------------------------------

def _worker_plan(kind: FaultKind) -> FaultPlan:
    return FaultPlan(
        seed=17,
        specs=(
            FaultSpec(site="parallel.worker", kind=kind, probability=0.35,
                      amplitude=0.5),
        ),
        max_attempts=3,
        backoff_base_s=0.001,
    )


def _rapl_plan(kind: FaultKind) -> FaultPlan:
    return FaultPlan(
        seed=23,
        specs=(
            FaultSpec(site="rapl.read", kind=kind, probability=0.4,
                      amplitude=0.3),
        ),
        max_attempts=3,
        backoff_base_s=0.001,
    )


_CHAOS_TRACE = poisson_trace(n_jobs=16, rate_per_s=2.0, seed=77)


def _fleet_op():
    """Fresh engine + simulator per leg, comparable FleetStats result."""
    engine = SweepEngine()
    sim = FleetSimulator(
        _CHAOS_TRACE, n_nodes=3, global_bound_w=700.0,
        resplit_interval_s=5.0, engine=engine,
    )
    return sim.run(), None


def _scheduler_op():
    """The batch policies on the event core (RAPL flows through here)."""
    cluster = Cluster(
        node_factory=ivybridge_node, n_nodes=2, global_bound_w=500.0
    )
    sched = RebalancingScheduler(cluster, engine=SweepEngine())
    for job in plain_mix():
        sched.submit(job)
    stats = sched.run()
    return (stats, snapshot(sched)), None


class TestFleetChaos:
    """Armed plans: identical/degraded/typed-error, never a silent lie."""

    @pytest.mark.parametrize(
        "kind", [FaultKind.WORKER_CRASH, FaultKind.WORKER_TIMEOUT]
    )
    def test_fleet_under_worker_faults(self, kind):
        check = _run_check("fleet.run", _fleet_op, _worker_plan(kind))
        assert check.ok, check.detail
        assert check.outcome in ("identical", "degraded", "typed-error")

    @pytest.mark.parametrize(
        "kind", [FaultKind.DROPOUT, FaultKind.STUCK, FaultKind.WRAP_JUMP]
    )
    def test_event_core_under_rapl_faults(self, kind):
        check = _run_check("sched.run", _scheduler_op, _rapl_plan(kind))
        assert check.ok, check.detail
        assert check.outcome in ("identical", "degraded", "typed-error")

    def test_fleet_under_combined_plan(self):
        plan = FaultPlan(
            seed=5,
            specs=(
                FaultSpec(site="parallel.worker", kind=FaultKind.WORKER_CRASH,
                          probability=0.25, amplitude=0.5),
                FaultSpec(site="rapl.read", kind=FaultKind.DROPOUT,
                          probability=0.25, amplitude=0.5),
            ),
            max_attempts=3,
            backoff_base_s=0.001,
        )
        for name, op in (("fleet.run", _fleet_op), ("sched.run", _scheduler_op)):
            check = _run_check(name, op, plan)
            assert check.ok, f"{name}: {check.detail}"
            assert check.outcome in ("identical", "degraded", "typed-error")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_quick_fleet_outcome(), indent=2) + "\n")
