"""The ``fleet-pressure`` workload.

A seeded Poisson trace (100k jobs at 48 jobs/s; seed 2016 is the trace
``benchmarks/bench_fleet.py`` reports on) replayed over 1,000
heterogeneous nodes under 60 kW with 30 s water-filling re-splits.  A
pair is a cold replay on a fresh engine, then a warm replay of a fresh
``FleetSimulator`` on that engine.  Every replay attaches an observer
that timestamps each dispatched event: the gap between two callbacks is
how long the simulated cluster manager took to react to that event.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import time
from array import array
from typing import Any

from measure import (
    HERE,
    HostSpeed,
    Tracer,
    between,
    engine_counts,
    make_engine,
    pieced,
    span,
)

GOLDEN = HERE / "golden" / "fleet.json"
GOLDEN_SEED = 2016

FULL = {"n_nodes": 1000, "n_jobs": 100_000, "rate_per_s": 48.0}
QUICK = {"n_nodes": 128, "n_jobs": 5_000, "rate_per_s": 12.0}
WATTS_PER_NODE = 60.0
RESPLIT_S = 30.0
#: Dispatched events per host-factor sample (about twenty per full replay).
SEGMENT = 10_000


def build_trace(seed: int, quick: bool):
    from repro.sched.traces import poisson_trace

    shape = QUICK if quick else FULL
    return poisson_trace(n_jobs=shape["n_jobs"], rate_per_s=shape["rate_per_s"],
                         seed=seed)


def simulator(trace, quick: bool, engine):
    from repro.sched import FleetSimulator

    n_nodes = (QUICK if quick else FULL)["n_nodes"]
    return FleetSimulator(trace, n_nodes=n_nodes,
                          global_bound_w=WATTS_PER_NODE * n_nodes,
                          resplit_interval_s=RESPLIT_S, engine=engine)


class _Observer:
    """A replay's observer: times each dispatched event and, with a
    ``speed``, samples the host factor every ``SEGMENT`` events.

    A replay takes seconds, long enough for the host's speed to change
    within it, so each segment gets the factor measured at its two ends.
    The sampling is left out of both the segment's time and the next
    event's interval.
    """

    def __init__(self, by_kind: dict[str, float] | None, speed: HostSpeed | None):
        self.by_kind = by_kind
        self.speed = speed
        self.segments: list[array] = [array("d")]
        self.elapsed: list[float] = []
        self.factors: list[float] = [] if speed is None else [speed.factor()]
        self._start = self._last = time.perf_counter()

    def __call__(self, loop, event) -> None:
        now = time.perf_counter()
        self.segments[-1].append(now - self._last)
        if self.by_kind is not None:
            name = event.kind.name.lower()
            self.by_kind[name] = self.by_kind.get(name, 0.0) + (now - self._last)
        self._last = now
        if self.speed is not None and len(self.segments[-1]) == SEGMENT:
            self.end_segment()
            self.segments.append(array("d"))
            self._start = self._last = time.perf_counter()

    def end_segment(self) -> None:
        """Close the current segment; called once more after the replay."""
        self.elapsed.append(time.perf_counter() - self._start)
        if self.speed is not None:
            self.factors.append(self.speed.factor())

    def factor(self) -> float:
        """The host factor of the whole replay (1.0 without a ``speed``)."""
        return 1.0 if self.speed is None else pieced(self.elapsed, self.factors)


def check_stats(stats, trace, quick: bool, seed: int) -> list[str]:
    """Invariants of one replay, plus the golden stats for the full trace
    at the golden seed."""
    errors = []
    n_nodes = (QUICK if quick else FULL)["n_nodes"]
    if stats.n_completed + stats.n_rejected != len(trace):
        errors.append(f"fleet: {stats.n_completed} completed + {stats.n_rejected} "
                      f"rejected != {len(trace)} jobs")
    if stats.peak_charged_w > WATTS_PER_NODE * n_nodes + 1e-6:
        errors.append(f"fleet: peak {stats.peak_charged_w} W over the bound")
    if not quick and seed == GOLDEN_SEED:
        want = json.loads(GOLDEN.read_text())
        got = dataclasses.asdict(stats)
        errors += [f"fleet: {k} = {got[k]!r}, golden {v!r}"
                   for k, v in want.items() if got[k] != v]
    return errors


def fleet_pair(trace, quick: bool, seed: int, traced: bool,
               host: HostSpeed) -> dict[str, Any]:
    """Cold replay on a fresh engine, then a warm replay on that engine.

    Untraced replays sample the host factor as they go; traced ones do
    not, so that no sampling lands inside the ``fleet.run`` span.
    """
    tracer = Tracer() if traced else None
    counts: dict[str, int] = {}
    by_kind: dict[str, float] | None = {} if traced else None
    engine = make_engine(tracer, "full")
    replays, stats = [], []
    for _ in ("cold", "warm"):
        sim = simulator(trace, quick, engine)
        gc.collect()
        observe = _Observer(by_kind, None if traced else host)
        with span(tracer, "fleet.run"):
            stats.append(sim.run(observer=observe))
        observe.end_segment()
        replays.append(observe)
        del sim
    errors = check_stats(stats[0], trace, quick, seed)
    if stats[1] != stats[0]:
        errors.append("fleet: warm replay stats differ from the cold replay")
    counts.update(engine_counts(engine))
    for s in stats:
        for key, field in (("fleet.events", "n_events"), ("fleet.rounds", "n_rounds"),
                           ("fleet.resplits", "n_resplits"),
                           ("fleet.retimed", "n_retimed"),
                           ("fleet.missed_budget", "n_missed_budget")):
            counts[key] = counts.get(key, 0) + getattr(s, field)
    return {
        "cold_s": sum(replays[0].elapsed),
        "warm_s": sum(replays[1].elapsed),
        "factors": [r.factor() for r in replays],
        "latencies": [unit for r in replays
                      for unit in zip(r.segments, between(r.factors))],
        "attempted": 2,
        "errors": errors,
        "spans": tracer.drain() if tracer is not None else None,
        "counts": counts,
        "events": by_kind,
        "stats": dataclasses.asdict(stats[0]),
    }
