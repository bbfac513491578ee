"""Golden histories of the batch schedulers.

``tests/golden/sched_histories.json`` pins what
:class:`~repro.sched.PowerBoundedScheduler` and
:class:`~repro.sched.RebalancingScheduler` do with a fixed set of
submissions.  Each entry holds the case's inputs (scheduler, platform,
cluster shape, options and every job), its exact stats and a sha256 over
every :class:`~repro.sched.JobRecord` field, per-job log lines included.

The cases come in two kinds:

* the named cases of :data:`NAMED_CASES`, which the differential battery
  in ``tests/test_fleet.py`` checks, each with its test's own asserts;
* a seeded corpus of :data:`CORPUS_SIZE` mixes per scheduler class, drawn
  over the ranges of ``job_mixes(multi_node=True)`` and
  ``cluster_shapes()``, under both admission orders and, for the
  rebalancer, both boost orders.  Its inputs are read back from the
  golden, so checking it does not depend on the generator staying stable.

Regenerate with ``PYTHONPATH=src python -m tests.test_sched_golden`` only
when a change is *meant* to move a history.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import random
from pathlib import Path

from repro.core.parallel import fingerprint
from repro.core.profiler import profile_cpu_workload
from repro.hardware.platforms import haswell_node, ivybridge_node
from repro.sched import Cluster, Job, PowerBoundedScheduler, RebalancingScheduler
from repro.workloads import cpu_workload

from tests.conftest import SCHED_WORKLOAD_NAMES, seeded_rng

GOLDEN = Path(__file__).parent / "golden" / "sched_histories.json"

PLATFORMS = {"ivybridge": ivybridge_node, "haswell": haswell_node}
SCHEDULERS = {
    cls.__name__: cls for cls in (PowerBoundedScheduler, RebalancingScheduler)
}

#: Corpus mixes per scheduler class.
CORPUS_SIZE = 100

# Profiles are deterministic per (platform, workload): compute them once
# and inject them into every scheduler under test.
_PROFILES: dict[str, dict] = {}


def profiles(platform: str) -> dict:
    """Every CPU workload's profile on ``platform``, computed once and
    keyed by its phases' fingerprint, as a scheduler keys its own."""
    if platform not in _PROFILES:
        node = PLATFORMS[platform]()
        workloads = [cpu_workload(name) for name in SCHED_WORKLOAD_NAMES]
        _PROFILES[platform] = {
            fingerprint(w.phases): profile_cpu_workload(node.cpu, node.dram, w)
            for w in workloads
        }
    return _PROFILES[platform]


# ---------------------------------------------------------------------------
# cases: inputs as plain data, replayed through a fresh scheduler
# ---------------------------------------------------------------------------

def case(scheduler_cls, platform: str, jobs, *, n_nodes: int, bound: float,
         **options) -> dict:
    """One case's inputs as JSON data; ``options`` go to the constructor."""
    return {
        "scheduler": scheduler_cls.__name__,
        "platform": platform,
        "n_nodes": n_nodes,
        "bound_w": bound,
        "options": options,
        "jobs": [
            [j.job_id, j.workload.name, j.requested_budget_w, j.submit_time_s,
             j.n_nodes]
            for j in jobs
        ],
    }


def replay(inputs: dict):
    """Submit a case's jobs to a fresh scheduler and run it."""
    cluster = Cluster(
        node_factory=PLATFORMS[inputs["platform"]],
        n_nodes=inputs["n_nodes"],
        global_bound_w=inputs["bound_w"],
    )
    sched = SCHEDULERS[inputs["scheduler"]](cluster, **inputs["options"])
    sched._profile_cache.update(profiles(inputs["platform"]))
    for job_id, workload, budget_w, submit_s, n_nodes in inputs["jobs"]:
        sched.submit(Job(job_id, cpu_workload(workload), budget_w,
                         submit_time_s=submit_s, n_nodes=n_nodes))
    return sched, sched.run()


def snapshot(sched) -> dict:
    """Every record field of a finished scheduler, as plain data."""
    return {
        job_id: (
            r.state.name,
            r.node_name,
            tuple(r.slot_indices),
            r.granted_budget_w,
            None if r.allocation is None
            else (r.allocation.proc_w, r.allocation.mem_w),
            r.start_time_s,
            r.finish_time_s,
            r.performance,
            r.energy_j,
            r.reject_reason,
            tuple(r.events),
        )
        for job_id, r in sched.records.items()
    }


def outcome(sched, stats) -> dict:
    """Exact stats plus a sha256 over the snapshot, floats by ``repr``."""
    digest = hashlib.sha256()
    for job_id, row in snapshot(sched).items():
        digest.update(repr((job_id, *row)).encode() + b"\n")
    return {"stats": dataclasses.asdict(stats),
            "history_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# the named cases
# ---------------------------------------------------------------------------

def plain_mix():
    """Moderate asks, staggered arrivals, one threshold rejection."""
    return [
        Job(1, cpu_workload("ft"), 150.0, submit_time_s=0.0),
        Job(2, cpu_workload("mg"), 180.0, submit_time_s=0.0),
        Job(3, cpu_workload("cg"), 40.0, submit_time_s=2.0),   # below floor
        Job(4, cpu_workload("ft"), 200.0, submit_time_s=5.0),
        Job(5, cpu_workload("mg"), 120.0, submit_time_s=30.0),
    ]


def _reclaim_mix():
    """Asks far above maximum demand: surplus trim must engage."""
    return [
        Job(1, cpu_workload("ft"), 500.0, submit_time_s=0.0),
        Job(2, cpu_workload("cg"), 450.0, submit_time_s=1.0),
        Job(3, cpu_workload("mg"), 400.0, submit_time_s=8.0),
    ]


def _contention_mix():
    """A tight bound: two jobs drain the headroom below the third's
    productive threshold while a slot stays free, so the head is held
    ("holding" logs) until a completion releases power."""
    return [
        Job(1, cpu_workload("ft"), 200.0, submit_time_s=0.0),
        Job(2, cpu_workload("mg"), 180.0, submit_time_s=0.0),
        Job(3, cpu_workload("cg"), 150.0, submit_time_s=0.0),  # held at t=0
        Job(4, cpu_workload("ft"), 170.0, submit_time_s=1.5),
    ]


def _multinode_mix():
    return [
        Job(1, cpu_workload("ft"), 140.0, submit_time_s=0.0, n_nodes=2),
        Job(2, cpu_workload("mg"), 130.0, submit_time_s=0.0),
        Job(3, cpu_workload("cg"), 150.0, submit_time_s=4.0, n_nodes=3),
        Job(4, cpu_workload("ft"), 120.0, submit_time_s=6.0),
    ]


#: The battery's mixes: name -> (jobs, n_nodes, bound), each run on both
#: platforms by both schedulers.
BATTERY_MIXES = {
    "plain": (plain_mix, 2, 500.0),
    "reclaim": (_reclaim_mix, 2, 800.0),
    "contention": (_contention_mix, 3, 320.0),
    "multinode": (_multinode_mix, 3, 700.0),
}


def _jobs(rows) -> list[Job]:
    """Single-node jobs from (workload, W, submit s) rows, ids from 0."""
    return [Job(i, cpu_workload(name), budget, submit_time_s=submit)
            for i, (name, budget, submit) in enumerate(rows)]


#: Job 0's boost ends it before job 1 arrives; job 2 arrives on a busy
#: cluster and needs the sweep at job 0's stale finish (26.38 s).
STALE_SWEEP_ROWS = [("sra", 171.0, 1.0), ("sra", 97.0, 19.0),
                    ("sra", 97.0, 20.0), ("mg", 184.0, 0.0),
                    ("sra", 60.0, 0.0)]

#: The open held-boost bug: job 2's 42 W boost at 16.5 s leaves job 4 a
#: 181 W grant instead of 223 W, and the rebalanced makespan is 37.94 s
#: against 35.95 s.
HELD_BOOST_ROWS = [("ep", 223.0, 12.0), ("dgemm", 74.0, 12.0),
                   ("bt", 136.0, 6.0), ("ep", 64.0, 13.0),
                   ("lu", 286.0, 15.0), ("dgemm", 188.0, 4.0)]


def _named_cases() -> dict[str, dict]:
    cases = {}
    for mix, (jobs, n_nodes, bound) in BATTERY_MIXES.items():
        for cls_name, cls in SCHEDULERS.items():
            for platform in sorted(PLATFORMS):
                cases[f"{mix}-{cls_name}-{platform}"] = case(
                    cls, platform, jobs(), n_nodes=n_nodes, bound=bound)
    for platform in sorted(PLATFORMS):
        cases[f"modest-asks-{platform}"] = case(
            PowerBoundedScheduler, platform,
            [Job(1, cpu_workload("mg"), 120.0, submit_time_s=0.0),
             Job(2, cpu_workload("cg"), 110.0, submit_time_s=1.0)],
            n_nodes=2, bound=400.0)
    cases["sjf"] = case(PowerBoundedScheduler, "ivybridge", plain_mix(),
                        n_nodes=2, bound=500.0, order="sjf")
    cases["boosts-and-stale-completions"] = case(
        RebalancingScheduler, "haswell",
        [Job(1, cpu_workload("ft"), 120.0, submit_time_s=0.0),
         Job(2, cpu_workload("mg"), 120.0, submit_time_s=0.0),
         Job(3, cpu_workload("cg"), 140.0, submit_time_s=2.0)],
        n_nodes=2, bound=500.0)
    cases["stale-instant-sweep"] = case(
        RebalancingScheduler, "ivybridge", _jobs(STALE_SWEEP_ROWS),
        n_nodes=2, bound=205.0)
    cases["elasticity"] = case(
        RebalancingScheduler, "ivybridge", plain_mix(), n_nodes=3,
        bound=600.0, boost_order="elasticity")
    cases["unschedulable-head"] = case(
        PowerBoundedScheduler, "ivybridge",
        [Job(1, cpu_workload("ft"), 300.0, submit_time_s=0.0, n_nodes=5)],
        n_nodes=2, bound=500.0)
    # Charged watts summing a hair past the bound once made headroom
    # -5.7e-14 W, and the negative grant raised UnitError.
    cases["fuzz-example"] = case(
        PowerBoundedScheduler, "ivybridge",
        [Job(i, cpu_workload("sra"), budget, submit_time_s=0.0,
             n_nodes=n_nodes)
         for i, (budget, n_nodes) in enumerate(
             [(127.28500728850364, 1), (60.0, 1), (129.0, 2), (60.0, 1),
              (60.0, 1), (60.0, 1)])],
        n_nodes=4, bound=385.0)
    for cls_name, cls in SCHEDULERS.items():
        cases[f"held-boost-{cls_name}"] = case(
            cls, "ivybridge", _jobs(HELD_BOOST_ROWS), n_nodes=2, bound=359.0)
    return cases


NAMED_CASES = _named_cases()


# ---------------------------------------------------------------------------
# the seeded corpus
# ---------------------------------------------------------------------------

def _draw(rng: random.Random, lo: float, hi: float) -> float:
    """A float in ``[lo, hi]``: an end point, a whole number or any value,
    so range ends and exact ties come up as they do under hypothesis."""
    pick = rng.random()
    if pick < 0.1:
        return lo
    if pick < 0.2:
        return hi
    if pick < 0.6:
        return float(rng.randint(int(lo), int(hi)))
    return rng.uniform(lo, hi)


def draw_corpus(scheduler_cls) -> dict[str, dict]:
    """:data:`CORPUS_SIZE` seeded mixes for one scheduler class.

    Ranges as in ``job_mixes(multi_node=True)`` (1-6 jobs of 1-2 nodes,
    60-320 W asks, 0-20 s submits) and ``cluster_shapes()`` (either
    platform, 1-4 nodes, 150-900 W).  The orders cycle, so every
    admission order (and, for the rebalancer, every boost order) gets an
    equal share.
    """
    rng = seeded_rng("sched-corpus", scheduler_cls.__name__)
    cases = {}
    for i in range(CORPUS_SIZE):
        options = {"order": ("fcfs", "sjf")[i % 2]}
        if scheduler_cls is RebalancingScheduler:
            options["boost_order"] = ("fcfs", "elasticity")[i // 2 % 2]
        platform = rng.choice(sorted(PLATFORMS))
        n_nodes = rng.randint(1, 4)
        bound = _draw(rng, 150.0, 900.0)
        jobs = []
        for job_id in range(rng.randint(1, 6)):
            name = rng.choice(SCHED_WORKLOAD_NAMES)
            budget = _draw(rng, 60.0, 320.0)
            submit = _draw(rng, 0.0, 20.0)
            jobs.append(Job(job_id, cpu_workload(name), budget,
                            submit_time_s=submit, n_nodes=rng.randint(1, 2)))
        cases[f"corpus-{scheduler_cls.__name__}-{i:03d}"] = case(
            scheduler_cls, platform, jobs, n_nodes=n_nodes, bound=bound,
            **options)
    return cases


# ---------------------------------------------------------------------------
# the golden file
# ---------------------------------------------------------------------------

@functools.cache
def golden() -> dict[str, dict]:
    """Case name -> ``{"inputs", "stats", "history_sha256"}``."""
    return json.loads(GOLDEN.read_text())["cases"]


def corpus_names(scheduler_cls) -> list[str]:
    """The golden's corpus cases for one scheduler class, in order."""
    prefix = f"corpus-{scheduler_cls.__name__}-"
    return [name for name in golden() if name.startswith(prefix)]


def replay_case(name: str):
    """Replay a golden case: ``(sched, stats, matches the golden)``."""
    entry = golden()[name]
    sched, stats = replay(entry["inputs"])
    want = {"stats": entry["stats"], "history_sha256": entry["history_sha256"]}
    return sched, stats, outcome(sched, stats) == want


def mismatches(names) -> list[str]:
    """The cases among ``names`` whose replay differs from the golden."""
    return [name for name in names if not replay_case(name)[2]]


def check(name: str):
    """Replay a golden case; assert its outcome; return (sched, stats)."""
    sched, stats, matched = replay_case(name)
    assert matched, name
    return sched, stats


class TestGoldenFile:
    def test_golden_covers_every_case(self):
        cases = golden()
        assert all(set(e) == {"inputs", "stats", "history_sha256"}
                   for e in cases.values())
        for name, inputs in NAMED_CASES.items():
            assert name in cases, f"{name} is not in the golden"
            assert cases[name]["inputs"] == inputs, name
        corpus = set(cases) - set(NAMED_CASES)
        assert corpus == {name for cls in SCHEDULERS.values()
                          for name in corpus_names(cls)}
        for cls_name, cls in SCHEDULERS.items():
            drawn = [cases[name]["inputs"] for name in corpus_names(cls)]
            assert len(drawn) >= CORPUS_SIZE, cls_name
            assert all(d["scheduler"] == cls_name for d in drawn)
            jobs = [job for d in drawn for job in d["jobs"]]
            assert {d["platform"] for d in drawn} == set(PLATFORMS)
            assert {d["n_nodes"] for d in drawn} == {1, 2, 3, 4}
            assert {d["options"]["order"] for d in drawn} == {"fcfs", "sjf"}
            assert {job[4] for job in jobs} == {1, 2}
            if cls is RebalancingScheduler:
                assert {d["options"]["boost_order"] for d in drawn} == {
                    "fcfs", "elasticity"}


if __name__ == "__main__":
    cases = {**NAMED_CASES}
    for scheduler_cls in SCHEDULERS.values():
        cases.update(draw_corpus(scheduler_cls))
    entries = []
    for name, inputs in cases.items():
        sched, stats = replay(inputs)
        entry = {"inputs": inputs, **outcome(sched, stats)}
        entries.append(f"  {json.dumps(name)}: {json.dumps(entry)}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text('{"cases": {\n' + ",\n".join(entries) + "\n}}\n")
