"""Shared fixtures and differential-testing helpers.

Domain models are immutable after construction, so platform fixtures are
module-scoped for speed; anything stateful (NVML devices, RAPL interfaces,
clusters) is built fresh per test.

The module-level helpers (:func:`sweep_signature`, :func:`plateau_span`,
:func:`seeded_rng`) are importable as ``from tests.conftest import ...``
and back the parallel-vs-serial equivalence harness: they canonicalize a
sweep into plain comparable data and give deterministic randomness for
the fuzzing tests.

Hypothesis runs under one of two profiles.  ``tier1`` (the default) is
derandomized and keeps no example database, so a tier-1 result depends
only on the tree.  ``fuzz`` (``make fuzz``, i.e. ``--hypothesis-profile
fuzz``) draws fresh random examples, :data:`FUZZ_FACTOR` times as many
per test; every property test takes its example count from
:func:`property_settings` so both profiles scale it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.core.sweep import optimal_plateau
from repro.faults.plan import SITES, FaultKind, FaultPlan, FaultSpec
from repro.hardware.cpu import CpuDomain
from repro.hardware.dram import DramDomain
from repro.hardware.platforms import (
    haswell_node,
    ivybridge_node,
    titan_v_card,
    titan_xp_card,
)
from repro.hardware.pstate import PStateTable
from repro.perfmodel.phase import Phase
from repro.sched.job import Job
from repro.sched.traces import (
    Trace,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
)
from repro.workloads import cpu_workload, gpu_workload, list_cpu_workloads


# ---------------------------------------------------------------------------
# hypothesis profiles
# ---------------------------------------------------------------------------

#: How many times its tier-1 example count each property test draws under
#: the ``fuzz`` profile.
FUZZ_FACTOR = 5

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.register_profile("fuzz", derandomize=False, deadline=None, print_blob=True)
settings.load_profile("tier1")


def property_settings(max_examples: int) -> settings:
    """One property test's settings: ``max_examples`` examples under
    tier-1, :data:`FUZZ_FACTOR` times as many under ``fuzz``.

    The active profile is read when the test module is imported, which
    happens after pytest's ``--hypothesis-profile`` has been applied.
    """
    if settings.get_current_profile_name() == "fuzz":
        max_examples *= FUZZ_FACTOR
    return settings(max_examples=max_examples)


# ---------------------------------------------------------------------------
# differential-harness helpers (plain functions, importable from tests)
# ---------------------------------------------------------------------------

def sweep_signature(sweep) -> tuple:
    """Canonical, order-sensitive snapshot of a sweep's observable outcome.

    Two sweeps are equivalent iff their signatures compare equal: every
    allocation, every per-phase execution record, every performance value,
    and every scenario label — exact float equality, no tolerances, since
    the parallel engine promises bit-for-bit identity with the serial
    oracle.
    """
    return tuple(
        (
            point.allocation.proc_w,
            point.allocation.mem_w,
            point.performance,
            point.scenario,
            point.result,
        )
        for point in sweep.points
    )


def plateau_span(sweep) -> tuple[int, int]:
    """The sweep's optimal-plateau index span (serial-oracle definition)."""
    return optimal_plateau(sweep.points)


def seeded_rng(*seed_parts) -> random.Random:
    """A deterministic PRNG derived from ``seed_parts`` (for fuzz tests)."""
    return random.Random(repr(seed_parts))


# ---------------------------------------------------------------------------
# synthetic planner-domain strategies (hypothesis; shared by the planner
# equivalence and stage-differential suites)
# ---------------------------------------------------------------------------

class SyntheticWorkload:
    """One-phase throughput workload over a fuzzed :class:`Phase`.

    Performance is ``work / elapsed`` with ``work`` fixed at construction,
    exactly as the inline fuzz workloads historically computed it, so
    fuzzed planner answers stay bit-comparable across suites.
    """

    name = "fuzz"
    metric_unit = "ops/s"

    def __init__(self, phases: tuple[Phase, ...]) -> None:
        self.phases = phases
        head = phases[0]
        self._work = head.flops if head.flops else head.bytes_moved

    def performance(self, result) -> float:
        return self._work / result.elapsed_s


@st.composite
def planner_cpu_cases(draw) -> dict:
    """One synthetic CPU planner case: platform, workload, grid knobs.

    The parameter space intentionally includes degenerate corners — a
    single P-state (``f_span == 0``), one duty/level step, zero-flop and
    zero-byte phases — because those are where certificate violations and
    governor quantization dips live.  Returns keyword arguments for
    ``plan_cpu_sweep`` / ``sweep_cpu_allocations`` plus the built domain
    objects under ``cpu``/``dram``/``workload``.
    """
    flops = draw(st.sampled_from([0.0, 1e12, 5e13]))
    bytes_moved = draw(st.sampled_from([0.0, 1e11, 8e12]))
    if flops == 0.0 and bytes_moved == 0.0:
        flops = 1e12  # a phase must do some work
    idle_w = draw(st.sampled_from([10.0, 25.0, 40.0]))
    f_min = draw(st.sampled_from([0.8, 1.2, 1.6]))
    bg_w = draw(st.sampled_from([8.0, 20.0]))
    cpu = CpuDomain(
        n_cores=draw(st.integers(min_value=1, max_value=32)),
        pstates=PStateTable(
            f_min, f_min + draw(st.sampled_from([0.0, 0.4, 1.2]))
        ),
        idle_power_w=idle_w,
        max_dynamic_w=draw(st.sampled_from([40.0, 90.0, 140.0])),
        duty_steps=draw(st.integers(min_value=1, max_value=8)),
    )
    dram = DramDomain(
        background_w=bg_w,
        max_access_w=draw(st.sampled_from([30.0, 90.0])),
        peak_bw_gbps=60.0,
        level_steps=draw(st.integers(min_value=1, max_value=32)),
    )
    phase = Phase(
        name="fuzz",
        flops=flops,
        bytes_moved=bytes_moved,
        activity=0.9,
        stall_activity=0.35,
        compute_efficiency=0.7 if flops else 0.0,
        memory_efficiency=0.8 if bytes_moved else 0.0,
    )
    return {
        "cpu": cpu,
        "dram": dram,
        "workload": SyntheticWorkload((phase,)),
        "budget_w": 4.0 * draw(st.integers(min_value=20, max_value=80)),
        "step_w": draw(st.sampled_from([2.0, 4.0, 6.0])),
        "mem_min_w": float(bg_w),
        "proc_min_w": float(idle_w) / 2.0,
    }


# ---------------------------------------------------------------------------
# fault-plan strategies (hypothesis; shared by test_faults / test_diskcache)
# ---------------------------------------------------------------------------

@st.composite
def fault_specs(draw, sites: tuple[str, ...] | None = None) -> FaultSpec:
    """One valid :class:`FaultSpec`, optionally restricted to ``sites``.

    Every draw satisfies the plan schema (kind allowed at the site,
    amplitude within the wrap-jump detectable regime, schedule that can
    actually fire), so shrinking explores only well-formed plans and
    failures point at the contract, not at validation.
    """
    site = draw(st.sampled_from(sorted(sites) if sites else sorted(SITES)))
    kind = draw(st.sampled_from(SITES[site]))
    schedule = draw(st.sampled_from(("probability", "at_calls", "both")))
    probability = 0.0
    at_calls: tuple[int, ...] = ()
    if schedule in ("probability", "both"):
        probability = draw(
            st.floats(min_value=0.01, max_value=0.5, allow_nan=False)
        )
    if schedule in ("at_calls", "both"):
        at_calls = tuple(
            sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=4)))
        )
    return FaultSpec(
        site=site,
        kind=kind,
        probability=probability,
        at_calls=at_calls,
        max_fires=draw(st.one_of(st.none(), st.integers(1, 3))),
        amplitude=draw(st.floats(
            min_value=0.05,
            max_value=0.95 if kind is FaultKind.WRAP_JUMP else 1.0,
        )),
    )


def fault_plans(
    sites: tuple[str, ...] | None = None, max_specs: int = 4
) -> st.SearchStrategy[FaultPlan]:
    """Whole fault plans: seeded spec lists plus valid policy knobs."""
    return st.builds(
        FaultPlan,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        specs=st.lists(fault_specs(sites=sites), min_size=1, max_size=max_specs).map(
            tuple
        ),
        max_attempts=st.integers(min_value=2, max_value=5),
        backoff_base_s=st.just(0.001),
        profile_repeats=st.sampled_from((3, 5)),
    )


# ---------------------------------------------------------------------------
# scheduler-domain strategies (hypothesis; shared by test_sched_properties
# and the fleet differential/property battery in test_fleet)
# ---------------------------------------------------------------------------

#: Every registered CPU workload — the job-mix sampling space.
SCHED_WORKLOAD_NAMES: tuple[str, ...] = tuple(list_cpu_workloads())


@st.composite
def job_mixes(draw, max_jobs: int = 6, multi_node: bool = False) -> list[Job]:
    """A small batch of :class:`Job` submissions over the CPU suite.

    The distribution matches the historical ad-hoc generator in
    ``test_sched_properties`` (1..6 jobs, 60-320 W asks, 0-20 s submit
    window) so replacing it does not shift what hypothesis explores.
    ``multi_node=True`` additionally draws 1-2 node jobs.
    """
    n = draw(st.integers(1, max_jobs))
    jobs = []
    for i in range(n):
        name = draw(st.sampled_from(SCHED_WORKLOAD_NAMES))
        request = draw(st.floats(60.0, 320.0))
        submit = draw(st.floats(0.0, 20.0))
        n_nodes = draw(st.integers(1, 2)) if multi_node else 1
        jobs.append(
            Job(i, cpu_workload(name), request, submit_time_s=submit,
                n_nodes=n_nodes)
        )
    return jobs


@st.composite
def cluster_shapes(draw, max_nodes: int = 4) -> dict:
    """Keyword arguments for a small :class:`~repro.sched.Cluster`."""
    return {
        "node_factory": draw(st.sampled_from((ivybridge_node, haswell_node))),
        "n_nodes": draw(st.integers(1, max_nodes)),
        "global_bound_w": draw(
            st.floats(150.0, 900.0, allow_nan=False, allow_infinity=False)
        ),
    }


@st.composite
def fleet_traces(draw, max_jobs: int = 30) -> Trace:
    """A seeded synthetic trace from any of the three fleet generators.

    Drawing the *generator inputs* (not the jobs) keeps every example a
    genuine replayable trace — the replay-identity property re-runs the
    same generator with the same seed and demands equality.
    """
    n = draw(st.integers(1, max_jobs))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(("poisson", "bursty", "diurnal")))
    if kind == "poisson":
        return poisson_trace(
            n_jobs=n,
            rate_per_s=draw(st.sampled_from((0.5, 2.0, 8.0))),
            seed=seed,
        )
    if kind == "bursty":
        return bursty_trace(
            n_jobs=n,
            burst_size=draw(st.integers(1, 6)),
            gap_s=draw(st.sampled_from((2.0, 10.0))),
            seed=seed,
        )
    return diurnal_trace(
        n_jobs=n,
        base_rate_per_s=0.5,
        peak_rate_per_s=draw(st.sampled_from((1.0, 4.0))),
        period_s=120.0,
        seed=seed,
    )


@pytest.fixture(scope="module")
def ivb():
    """The IvyBridge node (CPU Platform I)."""
    return ivybridge_node()


@pytest.fixture(scope="module")
def has():
    """The Haswell node (CPU Platform II)."""
    return haswell_node()


@pytest.fixture(scope="module")
def xp():
    """The Titan XP card (GPU Platform I)."""
    return titan_xp_card()


@pytest.fixture(scope="module")
def tv():
    """The Titan V card (GPU Platform II)."""
    return titan_v_card()


@pytest.fixture(scope="module")
def sra():
    return cpu_workload("sra")


@pytest.fixture(scope="module")
def stream():
    return cpu_workload("stream")


@pytest.fixture(scope="module")
def dgemm():
    return cpu_workload("dgemm")


@pytest.fixture(scope="module")
def sgemm():
    return gpu_workload("sgemm")


@pytest.fixture(scope="module")
def minife():
    return gpu_workload("minife")


@pytest.fixture(scope="module")
def gpu_stream():
    return gpu_workload("gpu-stream")
