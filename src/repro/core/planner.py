"""Structure-aware adaptive sweep planner: oracle answers, fewer points.

The paper's sweeps are massively redundant: per-budget allocation
profiles collapse into the six-scenario plateau structure (Figs. 3/4/7/8)
and ``perf_max``-vs-budget is monotone and saturating (Figs. 2/6).  The
planner exploits that structure to answer the questions the experiments
actually ask — the best point of a sweep, and whole budget curves —
while *executing* only a fraction of the native grid:

1. **probe** — a coarse stride-``k`` pass over the allocation axis
   (plus a warm-start neighborhood around the previous optimum when one
   is remembered on the engine);
2. **certify** — the probe profile must look like the paper's structure:
   eligible probes form one contiguous run and their performances are
   unimodal within the plateau tolerance.  Any violation triggers a
   *transparent fallback* to the full sweep, so exactness is never
   conditional on the heuristic succeeding;
3. **bracket** — seed at the best executed eligible point and walk
   outward exactly as :func:`~repro.core.sweep.optimal_plateau` would,
   executing boundary neighbors on demand; the two directions advance in
   lockstep so each round's frontier resolves in one batched sub-grid
   fetch.  Gaps whose executed
   endpoints are both in-plateau *and* carry identical phase tuples are
   skipped wholesale: the governors select operating states monotonically
   in the caps, so equal states at both ends of a cap interval pin every
   interior point to the same result (eligibility interpolates too —
   equal powers under sandwiched caps).  Whenever a newly executed point
   beats the incumbent optimum the search restarts from the new top, so
   the walk converges on the oracle's plateau;
4. **select** — the plateau middle is executed explicitly and returned;
   it is field-for-field the point the full sweep would have picked.

One private driver runs this lifecycle for both devices: the hint,
plan replay, probe → escalate → fallback, and the stats, hint and
replay bookkeeping.  :func:`plan_cpu_sweep` and :func:`plan_gpu_sweep`
are adapters that supply only what differs — the axis, its value-to-index
mapping, the saturation-reuse rule and the full-sweep fallback.  Every
stage resolves its points through one prepared
:class:`~repro.core.parallel.SubgridExecutor` per plan
(:meth:`SweepEngine.host_subgrid` / :meth:`SweepEngine.gpu_subgrid`):
the axis keys and the vectorized gather kernel are set up once, each
stage's subset runs as one gathered kernel pass, and the engine's
memo/disk caches fill point-by-point exactly as the full sweep would.

Budget curves warm-start each budget from the previous best split
(hints live on the engine's :class:`~repro.core.parallel.PlannerState`)
and return every budget asked for.

``tests/test_planner_equivalence.py`` locks all of this bit-for-bit
against the full-sweep oracle across the entire CPU and GPU registries.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import cast

import numpy as np

from repro.core.allocation import PowerAllocation, allocation_axis
from repro.core.parallel import SweepEngine, default_engine, fingerprint
from repro.core.scenario import classify_cpu, classify_gpu
from repro.core.sweep import (
    BudgetCurve,
    SweepPoint,
    _budget_curve,
    gpu_freq_axis,
    gpu_point_allocation,
    optimal_plateau,
    sweep_cpu_allocations,
    sweep_gpu_allocations,
)
from repro.faults.injector import armed
from repro.hardware.component import CappingMechanism
from repro.hardware.cpu import CpuDomain
from repro.hardware.dram import DramDomain
from repro.hardware.gpu import GpuCard
from repro.perfmodel.executor import _CAP_EPS_W, _cpu_candidates
from repro.perfmodel.metrics import ExecutionResult, PhaseResult
from repro.workloads.base import Workload

__all__ = [
    "PlanStats",
    "PlannedSweep",
    "adaptive_cpu_budget_curve",
    "adaptive_gpu_budget_curve",
    "plan_cpu_sweep",
    "plan_gpu_sweep",
    "sweep_cpu_best",
    "sweep_gpu_best",
]

#: Grids at or below this size are executed in full — probing cannot pay
#: for itself against a handful of points.
_FULL_SWEEP_FLOOR = 6

#: Plateau tolerance, identical to :func:`optimal_plateau`.
_TOL_SCALE = 1e-9

#: How many consecutive sub-top points a plateau walk peeks past before
#: giving up.  Governor quantization puts 1–2-point dips between
#: competing near-top maxima (§11 of docs/modeling.md); peeking across
#: them is what keeps the planner exact on profiles whose global
#: optimum is a one-index spike.
_DIP_PATIENCE = 3

#: Dip peeking stops early once the profile has collapsed below this
#: fraction of the top: quantization wiggles ride within a few percent
#: of the optimum, so a 15% drop is a falling edge, not a dip.
_PEEK_FLOOR = 0.85


@dataclass(frozen=True)
class PlanStats:
    """Execution accounting for one planned sweep."""

    native_points: int
    executed_points: int
    probe_points: int
    fallback: bool
    warm_started: bool
    reused_points: int = 0

    @property
    def points_saved(self) -> int:
        return self.native_points - self.executed_points


@dataclass(frozen=True)
class PlannedSweep:
    """The oracle answer of one sweep, without the full grid.

    ``best`` and ``plateau`` are exactly what the full
    :class:`~repro.core.sweep.AllocationSweep` / ``GpuSweep`` would
    report (``.best`` and :func:`optimal_plateau` over its points).
    """

    workload_name: str
    metric_unit: str
    budget_w: float
    best: SweepPoint
    best_index: int
    plateau: tuple[int, int]
    stats: PlanStats

    @property
    def perf_max(self) -> float:
        """The sweep's upper performance bound (== the oracle's)."""
        return self.best.performance


# ---------------------------------------------------------------------------
# structure certificates
# ---------------------------------------------------------------------------

def _one_contiguous_run(flags: Sequence[bool]) -> bool:
    """True if the True entries of ``flags`` form one contiguous block."""
    run_started = False
    run_ended = False
    for flag in flags:
        if flag:
            if run_ended:
                return False
            run_started = True
        elif run_started:
            run_ended = True
    return True


def _unimodal_within_tol(values: Sequence[float], tol: float) -> bool:
    """True if ``values`` rise then fall, ignoring sub-``tol`` wiggles.

    A rise of more than ``tol`` after a fall of more than ``tol`` is the
    signature of a second peak wide enough for the probes to see — the
    structure violation that forces the full-sweep fallback.
    """
    seen_fall = False
    for prev, curr in zip(values, values[1:]):
        delta = curr - prev
        if delta > tol:
            if seen_fall:
                return False
        elif delta < -tol:
            seen_fall = True
    return True


# ---------------------------------------------------------------------------
# the axis search
# ---------------------------------------------------------------------------

_Fetch = Callable[[list[int]], list[SweepPoint]]


@dataclass
class _WalkState:
    """One direction of the lockstep plateau walk (see :func:`_plan_axis`)."""

    step: int
    frontier: int
    pos: int
    fails: int = 0
    done: bool = False
    restart: bool = False
    need: int | None = None
    spec: int | None = None


def _default_stride(n: int) -> int:
    return max(3, min(12, int(round(math.sqrt(2.0 * n)))))


def _probe_indices(n: int, stride: int, hint: int | None, lean: bool) -> list[int]:
    """The initial probe set: endpoints + stride grid, or a lean warm set.

    ``lean`` (previous plan on this axis completed without fallback)
    keeps only the endpoints, the hint neighborhood, and the midpoints
    between them — the shape certificate still brackets the hint, but
    far-field probing is dropped.
    """
    probes = {0, n - 1}
    if hint is not None:
        h = min(max(hint, 0), n - 1)
        # A +/-2 neighborhood: wide enough that a plateau drifting one
        # index between budgets still resolves inside the probe pass
        # instead of costing extra lockstep walk rounds.
        probes.update(range(max(0, h - 2), min(n - 1, h + 2) + 1))
    if hint is None or not lean:
        probes.update({h // 2, (h + n - 1) // 2} if hint is not None else set())
        probes.update(range(0, n, stride))
    return sorted(probes)


def _plan_axis(
    n: int,
    fetch: _Fetch,
    probes: list[int],
    seed: dict[int, SweepPoint] | None = None,
) -> tuple[dict[int, SweepPoint], tuple[int, int] | None]:
    """Locate the oracle plateau on a ``n``-point axis.

    Returns the executed points and the plateau span, or ``None`` as the
    span when the probe profile violates the expected structure (the
    caller then falls back to the full sweep).  ``fetch`` materializes
    grid indices through the engine (memoized, vectorized).  ``seed``
    carries points a previous attempt on the same axis already executed
    (the lean-probe escalation path), so they are never re-fetched.
    """
    executed: dict[int, SweepPoint] = dict(seed) if seed else {}
    # Incremental per-point bookkeeping: ``respects_bound`` walks the
    # phase tuple and ``performance`` is consulted on every restart, so
    # both are cached once at fetch time instead of recomputed per query.
    perfs: dict[int, float] = {i: p.performance for i, p in executed.items()}
    elig: dict[int, bool] = {
        i: p.result.respects_bound for i, p in executed.items()
    }
    finite = all(math.isfinite(v) for v in perfs.values())

    def run(indices: Sequence[int]) -> None:
        nonlocal finite
        todo = sorted(i for i in set(indices) if i not in executed)
        if todo:
            for idx, point in zip(todo, fetch(todo)):
                executed[idx] = point
                val = point.performance
                perfs[idx] = val
                elig[idx] = point.result.respects_bound
                if not math.isfinite(val):
                    finite = False

    run(probes)

    def ok(index: int) -> bool:
        return elig[index]

    # Each restart either strictly raises the incumbent top or moves the
    # attainment index strictly left at an unchanged top, so the loop is
    # bounded; the range is a belt-and-braces cap, with the structure
    # fallback behind it.
    for _ in range(2 * n + 4):
        if not finite:
            return executed, None  # oracle raises; let the full sweep do it
        eligible = [i for i in sorted(executed) if ok(i)]
        if not eligible:
            return executed, None  # oracle's all-eligible degenerate case
        top = max(perfs[i] for i in eligible)
        tol = _TOL_SCALE * max(top, 1.0)

        if not _one_contiguous_run([ok(i) for i in probes]):
            return executed, None
        if not _unimodal_within_tol([perfs[i] for i in probes if ok(i)], tol):
            return executed, None

        def pred(index: int) -> bool:
            return ok(index) and perfs[index] >= top - tol

        arg = next(i for i in eligible if perfs[i] >= top)

        # Both plateau walks advance in lockstep so each round's frontier
        # neighbors — at most one per direction — resolve in ONE batched
        # fetch instead of a scalar call per step.  The per-direction
        # decision logic is byte-for-byte the sequential walk's: while
        # the within-tol run continues the frontier advances (same-state
        # gaps skipped wholesale); past the run's end the walk keeps
        # peeking for up to ``_DIP_PATIENCE`` sub-top points, and any
        # peeked point at/above the top forces a restart instead of a
        # silent miss.  Dips never extend the bracket — the oracle's run
        # is contiguous.  A restart discovered mid-round may leave the
        # other direction's point of that round executed; that is safe
        # because the restart re-derives ``top``/``arg`` from *all*
        # executed points.
        left = _WalkState(step=-1, frontier=arg, pos=arg)
        right = _WalkState(step=+1, frontier=arg, pos=arg)

        def consume(st: _WalkState, nb: int) -> None:
            """Fold the (executed) neighbor ``nb`` into the walk state."""
            if not ok(nb):
                st.done = True  # eligibility is one contiguous band: done
                return
            val = perfs[nb]
            if st.fails == 0:
                if val > top:
                    st.restart = st.done = True  # strictly better: re-anchor
                    return
                if val >= top - tol:
                    st.frontier = st.pos = nb
                    return
            elif val > top or (st.step < 0 and val >= top):
                # A dip hid a higher top — or, leftward, an equal top
                # in an earlier run, which owns the oracle bracket.
                st.restart = st.done = True
                return
            st.fails += 1
            if st.fails > _DIP_PATIENCE or val < _PEEK_FLOOR * top:
                st.done = True
                return
            st.pos = nb

        def advance(st: _WalkState) -> None:
            """Advance through executed points up to the next missing one."""
            st.need = st.spec = None
            while not st.done:
                nb = st.pos + st.step
                if not 0 <= nb < n:
                    st.done = True
                    return
                if nb not in executed:
                    if st.fails == 0:
                        anchor = (
                            max((i for i in executed if i < st.pos), default=None)
                            if st.step < 0
                            else min((i for i in executed if i > st.pos), default=None)
                        )
                        if (
                            anchor is not None
                            and pred(anchor)
                            and executed[anchor].result.phases
                            == executed[st.pos].result.phases
                        ):
                            # same-state gap: interior provably identical
                            st.frontier = st.pos = anchor
                            continue
                    st.need = nb
                    # Momentum: speculatively batch the next index of this
                    # direction into the same round.  Unless ``nb`` ends
                    # the walk outright, the sequential walk would fetch
                    # it on the following round anyway, so the round count
                    # halves at (almost) no executed-point cost; answers
                    # are unaffected because every walk decision is proof-
                    # based over whatever happens to be executed.
                    nb2 = nb + st.step
                    if 0 <= nb2 < n and nb2 not in executed and (
                        st.fails < _DIP_PATIENCE
                    ):
                        st.spec = nb2
                    return
                consume(st, nb)

        while True:
            needs: list[int] = []
            specs: list[int] = []
            for st in (left, right):
                if not st.done:
                    advance(st)
                    if st.need is not None:
                        needs.append(st.need)
                        if st.spec is not None:
                            specs.append(st.spec)
            if left.restart or right.restart:
                break
            if not needs:
                break
            run(needs + specs)  # one batched sub-grid fetch per round
            for st in (left, right):
                if not st.done and st.need is not None:
                    consume(st, st.need)
        if left.restart or right.restart:
            continue
        lo, hi = left.frontier, right.frontier

        mid = (lo + hi) // 2
        run([mid])
        if ok(mid) and executed[mid].performance > top:
            continue  # skipped-gap interior beat the top: re-search
        return executed, (lo, hi)
    return executed, None  # safety net: behave as a structure violation


# ---------------------------------------------------------------------------
# the plan driver
# ---------------------------------------------------------------------------

#: A device's per-row operations on one opened plan axis: the sub-grid
#: run over axis rows, the saturation-reuse lookup (a result rebuilt from
#: the planner stash, or ``None``) and store, and the point constructor.
_Axis = tuple[
    Callable[[list[int]], list[ExecutionResult]],
    Callable[[int], ExecutionResult | None],
    Callable[[int, ExecutionResult], None],
    Callable[[int, ExecutionResult], SweepPoint],
]


def _plan(
    engine: SweepEngine,
    workload: Workload,
    budget_w: float,
    axis: Sequence[float] | np.ndarray,
    hint_key: tuple[object, ...],
    hint_value: float | None,
    to_index: Callable[[float], int],
    open_axis: Callable[[], _Axis],
    full_sweep: Callable[[], tuple[SweepPoint, ...]],
) -> PlannedSweep:
    """One plan of a sweep axis, for either device.

    ``axis`` holds the value the planner remembers per row (the memory
    share on a host, the memory clock on a GPU), ``to_index`` maps such a
    value back onto the axis, and ``hint_key`` names the grid.  The
    lifecycle, in this order (the planner's hint and stash maps are LRUs,
    so the order of their accesses is part of the point accounting):

    1. the hint: ``hint_value`` (a budget curve's previous optimum, which
       also makes the probe set lean), else the engine's memory for
       ``hint_key``;
    2. the replay check;
    3. on a replay miss only, ``open_axis()``: the device's saturation
       stash and engine sub-grid;
    4. probe, escalate a lean probe set that lost the structure, and fall
       back to ``full_sweep()`` when no plateau is certified;
    5. the stats, the hint and the replay stash.
    """
    n = len(axis)
    hint: int | None = None
    lean = False
    if hint_value is not None:
        hint, lean = to_index(float(hint_value)), True
    else:
        remembered = engine.planner.hint(hint_key)
        if remembered is not None:
            hint, lean = to_index(remembered[0]), remembered[1]
    warm = hint is not None

    # Plan replay (exact): the planner's answer is a pure function of the
    # axis — it equals the oracle's best/plateau whatever route found it —
    # so a plan of this exact grid already completed on this engine can be
    # returned outright.  Disabled while a fault plan is armed: armed runs
    # must re-execute through the scalar path (and never poison the stash).
    replay_key = hint_key + (float(budget_w),)
    clean_run = armed() is None
    if clean_run:
        prior = engine.planner.stashed(replay_key)
        if prior is not None:
            engine.planner.record(
                native=n, executed=0, fallback=False, warm=warm, reused=0
            )
            stats = PlanStats(
                native_points=n,
                executed_points=0,
                probe_points=0,
                fallback=False,
                warm_started=warm,
            )
            return replace(cast(PlannedSweep, prior), stats=stats)

    # One prepared axis for the whole plan: every stage's point subset
    # (probe, certify, walk frontiers, plateau middle) resolves through
    # the same sub-grid executor, paying key/fingerprint/kernel setup once.
    run, reuse, store, point = open_axis()
    reused = 0

    def fetch(indices: list[int]) -> list[SweepPoint]:
        nonlocal reused
        out: dict[int, SweepPoint] = {}
        todo: list[int] = []
        for i in indices:
            result = reuse(i)
            if result is None:
                todo.append(i)
            else:
                out[i] = point(i, result)
                reused += 1
        if todo:
            for i, result in zip(todo, run(todo)):
                out[i] = point(i, result)
                store(i, result)
        return [out[i] for i in indices]

    stride = _default_stride(n)
    executed: dict[int, SweepPoint] = {}
    span: tuple[int, int] | None = None
    probe_count = 0
    if n > max(_FULL_SWEEP_FLOOR, stride + 2):
        probes = _probe_indices(n, stride, hint, lean)
        executed, span = _plan_axis(n, fetch, probes)
        if span is None and lean:
            # The lean warm set misses structure shifts between
            # neighboring budgets; escalate to the full probe grid —
            # reusing every point already executed — before surrendering
            # the whole axis to the fallback sweep.
            probes = sorted(
                set(probes) | set(_probe_indices(n, stride, hint, False))
            )
            executed, span = _plan_axis(n, fetch, probes, seed=executed)
        probe_count = len(probes)

    if span is None:
        # Transparent fallback: the full oracle sweep (already-executed
        # points come straight from the engine's memo cache).
        points = full_sweep()
        lo, hi = optimal_plateau(points)
        best = points[(lo + hi) // 2]
        stats = PlanStats(
            native_points=n,
            executed_points=n,
            probe_points=probe_count,
            fallback=probe_count > 0,
            warm_started=warm,
        )
    else:
        lo, hi = span
        best = executed[(lo + hi) // 2]
        stats = PlanStats(
            native_points=n,
            executed_points=len(executed) - reused,
            probe_points=probe_count,
            fallback=False,
            warm_started=warm,
            reused_points=reused,
        )
    mid = (lo + hi) // 2
    engine.planner.record(
        native=n,
        executed=stats.executed_points,
        fallback=stats.fallback,
        warm=warm,
        reused=stats.reused_points,
    )
    engine.planner.remember(hint_key, float(axis[mid]), not stats.fallback)
    planned = PlannedSweep(
        workload_name=workload.name,
        metric_unit=workload.metric_unit,
        budget_w=float(budget_w),
        best=best,
        best_index=mid,
        plateau=(lo, hi),
        stats=stats,
    )
    if clean_run:
        engine.planner.stash(replay_key, planned)
    return planned


# ---------------------------------------------------------------------------
# device adapters
# ---------------------------------------------------------------------------

def plan_cpu_sweep(
    cpu: CpuDomain,
    dram: DramDomain,
    workload: Workload,
    budget_w: float,
    *,
    step_w: float = 4.0,
    mem_min_w: float = 16.0,
    proc_min_w: float = 8.0,
    engine: SweepEngine | None = None,
    hint_mem_w: float | None = None,
) -> PlannedSweep:
    """Adaptively locate the best point of a host allocation sweep.

    Produces exactly :func:`sweep_cpu_allocations(...).best
    <repro.core.sweep.sweep_cpu_allocations>` (and the oracle's plateau
    bracket) while executing only probe/bracket points.  ``hint_mem_w``
    seeds the probe neighborhood (budget curves pass the previous
    budget's optimum); without it, the engine's planner memory is
    consulted for this (platform, phases, grid) combination.
    """
    engine = engine if engine is not None else default_engine()
    # Raw axis columns only: allocation objects (with their validation
    # chain) are built lazily for the points the plan touches, never for
    # the ~2/3 of the grid adaptive planning skips.
    proc_axis, mem_axis = allocation_axis(
        budget_w, mem_min_w=mem_min_w, proc_min_w=proc_min_w, step_w=step_w
    )
    fps = (fingerprint(cpu), fingerprint(dram), fingerprint(tuple(workload.phases)))

    def open_axis() -> _Axis:
        # Saturation reuse (exact): if the top P-state's demand at
        # worst-case activity fits under the processor share, _resolve_cpu
        # picks the top state with mechanism NONE at every joint-iteration
        # step, so the phase tuple depends on the memory cap alone —
        # results recur across budgets wherever the processor side is
        # provably unconstrained.
        sat_key = ("plan-sat-w",) + fps
        stashed = engine.planner.stashed(sat_key)
        if stashed is None:
            top_op = _cpu_candidates(cpu)[0]
            stashed = max(
                cpu.demand_w(max(ph.activity, ph.stall_activity), top_op)
                for ph in workload.phases
            )
            engine.planner.stash(sat_key, stashed)
        sat_w = cast(float, stashed)
        allocs: dict[int, PowerAllocation] = {}

        def alloc_at(i: int) -> PowerAllocation:
            alloc = allocs.get(i)
            if alloc is None:
                alloc = allocs[i] = PowerAllocation(proc_axis[i], mem_axis[i])
            return alloc

        def reuse(i: int) -> ExecutionResult | None:
            alloc = alloc_at(i)
            if alloc.proc_w + _CAP_EPS_W < sat_w:
                return None
            phases = engine.planner.stashed(
                ("plan-sat-host",) + fps + (float(alloc.mem_w),)
            )
            if phases is None:
                return None
            return ExecutionResult(
                cast("tuple[PhaseResult, ...]", phases),
                proc_cap_w=float(alloc.proc_w),
                mem_cap_w=float(alloc.mem_w),
            )

        def store(i: int, result: ExecutionResult) -> None:
            alloc = alloc_at(i)
            if alloc.proc_w + _CAP_EPS_W >= sat_w:
                engine.planner.stash(
                    ("plan-sat-host",) + fps + (float(alloc.mem_w),),
                    result.phases,
                )

        def point(i: int, result: ExecutionResult) -> SweepPoint:
            return SweepPoint(
                allocation=alloc_at(i),
                result=result,
                performance=workload.performance(result),
                scenario=classify_cpu(result),
            )

        subgrid = engine.host_subgrid(
            cpu, dram, workload.phases, proc_axis, mem_axis
        )
        return subgrid.run, reuse, store, point

    return _plan(
        engine,
        workload,
        budget_w,
        mem_axis,
        ("plan-cpu",) + fps + (float(step_w), float(mem_min_w), float(proc_min_w)),
        hint_mem_w,
        lambda mem_w: int(round((mem_w - mem_min_w) / step_w)),
        open_axis,
        lambda: sweep_cpu_allocations(
            cpu,
            dram,
            workload,
            budget_w,
            step_w=step_w,
            mem_min_w=mem_min_w,
            proc_min_w=proc_min_w,
            engine=engine,
        ).points,
    )


def plan_gpu_sweep(
    card: GpuCard,
    workload: Workload,
    cap_w: float,
    *,
    freq_stride: int = 1,
    engine: SweepEngine | None = None,
    hint_freq_mhz: float | None = None,
) -> PlannedSweep:
    """Adaptively locate the best memory clock under a GPU board cap.

    The GPU analogue of :func:`plan_cpu_sweep`: identical answers to
    :func:`sweep_gpu_allocations(...).best
    <repro.core.sweep.sweep_gpu_allocations>` from probe/bracket points.
    """
    engine = engine if engine is not None else default_engine()
    freqs = gpu_freq_axis(card, freq_stride)
    fps = (fingerprint(card), fingerprint(tuple(workload.phases)))

    def open_axis() -> _Axis:
        # Saturation reuse (exact): a phase resolved at the top SM clock
        # with mechanism NONE computed its split and board power before
        # the cap gate, so the identical phase recurs at every cap at or
        # above the one it first cleared — high-cap sweeps of a budget
        # curve rebuild their points from the knee sweep without touching
        # the model.
        cap_eff = card.validate_cap(float(cap_w))

        def reuse(i: int) -> ExecutionResult | None:
            entry = engine.planner.stashed(("plan-sat-gpu",) + fps + (float(freqs[i]),))
            if entry is None:
                return None
            cap0, phases, mem_cap_w = cast(
                "tuple[float, tuple[PhaseResult, ...], float | None]", entry
            )
            if cap_eff < cap0:
                return None
            return ExecutionResult(
                phases, proc_cap_w=cap_eff, mem_cap_w=mem_cap_w, device="gpu"
            )

        def store(i: int, result: ExecutionResult) -> None:
            if all(
                p.proc_mechanism is CappingMechanism.NONE for p in result.phases
            ):
                key = ("plan-sat-gpu",) + fps + (float(freqs[i]),)
                prior = engine.planner.stashed(key)
                if (
                    prior is None
                    or cast("tuple[float, object, object]", prior)[0] > cap_eff
                ):
                    engine.planner.stash(
                        key, (cap_eff, result.phases, result.mem_cap_w)
                    )

        def point(i: int, result: ExecutionResult) -> SweepPoint:
            return SweepPoint(
                allocation=gpu_point_allocation(card, cap_w, float(freqs[i])),
                result=result,
                performance=workload.performance(result),
                scenario=classify_gpu(result),
            )

        subgrid = engine.gpu_subgrid(card, workload.phases, cap_w, freqs)
        return subgrid.run, reuse, store, point

    return _plan(
        engine,
        workload,
        cap_w,
        freqs,
        ("plan-gpu",) + fps + (int(freq_stride),),
        hint_freq_mhz,
        lambda freq_mhz: int(np.abs(freqs - freq_mhz).argmin()),
        open_axis,
        lambda: sweep_gpu_allocations(
            card, workload, cap_w, freq_stride=freq_stride, engine=engine
        ).points,
    )


# ---------------------------------------------------------------------------
# mode-aware best-point dispatchers
# ---------------------------------------------------------------------------

def sweep_cpu_best(
    cpu: CpuDomain,
    dram: DramDomain,
    workload: Workload,
    budget_w: float,
    *,
    step_w: float = 4.0,
    mem_min_w: float = 16.0,
    proc_min_w: float = 8.0,
    engine: SweepEngine | None = None,
) -> SweepPoint:
    """The best point of a host sweep, honoring the engine's mode.

    ``"full"`` engines take the oracle path (every point executed);
    ``"adaptive"`` engines take the planner.  Both return the identical
    :class:`SweepPoint`.
    """
    engine = engine if engine is not None else default_engine()
    if engine.mode == "adaptive":
        return plan_cpu_sweep(
            cpu,
            dram,
            workload,
            budget_w,
            step_w=step_w,
            mem_min_w=mem_min_w,
            proc_min_w=proc_min_w,
            engine=engine,
        ).best
    return sweep_cpu_allocations(
        cpu,
        dram,
        workload,
        budget_w,
        step_w=step_w,
        mem_min_w=mem_min_w,
        proc_min_w=proc_min_w,
        engine=engine,
    ).best


def sweep_gpu_best(
    card: GpuCard,
    workload: Workload,
    cap_w: float,
    *,
    freq_stride: int = 1,
    engine: SweepEngine | None = None,
) -> SweepPoint:
    """The best point of a GPU sweep, honoring the engine's mode."""
    engine = engine if engine is not None else default_engine()
    if engine.mode == "adaptive":
        return plan_gpu_sweep(
            card, workload, cap_w, freq_stride=freq_stride, engine=engine
        ).best
    return sweep_gpu_allocations(
        card, workload, cap_w, freq_stride=freq_stride, engine=engine
    ).best


# ---------------------------------------------------------------------------
# adaptive budget curves
# ---------------------------------------------------------------------------

def adaptive_cpu_budget_curve(
    cpu: CpuDomain,
    dram: DramDomain,
    workload: Workload,
    budgets_w: np.ndarray | list[float],
    *,
    step_w: float = 4.0,
    engine: SweepEngine | None = None,
) -> BudgetCurve:
    """:func:`~repro.core.sweep.cpu_budget_curve`, planned adaptively.

    Values are bit-for-bit the oracle curve's; each budget warm-starts
    from the previous optimum.
    """
    engine = engine if engine is not None else default_engine()
    hint: float | None = None

    def best_at(budget_w: float) -> SweepPoint:
        nonlocal hint
        planned = plan_cpu_sweep(
            cpu, dram, workload, budget_w,
            step_w=step_w, engine=engine, hint_mem_w=hint,
        )
        hint = planned.best.allocation.mem_w
        return planned.best

    return _budget_curve(workload, budgets_w, best_at, "budget")


def adaptive_gpu_budget_curve(
    card: GpuCard,
    workload: Workload,
    caps_w: np.ndarray | list[float],
    *,
    freq_stride: int = 1,
    engine: SweepEngine | None = None,
) -> BudgetCurve:
    """:func:`~repro.core.sweep.gpu_budget_curve`, planned adaptively."""
    engine = engine if engine is not None else default_engine()
    freqs = gpu_freq_axis(card, freq_stride)
    hint: float | None = None

    def best_at(cap_w: float) -> SweepPoint:
        nonlocal hint
        planned = plan_gpu_sweep(
            card, workload, cap_w,
            freq_stride=freq_stride, engine=engine, hint_freq_mhz=hint,
        )
        hint = float(freqs[planned.best_index])
        return planned.best

    return _budget_curve(workload, caps_w, best_at, "cap")
