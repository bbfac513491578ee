"""Memoized sweep execution in the calling thread.

Every figure and experiment walks an allocation grid whose points are
independent — the model is a pure function of ``(platform, phases,
caps)`` — so two orthogonal speedups apply:

* **vectorization** — the cache misses of a request are resolved in one
  NumPy pass by a gather kernel (``HostBatchKernel``/``GpuBatchKernel``),
  which is bit-for-bit equivalent to the scalar oracle
  (:mod:`repro.perfmodel.executor`) and an order of magnitude faster on
  a single core.  The kernels are the engine's only way to execute a
  point; the oracle is what the tests compare them against;
* **memoization** — ``(platform, phases, allocation) → ExecutionResult``
  is cached in a bounded LRU shared by sweeps, budget curves and the
  cluster scheduler, so the repeated budgets in budget curves and the
  scheduler's per-application predictions never re-execute an identical
  point.  The kernels fill the cache point-by-point from their array
  results.

Every request — a whole grid from :meth:`SweepEngine.map_host` /
:meth:`SweepEngine.map_gpu`, or a planner stage or fleet grant lattice
from :meth:`SweepEngine.host_subgrid` /
:meth:`SweepEngine.gpu_subgrid` — resolves through one loop,
:meth:`SubgridExecutor.run`, in the calling thread.  There is no worker
pool: every pool fan-out measured slower than the in-thread batch kernel
(``docs/modeling.md`` §9).  The caches and planner state are locked
because the coordination server's resolver threads share one engine.

Determinism is unconditional: results are assembled by *input* order
and cache key, so the engine is bit-for-bit equivalent to the serial
oracle (``tests/test_parallel_equivalence.py`` and
``tests/test_batch_equivalence.py`` lock this down differentially).

Cache keys are *content fingerprints*, not object identities: a workload
whose characterization changes (e.g. via :meth:`Workload.scaled`) can
never be served a stale result recorded for its previous phases.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import threading
import weakref
from collections import OrderedDict
from collections.abc import Callable, Hashable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import cast

import numpy as np

from pathlib import Path

from repro.core.allocation import PowerAllocation
from repro.core.diskcache import DiskCache
from repro.errors import (
    SweepError,
    WorkerCrashError,
    WorkerRetryExhaustedError,
    WorkerTimeoutError,
)
from repro.faults.injector import FaultInjector, armed
from repro.faults.plan import FaultKind
from repro.faults.report import record
from repro.hardware.cpu import CpuDomain
from repro.hardware.dram import DramDomain
from repro.hardware.gpu import GpuCard
from repro.perfmodel.batch import (
    GpuBatchKernel,
    GpuTables,
    HostBatchKernel,
    HostTables,
    batch_execute_indices,
)
from repro.perfmodel.metrics import ExecutionResult
from repro.perfmodel.phase import Phase

__all__ = [
    "CacheStats",
    "MemoCache",
    "PlannerState",
    "PlannerStats",
    "SubgridExecutor",
    "SweepEngine",
    "default_engine",
    "fingerprint",
    "freeze",
    "set_default_engine",
    "use_engine",
]

#: Recognized sweep planning modes (``full`` executes every grid point;
#: ``adaptive`` routes budget curves and best-point queries through
#: :mod:`repro.core.planner`).
SWEEP_MODES = ("full", "adaptive")

#: Default bound on the shared execution cache (entries, LRU-evicted).
DEFAULT_CACHE_SIZE = 4096

#: Bound on an engine's kernel table holders (LRU-evicted): one per
#: (platform, workload) on a host and per (card, workload, clock axis) on
#: a GPU.  One pass of the paper's sweep load needs 25; an evicted holder
#: is rebuilt bit-identically on its next use.
TABLE_CACHE_SIZE = 64


# ---------------------------------------------------------------------------
# content fingerprints
# ---------------------------------------------------------------------------

def freeze(obj: object) -> Hashable:
    """Recursively convert ``obj`` into a hashable content snapshot.

    Handles the model's vocabulary: frozen dataclasses (phases, workloads,
    operating points), plain domain objects (``CpuDomain``, ``GpuCard`` —
    snapshotted via their instance dict), numpy arrays, enums, and the
    usual scalars/containers.  Two objects freeze equal iff their visible
    state is equal, regardless of identity.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, enum.Enum):
        return (type(obj).__name__, obj.value)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            (f.name, freeze(getattr(obj, f.name))) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, (tuple, list)):
        return tuple(freeze(x) for x in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set",) + tuple(sorted(map(repr, obj)))
    if isinstance(obj, dict):
        return tuple(sorted((str(k), freeze(v)) for k, v in obj.items()))
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__,) + tuple(
            (k, freeze(v)) for k, v in sorted(vars(obj).items())
        )
    raise TypeError(f"cannot fingerprint {type(obj).__name__!r} for the sweep cache")


#: Fingerprint memo for immutable model objects (platforms, workloads).
#: Weak keys: the memo never keeps a platform alive.
_FP_MEMO: "weakref.WeakKeyDictionary[object, str]" = weakref.WeakKeyDictionary()
_FP_LOCK = threading.Lock()

#: Tuples (phase lists, composite keys) cannot be weak-referenced, so
#: they get a small value-keyed memo instead — correct because equal
#: tuples freeze equal, and bounded so repeated one-off keys cannot grow
#: it without limit.  Every sweep re-fingerprints its phase tuple on
#: each engine call; without this memo that freeze dominates warm-cache
#: passes where the model itself never runs.
_FP_TUPLE_MEMO: dict[tuple, str] = {}
_FP_TUPLE_MEMO_MAX = 512


def fingerprint(obj: object) -> str:
    """Stable hex digest of an object's frozen content.

    Compact enough to embed in typed cache keys (scheduler predictions,
    sweep points) while still changing whenever the underlying
    characterization changes.
    """
    if isinstance(obj, tuple):
        try:
            with _FP_LOCK:
                cached = _FP_TUPLE_MEMO.get(obj)
            if cached is not None:
                return cached
            hashable = True
        except TypeError:  # tuple holding unhashables → compute directly
            hashable = False
        digest = hashlib.sha1(repr(freeze(obj)).encode()).hexdigest()
        if hashable:
            with _FP_LOCK:
                if len(_FP_TUPLE_MEMO) >= _FP_TUPLE_MEMO_MAX:
                    _FP_TUPLE_MEMO.clear()
                _FP_TUPLE_MEMO[obj] = digest
        return digest
    try:
        with _FP_LOCK:
            cached = _FP_MEMO.get(obj)
        if cached is not None:
            return cached
        memoizable = True
    except TypeError:  # unhashable/unweakrefable → compute directly
        memoizable = False
    digest = hashlib.sha1(repr(freeze(obj)).encode()).hexdigest()
    if memoizable:
        try:
            with _FP_LOCK:
                _FP_MEMO[obj] = digest
        except TypeError:
            pass
    return digest


# ---------------------------------------------------------------------------
# bounded thread-safe memoization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of a :class:`MemoCache`.

    ``hits`` counts every lookup served without executing the model;
    ``disk_hits`` is the subset of those served by the persistent disk
    tier rather than the in-memory LRU, so ``hits - disk_hits``
    (:attr:`memo_hits`) is the pure memory-tier hit count.  The two
    ratios are disjoint by construction:
    ``hit_ratio + disk_hit_ratio + miss fraction == 1``.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def memo_hits(self) -> int:
        """Lookups served by the in-memory tier alone (hits minus disk)."""
        return self.hits - self.disk_hits

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served by the *memory* tier (0.0 untouched).

        Disk promotions are deliberately excluded — they are reported
        separately in :attr:`disk_hit_ratio` so a disk-warm pass cannot
        masquerade as memo locality.
        """
        return self.memo_hits / self.lookups if self.lookups else 0.0

    @property
    def disk_hit_ratio(self) -> float:
        """Fraction of lookups served by the persistent disk tier."""
        return self.disk_hits / self.lookups if self.lookups else 0.0


class MemoCache:
    """A bounded, thread-safe LRU map from hashable keys to results.

    All mutation happens under one re-entrant lock, so threads sharing
    one engine (the coordination server's resolvers) never race on dict
    writes.
    Values are expected to be immutable (frozen dataclasses), which makes
    sharing a cached :class:`ExecutionResult` across callers safe.

    A ``backing`` :class:`~repro.core.diskcache.DiskCache` turns this
    into the memory tier of a two-level cache: memory misses
    fall through to disk (counted in ``stats.disk_hits`` and promoted
    back into memory), and stores write through so other processes can
    go warm.  Evicting an entry from the bounded memory tier never loses
    it — the disk tier is append-only.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_CACHE_SIZE,
        backing: DiskCache | None = None,
    ) -> None:
        if maxsize < 1:
            raise SweepError(f"cache maxsize must be >= 1, got {maxsize}")
        self._maxsize = maxsize
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.RLock()
        self._backing = backing
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_hits = 0

    def lookup(self, key: Hashable) -> tuple[bool, object | None]:
        """``(hit, value)`` for ``key``; counts the lookup either way.

        A miss in memory consults the disk tier (when configured); a disk
        hit counts as a hit *and* a ``disk_hit``, and the value is
        promoted into the memory tier.
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._hits += 1
                return True, self._data[key]
        if self._backing is not None:
            found, value = self._backing.lookup(key)
            if found:
                with self._lock:
                    self._hits += 1
                    self._disk_hits += 1
                self._store_memory(key, value)
                return True, value
        with self._lock:
            self._misses += 1
            return False, None

    def _store_memory(self, key: Hashable, value: object) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def store(self, key: Hashable, value: object) -> None:
        """Insert ``key``, evicting least-recently-used entries past the bound.

        With a disk tier, the value also writes through (buffered; the
        :class:`DiskCache` deduplicates digests it already holds).
        """
        self._store_memory(key, value)
        if self._backing is not None and isinstance(value, ExecutionResult):
            self._backing.store(key, value)

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]) -> object:
        """Cached value for ``key``, computing and storing it on a miss.

        ``compute`` runs outside the lock: a concurrent miss on the same
        key may compute twice, but the model is deterministic so both
        computations store the same value — correctness is unaffected.
        """
        hit, value = self.lookup(key)
        if hit:
            return value
        value = compute()
        self.store(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                maxsize=self._maxsize,
                disk_hits=self._disk_hits,
            )


# ---------------------------------------------------------------------------
# planner bookkeeping (counters + warm-start hints, shared across sweeps)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlannerStats:
    """Aggregate counters of the adaptive planner on one engine."""

    sweeps: int
    fallbacks: int
    warm_starts: int
    native_points: int
    executed_points: int
    reused_points: int = 0

    @property
    def points_saved(self) -> int:
        """Model points the planner did *not* execute vs the full grids."""
        return self.native_points - self.executed_points

    @property
    def savings_ratio(self) -> float:
        """native/executed — the planner's point-reduction multiplier."""
        if self.executed_points == 0:
            return 1.0
        return self.native_points / self.executed_points


class PlannerState:
    """Thread-safe planner bookkeeping attached to a :class:`SweepEngine`.

    Holds the aggregate :class:`PlannerStats` counters and the
    warm-start hint memory: for each ``(platform, phases, grid)``
    fingerprint key, the last optimal axis value found and whether that
    plan completed without falling back.  Budget curves and repeated
    experiment sweeps use the hints to probe near the previous optimum.

    Hints and stash are LRUs of ``maxsize`` entries each (an engine
    builds them at its memo bound): the stash keeps one completed plan per budget,
    and a long-lived server takes its budgets from clients.  Every
    remembered value is exact, so an eviction costs re-execution, never
    a different answer.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        self._lock = threading.Lock()
        self._hints = MemoCache(maxsize)
        self._stash = MemoCache(maxsize)
        self._sweeps = 0
        self._fallbacks = 0
        self._warm_starts = 0
        self._native_points = 0
        self._executed_points = 0
        self._reused_points = 0

    def hint(self, key: Hashable) -> tuple[float, bool] | None:
        """``(axis_value, clean)`` remembered for ``key``, if any."""
        return cast("tuple[float, bool] | None", self._hints.lookup(key)[1])

    def remember(self, key: Hashable, axis_value: float, clean: bool) -> None:
        """Record the optimum found for ``key`` (``clean`` = no fallback)."""
        self._hints.store(key, (float(axis_value), bool(clean)))

    def stashed(self, key: Hashable) -> object | None:
        """An opaque value previously stashed for ``key``, if any.

        The planner keeps completed plans (replay), provably
        cap-independent phase tuples (saturation reuse) and derived
        per-platform constants here.
        """
        return self._stash.lookup(key)[1]

    def stash(self, key: Hashable, value: object) -> None:
        """Stash an opaque value for ``key``."""
        self._stash.store(key, value)

    def record(
        self, *, native: int, executed: int, fallback: bool, warm: bool,
        reused: int = 0,
    ) -> None:
        """Fold one planned sweep into the aggregate counters."""
        with self._lock:
            self._sweeps += 1
            self._fallbacks += int(fallback)
            self._warm_starts += int(warm)
            self._native_points += int(native)
            self._executed_points += int(executed)
            self._reused_points += int(reused)

    @property
    def stats(self) -> PlannerStats:
        with self._lock:
            return PlannerStats(
                sweeps=self._sweeps,
                fallbacks=self._fallbacks,
                warm_starts=self._warm_starts,
                native_points=self._native_points,
                executed_points=self._executed_points,
                reused_points=self._reused_points,
            )


# ---------------------------------------------------------------------------
# planner sub-grid execution
# ---------------------------------------------------------------------------

def _resubmit_until_clean(injector: FaultInjector, n_rows: int) -> None:
    """Run ``n_rows`` simulated tasks under the worker-fault schedule.

    The deterministic schedule needs a deterministic call order, so rows
    are checked one after another.  Each row is resubmitted after an
    injected crash/timeout until it runs clean or the plan's
    ``max_attempts`` are spent.  Nothing executes here: the task is the
    pure model, which the kernel gather that follows runs for every row,
    so a recovered request is bit-identical to the clean run.  Each
    recovered row records one ``"resubmitted"`` event in the open
    :func:`~repro.faults.report.ledger`.
    """
    budget = injector.plan.max_attempts
    for _ in range(n_rows):
        attempts = 0
        while True:
            attempts += 1
            event = injector.check("parallel.worker")
            if event is None:
                break
            failure: WorkerCrashError | WorkerTimeoutError
            if event.kind is FaultKind.WORKER_CRASH:
                failure = WorkerCrashError(
                    f"sweep worker crashed (call #{event.call_index})"
                )
            else:
                failure = WorkerTimeoutError(
                    f"sweep worker timed out (call #{event.call_index})"
                )
            if attempts >= budget:
                raise WorkerRetryExhaustedError(attempts, failure)
        if attempts > 1:
            record(
                "parallel.worker",
                "resubmitted",
                attempts=attempts,
                detail=(
                    f"task recovered after {attempts - 1} injected "
                    f"worker failure(s)"
                ),
            )


class SubgridExecutor:
    """One prepared allocation axis, resolvable subset-by-subset.

    Every engine request resolves here.  :meth:`SweepEngine.map_host` /
    :meth:`SweepEngine.map_gpu` run a whole axis once, and so does the
    fleet for each grant lattice; the adaptive planner touches one axis
    many times in small bites — probe strides, certify neighborhoods,
    per-iteration walk frontiers.  Keys are built
    once at construction and the gather kernel lazily on the first miss,
    so each :meth:`run` call costs only cache lookups and gathered kernel
    rows.

    The kernel's cap-independent tables come from the engine's holder
    LRU (:data:`TABLE_CACHE_SIZE` holders), so an axis of a device and
    workload the engine has seen builds only its per-cap columns.

    Every requested point is looked up once in the engine's
    :class:`MemoCache` (reading through to disk when configured) and
    every miss is stored back point-by-point, so hit/miss counters, disk
    promotion, and warm-cache behaviour are the same for whole grids and
    sub-grids.  Every miss runs in one kernel gather.  With a fault plan
    armed (:func:`~repro.faults.injector.armed`), the misses first pass
    the worker-fault schedule of :func:`_resubmit_until_clean`, one row
    at a time.
    """

    def __init__(
        self,
        engine: "SweepEngine",
        keys: list[tuple],
        kernel_factory: Callable[[], "HostBatchKernel | GpuBatchKernel"],
    ) -> None:
        self._engine = engine
        self._keys = keys
        self._kernel_factory = kernel_factory
        self._kernel: HostBatchKernel | GpuBatchKernel | None = None

    def __len__(self) -> int:
        return len(self._keys)

    def run(self, indices: Sequence[int]) -> list[ExecutionResult]:
        """Results for axis rows ``indices``, in input order.

        Bit-for-bit the per-point oracle's results for the same rows: the
        gather kernel is row-elementwise.
        """
        engine = self._engine
        keys = self._keys
        resolved: dict[tuple, ExecutionResult | None] = {}
        missing: list[int] = []
        for i in indices:
            key = keys[i]
            if key in resolved:
                continue  # duplicate within the request: one lookup, one run
            hit, value = engine.cache.lookup(key)
            resolved[key] = value  # type: ignore[assignment]
            if not hit:
                missing.append(i)
        if missing:
            injector = armed()
            if injector is not None:
                _resubmit_until_clean(injector, len(missing))
            if self._kernel is None:
                self._kernel = self._kernel_factory()
            results = batch_execute_indices(self._kernel, missing)
            for i, result in zip(missing, results):
                engine.cache.store(keys[i], result)
                resolved[keys[i]] = result
        return [resolved[keys[i]] for i in indices]  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class SweepEngine:
    """Memoized executor of sweep points, resolved in the calling thread.

    Parameters
    ----------
    n_jobs, backend, batch:
        Accepted only as ``None``/``1``, ``"thread"`` and ``True``, the
        values existing callers pass: every request resolves in the
        calling thread, its misses in one kernel gather.  Any other value
        raises :class:`~repro.errors.SweepError`.
    mode:
        ``"full"`` (default) executes every grid point (the oracle
        behaviour); ``"adaptive"`` routes budget curves and best-point
        queries through the structure-aware planner
        (:mod:`repro.core.planner`), which returns identical answers from
        a fraction of the points.  Anything else raises
        :class:`~repro.errors.SweepError`.
    cache_dir:
        Opt-in root for the persistent cross-process result cache
        (:mod:`repro.core.diskcache`); the memo cache then reads through
        to disk on misses and writes through on stores.  ``None``
        (default) means no disk tier.

    The memo cache and the planner's hint and stash memories are LRUs of
    :data:`DEFAULT_CACHE_SIZE` entries each; the batch kernels' table
    holders are an LRU of :data:`TABLE_CACHE_SIZE`.

    Faults are armed process-wide, never per engine: under a non-empty
    plan armed with :func:`repro.faults.injector.use_faults` (the CLI
    arms it from ``REPRO_FAULTS``), each miss passes the worker-fault
    schedule with deterministic resubmission before the kernel gather;
    results are bit-identical to the clean run or
    :class:`~repro.errors.WorkerRetryExhaustedError` is raised after the
    plan's ``max_attempts`` failed attempts at one point.
    """

    def __init__(
        self,
        n_jobs: int | None = None,
        *,
        backend: str = "thread",
        batch: bool = True,
        mode: str = "full",
        cache_dir: str | Path | None = None,
    ) -> None:
        if n_jobs not in (None, 1) or backend != "thread" or batch is not True:
            raise SweepError(
                "sweeps resolve in the calling thread through the batch kernel: "
                "n_jobs must be 1, backend 'thread' and batch True, got "
                f"n_jobs={n_jobs!r}, backend={backend!r}, batch={batch!r}"
            )
        if mode not in SWEEP_MODES:
            raise SweepError(
                f"sweep mode must be one of {SWEEP_MODES}, got {mode!r}"
            )
        self.mode = mode
        self.disk_cache = (
            DiskCache(Path(cache_dir).expanduser()) if cache_dir is not None else None
        )
        self.cache = MemoCache(backing=self.disk_cache)
        self.planner = PlannerState()
        self._tables = MemoCache(TABLE_CACHE_SIZE)

    # ------------------------------------------------------------------
    # cache keys
    # ------------------------------------------------------------------
    @staticmethod
    def _host_base(
        cpu: CpuDomain, dram: DramDomain, phases: Sequence[Phase]
    ) -> tuple[object, ...]:
        return ("host", fingerprint(cpu), fingerprint(dram), fingerprint(tuple(phases)))

    @staticmethod
    def _gpu_base(card: GpuCard, phases: Sequence[Phase]) -> tuple[object, ...]:
        return ("gpu", fingerprint(card), fingerprint(tuple(phases)))

    # ------------------------------------------------------------------
    # single points (memoized; used by the SJF scheduler's predictions)
    # ------------------------------------------------------------------
    def execute_host(
        self,
        cpu: CpuDomain,
        dram: DramDomain,
        phases: Sequence[Phase],
        proc_w: float,
        mem_w: float,
    ) -> ExecutionResult:
        """One memoized host point (never re-runs an identical point)."""
        executor = self._host_executor(
            cpu, dram, phases, [float(proc_w)], [float(mem_w)]
        )
        return executor.run([0])[0]

    # ------------------------------------------------------------------
    # whole grids (one pass over a fresh executor)
    # ------------------------------------------------------------------
    def map_host(
        self,
        cpu: CpuDomain,
        dram: DramDomain,
        phases: Sequence[Phase],
        allocations: Sequence[PowerAllocation],
    ) -> list[ExecutionResult]:
        """Results for all ``allocations``, in input order."""
        executor = self._host_executor(
            cpu, dram, phases,
            [float(a.proc_w) for a in allocations],
            [float(a.mem_w) for a in allocations],
        )
        return executor.run(range(len(allocations)))

    def map_gpu(
        self,
        card: GpuCard,
        phases: Sequence[Phase],
        cap_w: float,
        mem_freqs_mhz: Sequence[float],
    ) -> list[ExecutionResult]:
        """Results for all memory clocks under one board cap, in input order."""
        executor = self._gpu_executor(card, phases, cap_w, mem_freqs_mhz)
        return executor.run(range(len(mem_freqs_mhz)))

    # ------------------------------------------------------------------
    # sub-grids (prepared axes, resolved subset-by-subset)
    # ------------------------------------------------------------------
    def host_subgrid(
        self,
        cpu: CpuDomain,
        dram: DramDomain,
        phases: Sequence[Phase],
        proc_w: Sequence[float],
        mem_w: Sequence[float],
    ) -> SubgridExecutor:
        """A prepared executor over the host ``(proc_w, mem_w)`` axis.

        ``executor.run(rows)`` is bit-for-bit ``map_host`` restricted to
        those rows, with the axis setup (cache keys, platform
        fingerprints, kernel candidate tables) paid once instead of per
        call — the entry point the adaptive planner batches its probe,
        certify, and walk-frontier requests through.  The axis arrives as
        the raw float columns of :func:`~repro.core.allocation
        .allocation_axis` so planned sweeps never pay to materialize
        allocation objects for points they skip.
        """
        return self._host_executor(
            cpu, dram, phases,
            [float(p) for p in proc_w], [float(m) for m in mem_w],
        )

    def gpu_subgrid(
        self,
        card: GpuCard,
        phases: Sequence[Phase],
        cap_w: float,
        mem_freqs_mhz: Sequence[float],
    ) -> SubgridExecutor:
        """A prepared executor over one GPU memory-clock axis (one cap)."""
        return self._gpu_executor(card, phases, cap_w, mem_freqs_mhz)

    # The public map_*/..._subgrid methods share these helpers rather
    # than calling each other, so a subclass that wraps the public entry
    # points sees each request exactly once.
    def _host_executor(
        self,
        cpu: CpuDomain,
        dram: DramDomain,
        phases: Sequence[Phase],
        proc: list[float],
        mem: list[float],
    ) -> SubgridExecutor:
        phases = tuple(phases)
        base = self._host_base(cpu, dram, phases)
        return SubgridExecutor(
            self,
            [base + pm for pm in zip(proc, mem)],
            lambda: HostBatchKernel(
                cast(HostTables, self._tables.get_or_compute(
                    base, lambda: HostTables(cpu, dram, phases)
                )),
                proc, mem,
            ),
        )

    def _gpu_executor(
        self,
        card: GpuCard,
        phases: Sequence[Phase],
        cap_w: float,
        mem_freqs_mhz: Sequence[float],
    ) -> SubgridExecutor:
        phases = tuple(phases)
        freqs = [float(f) for f in mem_freqs_mhz]
        device = self._gpu_base(card, phases)
        base = device + (float(cap_w),)
        return SubgridExecutor(
            self,
            [base + (f,) for f in freqs],
            lambda: GpuBatchKernel(
                cast(GpuTables, self._tables.get_or_compute(
                    device + tuple(freqs), lambda: GpuTables(card, phases, freqs)
                )),
                cap_w,
            ),
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Publish buffered disk-cache records (no-op without a disk tier)."""
        if self.disk_cache is not None:
            self.disk_cache.flush()

    @property
    def stats(self) -> CacheStats:
        """Counters of the engine's execution cache."""
        return self.cache.stats

    def stats_snapshot(self) -> dict[str, object]:
        """One JSON-ready snapshot of every observable engine counter.

        The cache and planner counters are each read under their own
        lock, so the snapshot is safe to take from any thread while
        sweeps are in flight (each sub-snapshot is internally
        consistent; the two are not mutually atomic, which no consumer
        needs).  This is the structure the coordination server's
        ``stats`` query and ``--stats-interval`` log line serialize.
        """
        cache = self.cache.stats
        planner = self.planner.stats
        return {
            "mode": self.mode,
            "disk_tier": self.disk_cache is not None,
            "cache": {
                "hits": cache.hits,
                "memo_hits": cache.memo_hits,
                "disk_hits": cache.disk_hits,
                "misses": cache.misses,
                "lookups": cache.lookups,
                "evictions": cache.evictions,
                "size": cache.size,
                "maxsize": cache.maxsize,
                "hit_ratio": cache.hit_ratio,
                "disk_hit_ratio": cache.disk_hit_ratio,
            },
            "planner": {
                "sweeps": planner.sweeps,
                "fallbacks": planner.fallbacks,
                "warm_starts": planner.warm_starts,
                "native_points": planner.native_points,
                "executed_points": planner.executed_points,
                "reused_points": planner.reused_points,
                "points_saved": planner.points_saved,
                "savings_ratio": planner.savings_ratio,
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepEngine(mode={self.mode!r}, cache={self.stats})"


# ---------------------------------------------------------------------------
# process-wide default engine
# ---------------------------------------------------------------------------

_DEFAULT_LOCK = threading.Lock()
_DEFAULT_ENGINE: SweepEngine | None = None


def default_engine() -> SweepEngine:
    """The process-wide engine sweeps use when none is passed explicitly.

    Created lazily as ``SweepEngine()`` (full sweeps, no disk tier); replace it with :func:`set_default_engine` or scope a
    replacement with :func:`use_engine`.
    """
    global _DEFAULT_ENGINE
    with _DEFAULT_LOCK:
        if _DEFAULT_ENGINE is None:
            _DEFAULT_ENGINE = SweepEngine()
        return _DEFAULT_ENGINE


def set_default_engine(engine: SweepEngine | None) -> SweepEngine | None:
    """Install ``engine`` as the process default; returns the previous one."""
    global _DEFAULT_ENGINE
    with _DEFAULT_LOCK:
        previous = _DEFAULT_ENGINE
        _DEFAULT_ENGINE = engine
        return previous


@contextmanager
def use_engine(engine: SweepEngine):
    """Scope ``engine`` as the default for a ``with`` block (tests, CLI)."""
    previous = set_default_engine(engine)
    try:
        yield engine
    finally:
        set_default_engine(previous)
