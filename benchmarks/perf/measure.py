"""Metric tables, summary statistics and span tracing for the benchmark.

Everything here measures the program from the outside: spans are opened
by the benchmark around calls into public entry points (a
``SweepEngine`` subclass owned by the benchmark, observer callbacks,
instance-level wrappers), never inside ``src/``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

WORKLOADS = ("sweeps-full", "sweeps-adaptive", "fleet-pressure", "serve-mixed")

#: Engine settings every library workload passes explicitly, sized for the
#: 2-core reference host (with ``mode`` and ``cache_dir`` per workload).
ENGINE_FLAGS = {"n_jobs": 1, "backend": "thread", "batch": True}

#: End-to-end metrics: name -> (unit, better, regression bound as a share
#: of the parent's median).  Every workload reports every one of them;
#: README.md says what each means on each workload, and which measured
#: quantities are printed only because their spread is wider than 10%.
#: ``setup_s`` is a median of a few fresh-process probes, whose spread is
#: wider than that of the timed units, so it has the wider bound.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "cold_s": ("s", "lower", 0.10),
    "warm_s": ("s", "lower", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

_BATCHER = {
    "flushes": ("count", "lower"),
    "flushes_timeout": ("count", "lower"),
    "flushes_depth": ("count", "higher"),
    "prefetch_passes": ("count", "lower"),
    "mean_occupancy": ("req", "higher"),
    "dedup_ratio": ("ratio", "higher"),
}

#: Per-layer metrics (``--trace``): name -> (unit, better).  Times are per
#: traced unit of work and cover every workload; counts name the module
#: whose public stats object or wrapped boundary produced them (0 where
#: the workload does not reach that module).  "higher" marks useful
#: outcomes (hits, reuse, batching), "lower" work and waste.
PER_LAYER: dict[str, tuple[str, str]] = {
    "trace.wall_s": ("s", "lower"),
    "trace.slowdown": ("x", "lower"),
    "engine.busy_s": ("s", "lower"),
    "caller.self_s": ("s", "lower"),
    "outside_s": ("s", "lower"),
    "engine.lookups": ("count", "lower"),
    "engine.hits": ("count", "higher"),
    "engine.misses": ("count", "lower"),
    "engine.evictions": ("count", "lower"),
    "engine.disk_hits": ("count", "higher"),
    "engine.map_host.calls": ("count", "lower"),
    "engine.map_gpu.calls": ("count", "lower"),
    "engine.subgrid.calls": ("count", "lower"),
    "engine.subgrid.rows": ("count", "lower"),
    "kernel.passes": ("count", "lower"),
    "kernel.rows": ("count", "lower"),
    "planner.sweeps": ("count", "lower"),
    "planner.executed_points": ("count", "lower"),
    "planner.reused_points": ("count", "higher"),
    "planner.fallbacks": ("count", "lower"),
    "planner.warm_starts": ("count", "higher"),
    "disk.stores": ("count", "lower"),
    "disk.flushes": ("count", "lower"),
    "disk.records_loaded": ("count", "lower"),
    "fleet.events": ("count", "lower"),
    "fleet.rounds": ("count", "lower"),
    "fleet.resplits": ("count", "lower"),
    "fleet.retimed": ("count", "lower"),
    "fleet.missed_budget": ("count", "lower"),
    **{
        f"batcher.{name}.{step}": spec
        for step in ("r150", "r450")
        for name, spec in _BATCHER.items()
    },
    "service.resolve.calls": ("count", "lower"),
    "service.profile_hit_ratio": ("ratio", "higher"),
    "server.frames": ("count", "lower"),
    "server.protocol_errors": ("count", "lower"),
    "codec.reply_bytes": ("B", "lower"),
}

#: Span names grouped into the per-layer time split.
ENGINE_SPANS = frozenset({"engine.map_host", "engine.map_gpu", "engine.subgrid"})
CALLER_SPANS = frozenset(
    {"sweep", "planner", "disk.flush", "fleet.run", "service.resolve",
     "service.prefetch"}
)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(samples: Sequence[float], q: float) -> float | None:
    """The ``q``-th percentile (linear interpolation between ranks).

    ``None`` unless at least ten samples lie beyond it, so a tail
    percentile is never read off a handful of points: p99 needs 1,000
    samples, p50 needs 20.
    """
    n = len(samples)
    if n == 0 or n * (100.0 - q) / 100.0 < 10:
        return None
    ordered = sorted(samples)
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(values: Sequence[float], unit: str) -> dict[str, Any]:
    """Median of repeats with its quartiles and count."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"value": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def point(value: float, unit: str, n: int = 1) -> dict[str, Any]:
    """A metric without a spread (a count, or a percentile of n samples)."""
    return {"value": value, "q1": None, "q3": None, "n": n, "unit": unit}


#: Fewest latency samples in one window (see :func:`latency_metrics`).
WINDOW = 500


def latency_metrics(units: Sequence[Sequence[float]]) -> dict[str, dict[str, Any]]:
    """Latency percentiles in ms from samples in seconds.

    ``units`` holds the samples of each unit of work, in time order.
    ``p50_ms`` and ``p90_ms`` are medians of repeats: consecutive units
    are merged into windows of at least ``WINDOW`` samples (a larger unit
    is a window of its own, a short tail joins the last window) and the
    percentile is taken in each.  A burst of host noise then moves a few
    windows, not the result.  ``p99_ms`` needs more samples than a window
    holds and is taken over all of them.  Each is omitted when too few
    samples support it.
    """
    windows: list[list[float]] = []
    current: list[float] = []
    for samples in units:
        current.extend(samples)
        if len(current) >= WINDOW:
            windows.append(sorted(current))
            current = []
    if current:
        windows.append(sorted(windows.pop() + current if windows else current))
    out = {}
    for name, q in (("p50_ms", 50.0), ("p90_ms", 90.0)):
        values = [percentile(w, q) for w in windows]
        if values and None not in values:
            out[name] = summarize([v * 1e3 for v in values], "ms")
    p99 = percentile(sorted(x for w in windows for x in w), 99.0)
    if p99 is not None:
        out["p99_ms"] = point(p99 * 1e3, "ms", sum(map(len, windows)))
    return out


class HostSpeed:
    """How much slower than its quiet self the host runs right now.

    The reference host is a 2-core virtual machine on a shared machine.
    Its speed drifts with the load of its neighbours: the same pass runs
    30-100% slower for spells of seconds to over a minute, often for a
    whole run.  A factor is the time of a fixed piece of work that never
    changes with this repository, over that work's time on the quiet
    reference host.  Dividing a timing by the factor measured around it
    gives the time the quiet reference host would have taken.  On
    another machine the factor also absorbs the machine's own speed.

    :meth:`factor` calibrates in-process work with dict stores and
    lookups plus small NumPy calls, the interpreter-bound mix the
    workloads run.  :meth:`spawn_factor` calibrates set-up: it starts a
    fresh interpreter that imports NumPy.  Process start and imports
    slow down less than interpreter-bound work does when the host is
    busy, so each kind of timing gets its own calibration.
    """

    #: The calibrations' times on the quiet reference host (their
    #: fastest runs over several minutes).
    REFERENCE_S = 0.0055
    SPAWN_REFERENCE_S = 0.13

    def __init__(self) -> None:
        import random

        import numpy as np

        rng = random.Random(0)
        self._keys = [(rng.random(), i) for i in range(20_000)]
        self._row = np.linspace(0.0, 1.0, 64)

    def factor(self) -> float:
        """In-process calibration time now over its quiet reference time."""
        import numpy as np

        start = time.perf_counter()
        table = {}
        for key in self._keys:
            table[key] = key[1]
        total = 0
        for key in self._keys:
            total += table[key]
        for _ in range(1000):
            np.maximum(self._row * 1.5, 0.3).sum()
        return (time.perf_counter() - start) / self.REFERENCE_S

    def spawn_factor(self) -> float:
        """Process-start calibration time now over its quiet reference time."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT,
                       env=child_env(), check=True)
        return (time.perf_counter() - start) / self.SPAWN_REFERENCE_S


def between(factors: Sequence[float]) -> list[float]:
    """The host factor of each unit timed between two consecutive
    :meth:`HostSpeed.factor` samples: the mean of the two."""
    return [(a + b) / 2.0 for a, b in zip(factors, factors[1:])]


def pieced(elapsed: Sequence[float], factors: Sequence[float]) -> float:
    """The host factor of a unit timed in pieces: piece ``i`` took
    ``elapsed[i]`` seconds between samples ``factors[i]`` and
    ``factors[i + 1]``."""
    quiet_s = sum(t / f for t, f in zip(elapsed, between(factors)))
    return sum(elapsed) / quiet_s


def peak_rss_mb(who: int) -> float:
    """Peak resident set of this process or its reaped children, in MB."""
    import resource

    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

#: One span: (name, start_s, end_s, parent index or -1, request id, rows).
#: ``rows`` is ``(requested, executed)`` on engine spans: the rows asked
#: for and the cache misses the batch kernel executed during the call.
Span = tuple[str, float, float, int, Any, Any]


class Tracer:
    """In-memory span recorder for one thread.

    ``open`` returns a handle for ``close``; the parent of a span is the
    innermost span still open when it starts.  Spans are collected per
    unit of work with :meth:`drain`, which must run with none open.
    """

    def __init__(self) -> None:
        self._spans: list[list[Any]] = []
        self._stack: list[int] = []

    def open(self, name: str, rid: Any = None) -> int:
        index = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([name, time.perf_counter(), 0.0, parent, rid, None])
        self._stack.append(index)
        return index

    def close(self, index: int, rows: Any = None) -> None:
        span = self._spans[index]
        span[2] = time.perf_counter()
        span[5] = rows
        self._stack.pop()

    def drain(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("drain() with spans still open")
        spans, self._spans = self._spans, []
        return [tuple(s) for s in spans]  # type: ignore[misc]


@contextmanager
def span(tracer: Tracer | None, name: str, rid: Any = None) -> Iterator[None]:
    """A span around the ``with`` body; nothing when ``tracer`` is None."""
    if tracer is None:
        yield
        return
    handle = tracer.open(name, rid)
    try:
        yield
    finally:
        tracer.close(handle)


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Self time per span name: duration minus the time of direct children.

    Children of one span never overlap (one thread), so subtracting the
    direct children's durations leaves exactly the part of the interval
    no child covers.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out: dict[str, float] = {}
    for span, inner in zip(spans, child_time):
        out[span[0]] = out.get(span[0], 0.0) + (span[2] - span[1]) - inner
    return out


def layer_split(spans: Sequence[Span], wall_s: float) -> dict[str, float]:
    """The per-layer time split of one traced unit of ``wall_s`` seconds.

    ``engine.busy_s`` is everything inside engine entry points,
    ``caller.self_s`` the self time of the library layer above them, and
    ``outside_s`` whatever no span covers (the benchmark loop; for the
    server, its event loop, batcher, sockets and the client).
    """
    selfs = self_times(spans)
    covered = sum(s[2] - s[1] for s in spans if s[3] < 0)
    return {
        "trace.wall_s": wall_s,
        "engine.busy_s": sum(v for k, v in selfs.items() if k in ENGINE_SPANS),
        "caller.self_s": sum(v for k, v in selfs.items() if k in CALLER_SPANS),
        "outside_s": wall_s - covered,
    }


def in_window(spans: Sequence[Span], start: float, end: float) -> list[Span]:
    """The span trees whose root lies inside ``[start, end]``, re-indexed."""
    kept: dict[int, int] = {}
    out: list[Span] = []
    for i, span in enumerate(spans):
        parent = span[3]
        if parent < 0:
            if not (start <= span[1] and span[2] <= end):
                continue
        elif parent not in kept:
            continue
        kept[i] = len(out)
        out.append(span[:3] + (kept.get(parent, -1),) + span[4:])
    return out


def span_counts(spans: Iterable[Span]) -> dict[str, int]:
    """Per-layer counts taken at the wrapped boundaries."""
    out = {"engine.map_host.calls": 0, "engine.map_gpu.calls": 0,
           "engine.subgrid.calls": 0, "engine.subgrid.rows": 0,
           "kernel.passes": 0, "kernel.rows": 0, "service.resolve.calls": 0}
    for name, _, _, _, _, rows in spans:
        if name in ENGINE_SPANS:
            out[name + ".calls"] += 1
            out["kernel.rows"] += rows[1]
            out["kernel.passes"] += rows[1] > 0
            if name == "engine.subgrid":
                out["engine.subgrid.rows"] += rows[0]
        elif name == "service.resolve":
            out["service.resolve.calls"] += 1
    return out


def make_engine(tracer: Tracer | None, mode: str, cache_dir: str | None = None):
    """A ``SweepEngine`` with the benchmark's explicit settings.

    With a ``tracer``, the engine's public entry points record spans:
    ``map_host``/``map_gpu`` and the ``run`` of every executor returned
    by ``host_subgrid``/``gpu_subgrid`` are wrapped, and each span carries
    the rows requested and the cache-miss delta across the call (the rows
    the batch kernel executed).
    """
    from repro.core.parallel import SweepEngine

    kwargs = dict(ENGINE_FLAGS, mode=mode, cache_dir=cache_dir)
    if tracer is None:
        return SweepEngine(**kwargs)

    class TracedSweepEngine(SweepEngine):
        def _traced(self, name: str, rows: int, fn: Callable[..., Any],
                    *args: Any) -> Any:
            misses = self.cache.stats.misses
            handle = tracer.open(name)
            try:
                return fn(*args)
            finally:
                tracer.close(handle, (rows, self.cache.stats.misses - misses))

        def map_host(self, cpu, dram, phases, allocations):  # type: ignore[override]
            return self._traced("engine.map_host", len(allocations),
                                super().map_host, cpu, dram, phases, allocations)

        def map_gpu(self, card, phases, cap_w, mem_freqs_mhz):  # type: ignore[override]
            return self._traced("engine.map_gpu", len(mem_freqs_mhz),
                                super().map_gpu, card, phases, cap_w, mem_freqs_mhz)

        def _wrap_executor(self, executor: Any) -> Any:
            run = executor.run

            def traced_run(indices):
                return self._traced("engine.subgrid", len(indices), run, indices)

            executor.run = traced_run
            return executor

        def host_subgrid(self, *args: Any, **kw: Any):  # type: ignore[override]
            return self._wrap_executor(super().host_subgrid(*args, **kw))

        def gpu_subgrid(self, *args: Any, **kw: Any):  # type: ignore[override]
            return self._wrap_executor(super().gpu_subgrid(*args, **kw))

    return TracedSweepEngine(**kwargs)


def engine_counts(engine: Any) -> dict[str, int]:
    """Per-layer counts from the engine's public stats objects."""
    cache = engine.stats
    planner = engine.planner.stats
    out = {
        "engine.lookups": cache.lookups,
        "engine.hits": cache.hits,
        "engine.misses": cache.misses,
        "engine.evictions": cache.evictions,
        "engine.disk_hits": cache.disk_hits,
        "planner.sweeps": planner.sweeps,
        "planner.executed_points": planner.executed_points,
        "planner.reused_points": planner.reused_points,
        "planner.fallbacks": planner.fallbacks,
        "planner.warm_starts": planner.warm_starts,
    }
    if engine.disk_cache is not None:
        disk = engine.disk_cache.stats
        out.update({
            "disk.stores": disk.stores,
            "disk.flushes": disk.flushes,
            "disk.records_loaded": disk.records_loaded,
        })
    return out


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    """The environment for every process the benchmark starts.

    ``REPRO_*`` knobs are cleared so every engine and serve setting comes
    from the explicit flags and arguments the benchmark passes.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn_until_ready(argv: list[str], marker: str):
    """Start ``argv``; return ``(process, line)`` once a stdout line
    contains ``marker``.  The caller owns the process.  A child that hangs
    is stopped by the runner's per-workload timeout."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    for line in proc.stdout:  # type: ignore[union-attr]
        if marker in line:
            return proc, line
    stop_process(proc)
    raise RuntimeError(f"{argv[1:3]} exited {proc.returncode} before it was ready")


def stop_process(proc: subprocess.Popen, timeout_s: float = 10.0) -> None:
    """Wait for ``proc`` to end, killing it if it does not within the timeout."""
    try:
        proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def probe_setup(workload: str, seed: int, quick: bool) -> float:
    """Spawn-to-ready seconds of one fresh process that sets ``workload`` up."""
    argv = [sys.executable, str(HERE / "run.py"), "--probe", workload,
            "--seed", str(seed)] + (["--quick"] if quick else [])
    start = time.perf_counter()
    proc, _ = spawn_until_ready(argv, "ready")
    seconds = time.perf_counter() - start
    stop_process(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe for {workload} exited {proc.returncode}")
    return seconds
