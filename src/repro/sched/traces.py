"""Seeded synthetic arrival traces for the fleet simulator.

Three generators cover the arrival regimes cluster power managers are
evaluated against:

* :func:`poisson_trace` — memoryless arrivals at a constant rate (the
  steady-state baseline);
* :func:`bursty_trace` — tight bursts separated by exponential gaps
  (campaign submissions, workflow fan-outs);
* :func:`diurnal_trace` — a sinusoidally modulated rate with a fixed
  period, sampled by thinning (day/night load swings).

Every generator is a pure function of its arguments: the same seed
replays the identical trace, which the property battery in
``tests/test_fleet.py`` pins.  Budgets are drawn from a small set of
discrete levels rather than a continuum — real users ask for round
numbers, and the fleet's allocation rounds stay cache-friendly when the
distinct (workload, budget) space is small.

A trace is columnar: :class:`Trace` holds the job ids, ``array('d')``
columns of submit times and budgets, and the distinct workload names
with a per-job index column, validated once when it is built.  It is a
``Sequence[TraceJob]``, so indexing and iteration still give one
:class:`TraceJob` per job; a million-job trace, though, is four flat
columns rather than a million objects.  The generators fill the columns
directly and :func:`read_trace` parses into them; hand-built lists of
:class:`TraceJob` convert with :meth:`Trace.from_jobs`.

The on-disk format is line-oriented and versioned::

    # repro-trace v1
    job_id,workload,budget_w,submit_time_s

:func:`write_trace`/:func:`read_trace` round-trip bit-for-bit.  Times
and budgets on the 6-decimal grid (everything the generators produce,
since they round to it) are written with 6 decimal places; any other
value is written as its shortest ``repr``, which parses back to the
same float.
"""

from __future__ import annotations

import math
import operator
import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union, overload

from repro.errors import ConfigurationError

__all__ = [
    "Trace",
    "TraceJob",
    "bursty_trace",
    "diurnal_trace",
    "poisson_trace",
    "read_trace",
    "write_trace",
]

#: Format marker written as the first line of every trace file.
TRACE_HEADER = "# repro-trace v1"

#: Default workload mix: one memory-bound, one balanced, one compute-bound
#: application from the CPU suite, so traces exercise distinct COORD
#: splits without enumerating the whole registry.
DEFAULT_WORKLOADS: tuple[str, ...] = ("ft", "mg", "cg")

#: Default requested-budget levels (per node, watts).
DEFAULT_BUDGET_LEVELS: tuple[float, ...] = (80.0, 120.0, 160.0, 200.0, 260.0)


def _valid_budget(budget_w: float) -> bool:
    return 0.0 < budget_w < math.inf  # NaN fails both sides


def _valid_time(time_s: float) -> bool:
    return 0.0 <= time_s < math.inf


def _budget_error(job_id: int, budget_w: float) -> ConfigurationError:
    return ConfigurationError(
        f"job {job_id}: budget_w must be finite and > 0, got {budget_w!r}"
    )


def _time_error(job_id: int, time_s: float) -> ConfigurationError:
    return ConfigurationError(
        f"job {job_id}: submit_time_s must be finite and >= 0, got {time_s!r}"
    )


@dataclass(frozen=True)
class TraceJob:
    """One arrival in a fleet trace: a row of a :class:`Trace`, and the
    input type of hand-built traces.

    Deliberately lighter than :class:`~repro.sched.job.Job`: the
    workload is a registry *name* (resolved once by the simulator, not
    per job) and there is no multi-node field — the fleet schedules
    single-node jobs, matching the paper's per-node COORD granularity.
    """

    job_id: int
    workload: str
    budget_w: float
    submit_time_s: float

    def __post_init__(self) -> None:
        if not self.workload:
            raise ConfigurationError(f"job {self.job_id}: empty workload name")
        if not _valid_budget(self.budget_w):
            raise _budget_error(self.job_id, self.budget_w)
        if not _valid_time(self.submit_time_s):
            raise _time_error(self.job_id, self.submit_time_s)


class Trace(Sequence[TraceJob]):
    """A columnar arrival trace; row ``i`` is job ``job_ids[i]``.

    Columns (all read-only, one entry per job):

    * ``job_ids`` — ``range(n)`` when the ids are ``0..n-1`` in row
      order (every generated trace), else 64-bit ints;
    * ``submit_times_s`` and ``budgets_w`` — ``array('d')`` columns;
    * ``workload_index`` — each job's index into ``workload_names``, the
      tuple of distinct workload names.

    The constructor copies and validates every column once: finite
    times >= 0, finite budgets > 0, non-empty distinct names, in-range
    indices and unique ids.  Two traces are equal when every job's
    id, workload name, budget and submit time are.
    """

    __slots__ = ("job_ids", "submit_times_s", "budgets_w", "workload_names",
                 "workload_index", "_rows")

    job_ids: Union[range, memoryview]
    submit_times_s: memoryview
    budgets_w: memoryview
    workload_names: tuple[str, ...]
    workload_index: memoryview

    def __init__(
        self,
        *,
        job_ids: Iterable[int],
        workload_names: Iterable[str],
        workload_index: Iterable[int],
        budgets_w: Iterable[float],
        submit_times_s: Iterable[float],
    ) -> None:
        names = tuple(workload_names)
        try:
            ids = _id_column(job_ids)
            index = array("B" if len(names) <= 256 else "I", workload_index)
            budgets = array("d", budgets_w)
            times = array("d", submit_times_s)
        except (OverflowError, TypeError) as exc:
            raise ConfigurationError(f"bad trace column: {exc}") from exc
        n = len(ids)
        if not len(index) == len(budgets) == len(times) == n:
            raise ConfigurationError(
                f"trace columns differ in length: {n} ids, {len(index)} "
                f"workload indices, {len(budgets)} budgets, {len(times)} times"
            )
        if not all(isinstance(name, str) and name for name in names):
            raise ConfigurationError(f"empty workload name in {names!r}")
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate workload names in {names!r}")
        if n and max(index) >= len(names):
            raise ConfigurationError(
                f"workload index {max(index)} out of range for {len(names)} names"
            )
        inf = math.inf
        if not all(0.0 < b < inf for b in budgets):
            row = next(r for r, b in enumerate(budgets) if not _valid_budget(b))
            raise _budget_error(ids[row], budgets[row])
        if not all(0.0 <= t < inf for t in times):
            row = next(r for r, t in enumerate(times) if not _valid_time(t))
            raise _time_error(ids[row], times[row])
        if not isinstance(ids, range) and not _increasing(ids):
            seen: set[int] = set()
            for job_id in ids:
                if job_id in seen:
                    raise ConfigurationError(f"duplicate job id {job_id} in trace")
                seen.add(job_id)
        self.job_ids = ids
        self.submit_times_s = memoryview(times).toreadonly()
        self.budgets_w = memoryview(budgets).toreadonly()
        self.workload_names = names
        self.workload_index = memoryview(index).toreadonly()
        self._rows: Optional[dict[int, int]] = None

    @classmethod
    def from_jobs(cls, jobs: Iterable[TraceJob]) -> Trace:
        """The trace of ``jobs`` in the given order; a :class:`Trace` is
        returned as is."""
        if isinstance(jobs, Trace):
            return jobs
        names: dict[str, int] = {}
        ids: list[int] = []
        index: list[int] = []
        budgets = array("d")
        times = array("d")
        for job in jobs:
            ids.append(job.job_id)
            index.append(names.setdefault(job.workload, len(names)))
            budgets.append(job.budget_w)
            times.append(job.submit_time_s)
        return cls(job_ids=ids, workload_names=names, workload_index=index,
                   budgets_w=budgets, submit_times_s=times)

    def __len__(self) -> int:
        return len(self.job_ids)

    @overload
    def __getitem__(self, index: int) -> TraceJob: ...

    @overload
    def __getitem__(self, index: slice) -> Trace: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[TraceJob, Trace]:
        if isinstance(index, slice):
            return Trace(
                job_ids=self.job_ids[index],
                workload_names=self.workload_names,
                workload_index=self.workload_index[index],
                budgets_w=self.budgets_w[index],
                submit_times_s=self.submit_times_s[index],
            )
        return TraceJob(
            self.job_ids[index],
            self.workload_names[self.workload_index[index]],
            self.budgets_w[index],
            self.submit_times_s[index],
        )

    def __iter__(self) -> Iterator[TraceJob]:
        return map(TraceJob, self.job_ids, self.workloads(), self.budgets_w,
                   self.submit_times_s)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        if len(self) != len(other):
            return False
        if self.workload_names == other.workload_names:
            same_workloads = self.workload_index == other.workload_index
        else:
            same_workloads = all(map(operator.eq, self.workloads(),
                                     other.workloads()))
        return (same_workloads
                and self.job_ids == other.job_ids
                and self.budgets_w == other.budgets_w  # repro-lint: disable=RPL003 -- equal traces hold the same floats
                and self.submit_times_s == other.submit_times_s)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Trace({len(self)} jobs, workloads={self.workload_names!r})"

    def workloads(self) -> Iterator[str]:
        """Each job's workload name, in row order."""
        names = self.workload_names
        return (names[index] for index in self.workload_index)

    def row_of(self, job_id: int) -> int:
        """The row holding ``job_id``; raises ``KeyError`` for an unknown id."""
        if self._rows is None:
            if isinstance(self.job_ids, range):
                if job_id in self.job_ids:
                    return int(job_id)
                raise KeyError(job_id)
            self._rows = dict(zip(self.job_ids, range(len(self))))
        return self._rows[job_id]

    def in_arrival_order(self) -> Trace:
        """This trace with its rows sorted by submit time, then job id —
        the order jobs reach a scheduler.  Returns ``self`` when the rows
        are already in that order."""
        times, ids = self.submit_times_s, self.job_ids
        if all(map(operator.le, times, times[1:])) and (
            isinstance(ids, range) or _increasing(ids)
        ):
            return self
        order = sorted(range(len(self)), key=lambda r: (times[r], ids[r]))
        return Trace(
            job_ids=[ids[r] for r in order],
            workload_names=self.workload_names,
            workload_index=[self.workload_index[r] for r in order],
            budgets_w=[self.budgets_w[r] for r in order],
            submit_times_s=[times[r] for r in order],
        )


def _increasing(values: memoryview) -> bool:
    """Whether ``values`` is strictly increasing."""
    return all(map(operator.lt, values, values[1:]))


def _id_column(job_ids: Iterable[int]) -> Union[range, memoryview]:
    """``range(n)`` for the ids ``0..n-1`` in order, else a read-only
    64-bit column."""
    if isinstance(job_ids, range) and job_ids.start == 0 and job_ids.step == 1:
        return job_ids
    ids = array("q", job_ids)
    if all(map(operator.eq, ids, range(len(ids)))):
        return range(len(ids))
    return memoryview(ids).toreadonly()


#: Decimal places of the grid the generators snap times and budgets to.
_GRID_DECIMALS = 6


def _round_grid(value: float) -> float:
    """Snap to the 6-decimal grid the file format writes as is."""
    return round(value, _GRID_DECIMALS)


def _draw_jobs(
    arrival_times: Sequence[float],
    rng: random.Random,
    workloads: Sequence[str],
    budget_levels: Sequence[float],
) -> Trace:
    """The trace at ``arrival_times``, each job's workload and budget
    drawn in turn exactly as ``rng.choice(workloads)`` then
    ``rng.choice(budget_levels)`` would draw them."""
    if not workloads:
        raise ConfigurationError("workloads must be a non-empty sequence")
    if not budget_levels:
        raise ConfigurationError("budget_levels must be a non-empty sequence")
    names = tuple(dict.fromkeys(workloads))
    picks = [names.index(name) for name in workloads]
    levels = [_round_grid(float(b)) for b in budget_levels]
    n_picks, n_levels = len(picks), len(levels)
    k_picks, k_levels = n_picks.bit_length(), n_levels.bit_length()
    getrandbits = rng.getrandbits
    index: list[int] = []
    budgets: list[float] = []
    for _ in range(len(arrival_times)):
        # random.Random.choice's draw, inlined: n.bit_length()-bit words
        # are rejected until one falls below n.  It mirrors CPython's
        # private _randbelow, so tests/test_traces.py pins every column
        # against a reference that calls rng.choice itself.
        r = getrandbits(k_picks)
        while r >= n_picks:
            r = getrandbits(k_picks)
        index.append(picks[r])
        r = getrandbits(k_levels)
        while r >= n_levels:
            r = getrandbits(k_levels)
        budgets.append(levels[r])
    return Trace(
        job_ids=range(len(arrival_times)),
        workload_names=names,
        workload_index=index,
        budgets_w=budgets,
        submit_times_s=map(round, arrival_times, repeat(_GRID_DECIMALS)),
    )


def _check_n_jobs(n_jobs: int) -> None:
    if n_jobs <= 0:
        raise ConfigurationError(f"n_jobs must be > 0, got {n_jobs}")


def poisson_trace(
    *,
    n_jobs: int,
    rate_per_s: float,
    seed: int,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    budget_levels: Sequence[float] = DEFAULT_BUDGET_LEVELS,
) -> Trace:
    """Memoryless arrivals: exponential inter-arrival times at a fixed rate."""
    _check_n_jobs(n_jobs)
    if not rate_per_s > 0.0:
        raise ConfigurationError(f"rate_per_s must be > 0, got {rate_per_s}")
    rng = random.Random(seed)
    expovariate = rng.expovariate
    times = []
    t = 0.0
    for _ in range(n_jobs):
        t += expovariate(rate_per_s)
        times.append(t)
    return _draw_jobs(times, rng, workloads, budget_levels)


def bursty_trace(
    *,
    n_jobs: int,
    burst_size: int,
    gap_s: float,
    seed: int,
    spread_s: float = 1.0,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    budget_levels: Sequence[float] = DEFAULT_BUDGET_LEVELS,
) -> Trace:
    """Bursts of ~``burst_size`` jobs separated by exponential gaps.

    Each burst lands within ``spread_s`` seconds (jobs inside a burst are
    near-simultaneous), and burst starts are a Poisson process with mean
    spacing ``gap_s`` — the campaign-submission pattern that stresses
    admission ordering and power headroom hardest.
    """
    _check_n_jobs(n_jobs)
    if burst_size <= 0:
        raise ConfigurationError(f"burst_size must be > 0, got {burst_size}")
    if not gap_s > 0.0 or spread_s < 0.0:
        raise ConfigurationError(
            f"gap_s must be > 0 and spread_s >= 0, got {gap_s}, {spread_s}"
        )
    rng = random.Random(seed)
    times: list[float] = []
    burst_start = 0.0
    while len(times) < n_jobs:
        burst_start += rng.expovariate(1.0 / gap_s)
        # 1..2*burst_size jobs per burst, mean ~ burst_size.
        count = rng.randint(1, 2 * burst_size)
        for _ in range(min(count, n_jobs - len(times))):
            times.append(burst_start + rng.uniform(0.0, spread_s))
    times.sort()
    return _draw_jobs(times, rng, workloads, budget_levels)


def diurnal_trace(
    *,
    n_jobs: int,
    base_rate_per_s: float,
    peak_rate_per_s: float,
    period_s: float,
    seed: int,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    budget_levels: Sequence[float] = DEFAULT_BUDGET_LEVELS,
) -> Trace:
    """Sinusoidally modulated arrivals sampled by thinning.

    The instantaneous rate swings between ``base_rate_per_s`` and
    ``peak_rate_per_s`` with period ``period_s``; candidate arrivals are
    drawn at the peak rate and accepted with probability rate(t)/peak
    (Lewis-Shedler thinning), so the accepted process has exactly the
    modulated intensity.
    """
    _check_n_jobs(n_jobs)
    if not 0.0 < base_rate_per_s <= peak_rate_per_s:
        raise ConfigurationError(
            f"need 0 < base_rate_per_s <= peak_rate_per_s, got "
            f"{base_rate_per_s}, {peak_rate_per_s}"
        )
    if not period_s > 0.0:
        raise ConfigurationError(f"period_s must be > 0, got {period_s}")
    rng = random.Random(seed)
    mid = (base_rate_per_s + peak_rate_per_s) / 2.0
    amplitude = (peak_rate_per_s - base_rate_per_s) / 2.0
    times = []
    t = 0.0
    while len(times) < n_jobs:
        t += rng.expovariate(peak_rate_per_s)
        rate = mid + amplitude * math.sin(2.0 * math.pi * t / period_s)
        if rng.random() * peak_rate_per_s <= rate:
            times.append(t)
    return _draw_jobs(times, rng, workloads, budget_levels)


# ---------------------------------------------------------------------------
# the trace file format
# ---------------------------------------------------------------------------

def _format_value(value: float) -> str:
    """6 decimal places when they read back as ``value``, else ``repr``."""
    text = f"{value:.6f}"
    return text if float(text) == value else repr(value)


def write_trace(path: Union[str, Path], jobs: Iterable[TraceJob]) -> Path:
    """Write a trace file; returns the path written.

    Raises :class:`ConfigurationError` for a workload name the format
    cannot hold (a comma, a line break, or surrounding whitespace).
    """
    trace = Trace.from_jobs(jobs)
    for name in trace.workload_names:
        if "," in name or name != name.strip() or len(name.splitlines()) != 1:
            raise ConfigurationError(
                f"workload name {name!r} cannot be written to a trace file"
            )
    out = Path(path)
    lines = [TRACE_HEADER, "# job_id,workload,budget_w,submit_time_s"]
    for job_id, workload, budget_w, time_s in zip(
        trace.job_ids, trace.workloads(), trace.budgets_w, trace.submit_times_s
    ):
        lines.append(f"{job_id},{workload},{_format_value(budget_w)},"
                     f"{_format_value(time_s)}")
    out.write_text("\n".join(lines) + "\n")
    return out


def read_trace(path: Union[str, Path]) -> Trace:
    """Parse a trace file; raises :class:`ConfigurationError` on bad input."""
    src = Path(path)
    try:
        text = src.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace {src}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise ConfigurationError(
            f"{src}: not a repro trace (missing '{TRACE_HEADER}' header)"
        )
    names: dict[str, int] = {}
    ids = array("q")
    index: list[int] = []
    budgets = array("d")
    times = array("d")
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ConfigurationError(
                f"{src}:{lineno}: expected 4 comma-separated fields, "
                f"got {len(parts)}"
            )
        try:
            ids.append(int(parts[0]))
            budgets.append(float(parts[2]))
            times.append(float(parts[3]))
        except (ValueError, OverflowError) as exc:
            raise ConfigurationError(f"{src}:{lineno}: {exc}") from exc
        index.append(names.setdefault(parts[1].strip(), len(names)))
    try:
        return Trace(job_ids=ids, workload_names=names, workload_index=index,
                     budgets_w=budgets, submit_times_s=times)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{src}: {exc}") from exc
