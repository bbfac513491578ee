"""The columnar trace: its columns, its validation, its file format, and
the generators' draw sequence.

* **Columns.**  :class:`~repro.sched.traces.Trace` validates each column
  once, compares job by job, slices into traces, and maps job ids to
  rows for both id layouts (``range`` and gapped 64-bit ids).
* **File format.**  Any valid hand-built trace survives
  ``write_trace``/``read_trace`` bit for bit, not only traces on the
  generators' 6-decimal grid.
* **Draw sequence.**  The generators fill the columns with an inlined
  ``random.Random.choice``.  A reference implementation kept here builds
  one object per job with ``rng.choice(list(...))``, the object-per-job
  draw loop the columns replaced, and every column must equal it bit
  for bit over several seeds and 1-6 workloads or budget levels (so the
  rejection step of ``choice`` runs).
"""

from __future__ import annotations

import math
import random
from array import array

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sched.traces import (
    Trace,
    TraceJob,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
    read_trace,
    write_trace,
)

from tests.conftest import property_settings

# ---------------------------------------------------------------------------
# the reference draw loop
# ---------------------------------------------------------------------------


def _reference_jobs(times, rng, workloads, budget_levels):
    """One ``(id, workload, budget, time)`` per job, drawn with
    ``rng.choice`` on fresh lists, workload before budget."""
    return [
        (job_id,
         rng.choice(list(workloads)),
         round(float(rng.choice(list(budget_levels))), 6),
         round(t, 6))
        for job_id, t in enumerate(times)
    ]


def _reference_poisson(n_jobs, rate_per_s, seed, workloads, budget_levels):
    rng = random.Random(seed)
    times = []
    t = 0.0
    for _ in range(n_jobs):
        t += rng.expovariate(rate_per_s)
        times.append(t)
    return _reference_jobs(times, rng, workloads, budget_levels)


def _reference_bursty(n_jobs, burst_size, gap_s, seed, workloads, budget_levels,
                      spread_s=1.0):
    rng = random.Random(seed)
    times = []
    burst_start = 0.0
    while len(times) < n_jobs:
        burst_start += rng.expovariate(1.0 / gap_s)
        count = rng.randint(1, 2 * burst_size)
        for _ in range(min(count, n_jobs - len(times))):
            times.append(burst_start + rng.uniform(0.0, spread_s))
    times.sort()
    return _reference_jobs(times, rng, workloads, budget_levels)


def _reference_diurnal(n_jobs, base_rate_per_s, peak_rate_per_s, period_s, seed,
                       workloads, budget_levels):
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
    return _reference_jobs(times, rng, workloads, budget_levels)


_GENERATORS = {
    "poisson": (poisson_trace, _reference_poisson,
                dict(n_jobs=300, rate_per_s=3.0)),
    "bursty": (bursty_trace, _reference_bursty,
               dict(n_jobs=300, burst_size=5, gap_s=4.0)),
    "diurnal": (diurnal_trace, _reference_diurnal,
                dict(n_jobs=300, base_rate_per_s=0.5, peak_rate_per_s=4.0,
                     period_s=90.0)),
}
_WORKLOAD_POOL = ("ft", "mg", "cg", "bt", "lu", "sp")
#: Off-grid levels too, so budgets go through the 6-decimal rounding.
_LEVEL_POOL = (80.0, 120.5, 160.25, 200.0, 260.0000004, 95.1234567)


def _assert_columns_equal(trace, reference):
    ids, workloads, budgets, times = zip(*reference)
    assert list(trace.job_ids) == list(ids)
    assert list(trace.workloads()) == list(workloads)
    # Bit for bit, not just ==.
    assert trace.budgets_w.tobytes() == array("d", budgets).tobytes()
    assert trace.submit_times_s.tobytes() == array("d", times).tobytes()


class TestDrawSequence:
    @pytest.mark.parametrize("kind", sorted(_GENERATORS))
    @pytest.mark.parametrize("seed", [0, 7, 2016, 2**32 - 1])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_columns_match_the_reference(self, kind, seed, k):
        generate, reference, kw = _GENERATORS[kind]
        workloads, levels = _WORKLOAD_POOL[:k], _LEVEL_POOL[:7 - k]
        trace = generate(seed=seed, workloads=workloads, budget_levels=levels, **kw)
        _assert_columns_equal(
            trace, reference(seed=seed, workloads=workloads, budget_levels=levels, **kw)
        )

    @pytest.mark.parametrize("kind", sorted(_GENERATORS))
    def test_repeated_workloads_weigh_the_draw(self, kind):
        # A workload listed twice is drawn twice as often; the trace
        # stores each name once.
        generate, reference, kw = _GENERATORS[kind]
        workloads = ("ft", "mg", "ft", "cg", "ft")
        levels = (120.0, 120.0, 200.0)
        trace = generate(seed=11, workloads=workloads, budget_levels=levels, **kw)
        assert trace.workload_names == ("ft", "mg", "cg")
        _assert_columns_equal(
            trace, reference(seed=11, workloads=workloads, budget_levels=levels, **kw)
        )

    def test_generated_ids_are_a_range(self):
        trace = poisson_trace(n_jobs=50, rate_per_s=2.0, seed=1)
        assert trace.job_ids == range(50)
        assert trace.in_arrival_order() is trace


# ---------------------------------------------------------------------------
# the columns
# ---------------------------------------------------------------------------

_JOBS = [
    TraceJob(job_id=10, workload="ft", budget_w=120.0, submit_time_s=3.0),
    TraceJob(job_id=4, workload="mg", budget_w=80.5, submit_time_s=1.0),
    TraceJob(job_id=7, workload="ft", budget_w=200.0, submit_time_s=1.0),
    TraceJob(job_id=2, workload="cg", budget_w=160.0, submit_time_s=0.0),
]


def _columns(**override):
    columns = dict(job_ids=[0, 1], workload_names=("ft", "mg"),
                   workload_index=[0, 1], budgets_w=[100.0, 120.0],
                   submit_times_s=[0.0, 1.0])
    columns.update(override)
    return columns


class TestTraceColumns:
    def test_rows_round_trip_through_the_columns(self):
        trace = Trace.from_jobs(_JOBS)
        assert len(trace) == 4
        assert list(trace) == _JOBS
        assert [trace[i] for i in range(4)] == _JOBS
        assert trace[-1] == _JOBS[-1]
        assert trace.workload_names == ("ft", "mg", "cg")
        assert list(trace.workload_index) == [0, 1, 0, 2]
        assert Trace.from_jobs(trace) is trace

    def test_slices_are_traces(self):
        trace = Trace.from_jobs(_JOBS)
        assert trace[1:3] == Trace.from_jobs(_JOBS[1:3])
        assert list(trace[::-1]) == _JOBS[::-1]

    def test_equality_is_job_by_job(self):
        trace = Trace.from_jobs(_JOBS)
        # Same jobs, names interned in another order.
        renamed = Trace(job_ids=[10, 4, 7, 2], workload_names=("cg", "ft", "mg"),
                        workload_index=[1, 2, 1, 0],
                        budgets_w=[120.0, 80.5, 200.0, 160.0],
                        submit_times_s=[3.0, 1.0, 1.0, 0.0])
        assert renamed == trace
        assert Trace.from_jobs(_JOBS[::-1]) != trace
        assert trace != tuple(_JOBS)

    def test_row_of_maps_ids_to_rows(self):
        gapped = Trace.from_jobs(_JOBS)
        assert [gapped.row_of(j.job_id) for j in _JOBS] == [0, 1, 2, 3]
        dense = poisson_trace(n_jobs=5, rate_per_s=1.0, seed=3)
        assert [dense.row_of(i) for i in range(5)] == [0, 1, 2, 3, 4]
        for trace, unknown in ((gapped, 3), (dense, 5), (dense, -1)):
            with pytest.raises(KeyError):
                trace.row_of(unknown)

    def test_dense_ids_become_a_range(self):
        trace = Trace(**_columns(job_ids=array("q", [0, 1])))
        assert trace.job_ids == range(2)

    def test_arrival_order_sorts_by_time_then_id(self):
        ordered = Trace.from_jobs(_JOBS).in_arrival_order()
        assert [j.job_id for j in ordered] == [2, 4, 7, 10]
        assert ordered.in_arrival_order() is ordered
        assert sorted(Trace.from_jobs(_JOBS), key=lambda j: (j.submit_time_s, j.job_id)) \
            == list(ordered)

    def test_columns_are_read_only(self):
        trace = Trace(**_columns())
        with pytest.raises(TypeError):
            trace.budgets_w[0] = -1.0

    @pytest.mark.parametrize("override, match", [
        (dict(budgets_w=[100.0, 0.0]), "budget_w"),
        (dict(budgets_w=[math.nan, 120.0]), "budget_w"),
        (dict(budgets_w=[100.0, math.inf]), "budget_w"),
        (dict(submit_times_s=[-1e-9, 1.0]), "submit_time_s"),
        (dict(submit_times_s=[0.0, math.nan]), "submit_time_s"),
        (dict(submit_times_s=[0.0, math.inf]), "submit_time_s"),
        (dict(job_ids=[3, 3]), "duplicate job id 3"),
        (dict(job_ids=[2**63, 0]), "bad trace column"),
        (dict(workload_names=("ft", "")), "empty workload name"),
        (dict(workload_names=("ft", "ft")), "duplicate workload names"),
        (dict(workload_index=[0, 2]), "out of range"),
        (dict(workload_index=[0, -1]), "bad trace column"),
        (dict(budgets_w=[100.0]), "differ in length"),
    ])
    def test_rejects_invalid_columns(self, override, match):
        with pytest.raises(ConfigurationError, match=match):
            Trace(**_columns(**override))

    def test_generators_validate_drawn_budgets(self):
        with pytest.raises(ConfigurationError, match="budget_w"):
            poisson_trace(n_jobs=20, rate_per_s=1.0, seed=1,
                          budget_levels=(0.0,))
        with pytest.raises(ConfigurationError, match="empty workload"):
            poisson_trace(n_jobs=20, rate_per_s=1.0, seed=1, workloads=("",))


# ---------------------------------------------------------------------------
# the file format
# ---------------------------------------------------------------------------

_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                      allow_infinity=False)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def hand_built_jobs(draw) -> list[TraceJob]:
    """Any valid trace: unique 64-bit ids, registry-style names, and
    arbitrary finite budgets and times."""
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n,
                        unique=True))
    return [
        TraceJob(job_id=job_id,
                 workload=draw(st.sampled_from(("ft", "mg", "cg", "bt"))),
                 budget_w=draw(_POSITIVE), submit_time_s=draw(_NON_NEGATIVE))
        for job_id in ids
    ]


class TestTraceFile:
    @property_settings(25)
    @example(jobs=[
        TraceJob(job_id=0, workload="ft", budget_w=1e-7, submit_time_s=0.0),
        TraceJob(job_id=1, workload="mg", budget_w=100.0000004,
                 submit_time_s=2.5000001),
    ])
    @given(jobs=hand_built_jobs())
    def test_hand_built_traces_round_trip(self, jobs, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "t.trace"
        write_trace(path, jobs)
        assert list(read_trace(path)) == jobs

    def test_grid_values_keep_six_decimals(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, [TraceJob(job_id=0, workload="ft", budget_w=120.0,
                                    submit_time_s=1.5),
                           TraceJob(job_id=1, workload="ft", budget_w=1e-7,
                                    submit_time_s=0.1234567)])
        assert path.read_text().splitlines()[2:] == [
            "0,ft,120.000000,1.500000",
            "1,ft,1e-07,0.1234567",
        ]

    @pytest.mark.parametrize("name", ["f,t", "ft\n", " ft", "f\rt"])
    def test_rejects_names_the_format_cannot_hold(self, name, tmp_path):
        job = TraceJob(job_id=0, workload=name, budget_w=120.0, submit_time_s=0.0)
        with pytest.raises(ConfigurationError, match="cannot be written"):
            write_trace(tmp_path / "t.trace", [job])

    def test_read_errors_name_the_file(self, tmp_path):
        path = tmp_path / "dup.trace"
        path.write_text("# repro-trace v1\n1,ft,100.0,0.0\n1,mg,100.0,1.0\n")
        with pytest.raises(ConfigurationError, match="dup.trace: duplicate job id 1"):
            read_trace(path)
