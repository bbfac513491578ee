"""Vectorized batch execution: resolve whole allocation grids in one pass.

The scalar executor (:mod:`repro.perfmodel.executor`) resolves one
``(P_cpu, P_mem)`` point at a time: enumerate a few dozen hardware states
fastest-first, take the first whose measured power fits, iterate the
CPU<->DRAM pair to a joint fixed point.  Every figure sweep repeats that
pure-Python loop hundreds of times, and PR 1's report shows thread fan-out
cannot hide it (the model is GIL-bound).

This module evaluates the *entire grid at once* with NumPy:

* the ``(n_points x n_candidates)`` power matrix is materialized and the
  governor's "first state that fits" becomes ``argmax`` over the boolean
  fit mask (``any`` over the mask distinguishes the FLOOR fallback, which
  by construction is the last candidate row);
* the CPU<->DRAM fixed point runs as whole-array iteration: converged rows
  freeze via a boolean mask, cycling rows settle to the lower (cap-safe)
  level, and the iteration bound/cycle semantics are exactly the scalar
  path's ``_MAX_JOINT_ITERS`` contract;
* per-phase splits (compute/memory time, utilization, busy fraction) are
  broadcast arithmetic.

Two call shapes share one implementation.  :func:`execute_host_batch` /
:func:`execute_gpu_batch` resolve a whole axis in one pass (the full
sweep's shape).  :class:`HostBatchKernel` / :class:`GpuBatchKernel` are
*gather* kernels over a fixed axis: construction validates the caps and
precomputes the per-phase candidate tables once, and
``execute_indices(rows)`` (or the :func:`batch_execute_indices` entry
point) resolves only the requested rows — the adaptive planner's probe
sets and per-iteration bracket/walk frontiers are sub-grids of one axis,
so repeated gathers pay only the row math, never the setup.  Every
operation is row-elementwise, so gathering commutes with executing:
``kernel.execute_indices(rows)[k]`` is bit-for-bit
``execute_host_batch(...)[rows[k]]``.

Equivalence with the scalar oracle is *bit-for-bit*, not approximate:
every arithmetic expression here reproduces the scalar code's operation
order (floating-point addition and multiplication are not associative, so
the expression trees must match, and they do — see
``tests/test_batch_equivalence.py`` for the differential lock).  Both
paths share :func:`~repro.perfmodel.executor.cpu_candidate_table` so the
candidate enumeration cannot drift.

The functions here are pure (no I/O, no clocks, no global state): they are
reachable from the memoized :class:`~repro.core.parallel.SweepEngine` and
therefore held to the RPL001 purity contract, like the scalar resolvers.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numpy.typing import NDArray

from repro.errors import ConvergenceError, SweepError
from repro.hardware.component import CappingMechanism
from repro.hardware.cpu import CpuDomain
from repro.hardware.dram import DramDomain
from repro.hardware.gpu import GpuCard
from repro.perfmodel.executor import (
    _CAP_EPS_W,
    _MAX_JOINT_ITERS,
    cpu_candidate_table,
)
from repro.perfmodel.metrics import ExecutionResult, PhaseResult, _build_frozen
from repro.perfmodel.phase import Phase
from repro.util.units import watts

__all__ = [
    "GpuBatchKernel",
    "HostBatchKernel",
    "batch_execute_indices",
    "execute_gpu_batch",
    "execute_host_batch",
]

_F64 = NDArray[np.float64]
_I64 = NDArray[np.int64]
_Bool = NDArray[np.bool_]

#: Virtual-row count (axis rows x phases) at or below which the host
#: kernel resolves rows one at a time in plain Python instead of the
#: vector pass.  A whole-array pass costs a fixed ~100 µs in array setup
#: regardless of width, and the adaptive planner's walk frontiers are
#: overwhelmingly 1-2 rows wide — the dominant cost of a planned sweep is
#: that fixed overhead times the pass count.  The scalar transcription
#: below reuses the kernel's precomputed candidate/ladder tables (it is
#: NOT the per-point oracle, which re-derives them every call) and
#: replays the vector pass's expression trees term for term, so the
#: dispatch never moves an output bit.
_HOST_GATHER_CROSSOVER = 8

#: Integer codes the kernel keeps in its mechanism arrays; decoded back
#: into :class:`CappingMechanism` only when results are materialized.
_MECHS: tuple[CappingMechanism, ...] = (
    CappingMechanism.NONE,
    CappingMechanism.DVFS,
    CappingMechanism.THROTTLE,
    CappingMechanism.BANDWIDTH_THROTTLE,
    CappingMechanism.FLOOR,
)
_NONE, _DVFS, _THROTTLE, _BW_THROTTLE, _FLOOR = range(len(_MECHS))


# ---------------------------------------------------------------------------
# host (CPU + DRAM)
# ---------------------------------------------------------------------------

class _CpuTable:
    """Candidate-state columns for one CPU and every phase of a workload.

    Column ``k`` is the state the scalar governor tries at step ``k``
    (:func:`cpu_candidate_table` order).  The candidate axis is phase-
    independent; only the compute-time row differs per phase, so the
    table holds one ``(n_phases x n_candidates)`` compute-time matrix and
    the kernels resolve *all* phases of a call as one stacked batch.
    """

    def __init__(self, cpu: CpuDomain, phases: Sequence[Phase]) -> None:
        freq, duty = cpu_candidate_table(cpu)
        self.freq: _F64 = freq
        self.duty: _F64 = duty
        self.n_pstates = len(cpu.pstates)
        self.weight: _F64 = np.asarray(cpu.pstates.power_weight(freq), dtype=np.float64)
        # rate == ((n_cores * (freq*duty*1e9)) * flops_per_cycle) * eff,
        # grouped exactly as the scalar model writes it so the division
        # below reproduces its bits.
        rate_base = cpu.n_cores * (freq * duty * 1e9) * cpu.flops_per_core_cycle
        self.t_c_mat: _F64 = np.stack(
            [
                ph.flops / (rate_base * ph.compute_efficiency)
                if ph.flops > 0.0
                else np.zeros_like(freq)
                for ph in phases
            ]
        )
        # Row-broadcast views, shaped once: the planner's sub-grid batches
        # hit the resolver with 1-2 rows at a time, where per-call reshape
        # overhead is measurable.
        self.duty_row: _F64 = self.duty[None, :]
        self.weight_row: _F64 = self.weight[None, :]


class _PhaseCols:
    """Per-phase scalars of one workload, vectorized phase-major.

    A sub-grid call over ``r`` axis rows resolves as ``n_phases * r``
    virtual rows — rows ``k*r..(k+1)*r-1`` belong to phase ``k`` — so
    every per-phase scalar becomes a repeated column and the whole
    workload costs one kernel pass instead of one per phase.
    """

    def __init__(self, phases: Sequence[Phase]) -> None:
        self.phases = tuple(phases)
        self.p = len(self.phases)
        self.act: _F64 = np.asarray([ph.activity for ph in phases])
        self.stall: _F64 = np.asarray([ph.stall_activity for ph in phases])
        self.bytes_: _F64 = np.asarray([ph.bytes_moved for ph in phases])
        self.eff: _F64 = np.asarray([ph.memory_efficiency for ph in phases])
        self.any_bytes = bool((self.bytes_ > 0.0).any())
        self.zero_bytes: _Bool | None = (
            self.bytes_ <= 0.0 if self.any_bytes and (self.bytes_ <= 0.0).any()
            else None
        )
        self._stacks: dict[int, tuple] = {}
        self._first_tm: dict[int, _F64] = {}

    def stacked(self, r: int, t_c_mat: _F64) -> tuple:
        """The phase columns repeated for ``r`` axis rows, memoized per ``r``.

        The planner's walk rounds issue many calls of the same tiny row
        count against one kernel, so the repeated columns — which depend
        only on ``r`` — are built once per distinct size.
        """
        cached = self._stacks.get(r)
        if cached is None:
            zero = (
                np.repeat(self.zero_bytes, r)
                if self.zero_bytes is not None
                else None
            )
            cached = (
                np.repeat(self.act, r)[:, None],
                np.repeat(self.stall, r)[:, None],
                np.repeat(t_c_mat, r, axis=0),
                np.repeat(self.bytes_, r),
                np.repeat(self.eff, r),
                zero,
                np.arange(self.p * r),
            )
            self._stacks[r] = cached
        return cached

    def first_tm(
        self, r: int, dram: DramDomain, bytes_col: _F64, eff_col: _F64
    ) -> _F64:
        """Memory time per stacked row at throttle level 1.0, memoized.

        Every joint resolution starts from an all-ones level vector, so
        the first iteration's ``t_m`` depends only on the row count —
        the expression below is the loop's own, evaluated on the ones
        vector it would build, so the cached value is bit-identical.
        """
        cached = self._first_tm.get(r)
        if cached is None:
            level = np.ones(self.p * r)
            mem_rate = dram.peak_bw_gbps * level * eff_col * 1e9
            cached = bytes_col / mem_rate
            self._first_tm[r] = cached
        return cached


class _DramLadder:
    """Cap-side DRAM throttle ladder for one memory-cap axis.

    The throttle level a cap snaps to — and whether the cap clears the
    device's maximum draw outright — depends only on the cap column,
    never on the phase or the joint-iteration state, so it is computed
    once per axis and gathered per sub-grid call.
    """

    def __init__(self, dram: DramDomain, cap: _F64) -> None:
        level_raw = (cap - dram.background_w) / dram.max_access_w
        snapped = _snap_level_batch(dram, np.minimum(level_raw, 1.0))
        throttled = level_raw >= dram.min_level
        self.level: _F64 = np.where(throttled, snapped, dram.min_level)
        self.mech: _I64 = np.where(throttled, _BW_THROTTLE, _FLOOR)
        self.cap_ge_max: _Bool = cap >= dram.max_power_w

    def take(self, rows: NDArray[np.intp]) -> "_DramLadder":
        out = object.__new__(_DramLadder)
        out.level = self.level[rows]
        out.mech = self.mech[rows]
        out.cap_ge_max = self.cap_ge_max[rows]
        return out

    def tile(self, p: int) -> "_DramLadder":
        """The ladder repeated for ``p`` phase-major virtual-row blocks."""
        out = object.__new__(_DramLadder)
        out.level = np.tile(self.level, p)
        out.mech = np.tile(self.mech, p)
        out.cap_ge_max = np.tile(self.cap_ge_max, p)
        return out


def _resolve_cpu_batch(
    cpu: CpuDomain,
    table: _CpuTable,
    act_col: _F64,
    stall_col: _F64,
    t_c_rows: _F64,
    cap_eps: _F64,
    t_m: _F64,
) -> tuple[_I64, _Bool, _I64]:
    """Vectorized ``_resolve_cpu``: first candidate that fits, per row.

    ``act_col``/``stall_col`` are per-virtual-row phase activities and
    ``t_c_rows`` the matching compute-time rows, so one call resolves a
    whole phase-stacked batch.  Returns ``(selected column, fits-anywhere
    mask, first-fit column)``; rows where nothing fits select the last
    column, which is the FLOOR operating point ``(f_min, duty_min)`` by
    construction of the table.
    """
    t = np.maximum(t_c_rows, t_m[:, None])
    u = np.where(t > 0.0, t_c_rows / t, 0.0)
    a_eff = act_col * u + stall_col * (1.0 - u)
    power = (
        cpu.idle_power_w
        + a_eff * table.duty_row * table.weight_row * cpu.max_dynamic_w
    )
    fits = power <= cap_eps[:, None]
    first = fits.argmax(axis=1)
    fits_any = fits.any(axis=1)
    sel = np.where(fits_any, first, table.freq.size - 1)
    return sel, fits_any, first


def _cpu_mechanism_codes(table: _CpuTable, fits_any: _Bool, first: _I64) -> _I64:
    """Mechanism codes matching the scalar resolver's selection logic."""
    fitted = np.where(
        first == 0,
        _NONE,
        np.where(first < table.n_pstates, _DVFS, _THROTTLE),
    )
    return np.where(fits_any, fitted, _FLOOR)


def _snap_level_batch(dram: DramDomain, level: _F64) -> _F64:
    """Vectorized ``DramDomain.snap_level`` (round down onto the grid)."""
    if dram.level_steps == 1:
        return np.full_like(level, dram.min_level)
    span = 1.0 - dram.min_level
    step = span / (dram.level_steps - 1)
    k = np.floor((level - dram.min_level) / step + 1e-9)
    k = np.clip(k, 0, dram.level_steps - 1)
    return dram.min_level + k * step


def _resolve_dram_batch(
    dram: DramDomain,
    bytes_col: _F64,
    eff_col: _F64,
    zero_bytes: _Bool | None,
    cap_eps: _F64,
    t_c: _F64,
    ladder: _DramLadder,
) -> tuple[_F64, _I64]:
    """Vectorized ``_resolve_dram``: throttle level + mechanism per row.

    The scalar branch ladder (memory-idle / unconstrained / throttled /
    floor) becomes layered ``where`` masks applied floor-first so the
    higher-precedence branches overwrite the lower ones; the cap-side
    half of the ladder arrives precomputed in ``ladder``.  Rows belonging
    to a zero-byte phase (``zero_bytes``) are forced to the scalar path's
    memory-idle branch — level 1.0, mechanism NONE — because the general
    expressions do not subsume it (a tight cap below the background draw
    would otherwise throttle an idle memory).
    """
    t_m_full = bytes_col / ((dram.peak_bw_gbps * 1e9) * eff_col)
    busy_full = np.where(
        t_c <= 0.0, 1.0, np.minimum(1.0, t_m_full / np.maximum(t_m_full, t_c))
    )
    measured_full = dram.background_w + busy_full * dram.max_access_w
    unconstrained = ladder.cap_ge_max | (measured_full <= cap_eps)
    level = np.where(unconstrained, 1.0, ladder.level)
    mech = np.where(unconstrained, _NONE, ladder.mech)
    if zero_bytes is not None:
        level = np.where(zero_bytes, 1.0, level)
        mech = np.where(zero_bytes, _NONE, mech)
    return level, mech


def _host_phase_batch(
    cpu: CpuDomain,
    dram: DramDomain,
    cols: _PhaseCols,
    table: _CpuTable,
    cpu_cap_eps: _F64,
    dram_cap_eps: _F64,
    ladder: _DramLadder,
    r: int,
) -> list[list[PhaseResult]]:
    """Jointly resolve both governors for every phase over ``r`` grid rows.

    The cap arrays and ladder arrive phase-stacked (``n_phases * r``
    virtual rows, phase-major); all phases iterate to their joint fixed
    points in ONE whole-array loop, so a multi-phase workload costs the
    same number of kernel passes as a single-phase one.  Every operation
    stays row-elementwise, which is what keeps stacking — like gathering —
    bit-transparent.  Returns one row list per phase.
    """
    v = cpu_cap_eps.shape[0]
    act_col, stall_col, t_c_rows, bytes_col, eff_col, zero_bytes, rows_idx = (
        cols.stacked(r, table.t_c_mat)
    )

    level: _F64 = np.ones(v)
    mem_mech: _I64 = np.full(v, _NONE)
    if cols.any_bytes:
        active = np.ones(v, dtype=bool)
        seen: list[tuple[_F64, _F64, _F64, _Bool]] = []
        settled_lower = False
        for _ in range(_MAX_JOINT_ITERS):
            if seen:
                mem_rate = dram.peak_bw_gbps * level * eff_col * 1e9
                t_m = bytes_col / mem_rate
            else:
                # ``level`` is all ones before the first resolve; the
                # memoized column is that iteration's exact value.
                t_m = cols.first_tm(r, dram, bytes_col, eff_col)
            sel, fits_any, first = _resolve_cpu_batch(
                cpu, table, act_col, stall_col, t_c_rows, cpu_cap_eps, t_m
            )
            f_sel = table.freq[sel]
            d_sel = table.duty[sel]
            new_level, new_mech = _resolve_dram_batch(
                dram, bytes_col, eff_col, zero_bytes, dram_cap_eps,
                t_c_rows[rows_idx, sel], ladder,
            )
            converged = active & (new_level == level)
            if seen:
                repeated = np.zeros(v, dtype=bool)
                for s_f, s_d, s_level, s_valid in seen:
                    repeated |= (
                        s_valid
                        & (s_f == f_sel)
                        & (s_d == d_sel)
                        & (s_level == new_level)
                    )
                cycled = active & ~converged & repeated
                continuing = active & ~converged & ~cycled
                # Converged rows adopt the same-level new op; a 2-cycle
                # between adjacent discrete levels settles to the lower
                # (cap-safe) one, like the scalar governor; everything
                # else keeps iterating.
                settle = cycled & (new_level < level)
                take_new = converged | settle | continuing
                if settle.any():
                    settled_lower = True
            else:
                # First iteration: nothing to cycle against, every active
                # row either converged or continues — one mask either way.
                continuing = active & ~converged
                take_new = active
            level = np.where(take_new, new_level, level)
            mem_mech = np.where(take_new, new_mech, mem_mech)
            seen.append((f_sel, d_sel, new_level, continuing))
            active = continuing
            if not active.any():
                break
        if active.any():  # pragma: no cover - discrete state space precludes this
            raise ConvergenceError(_MAX_JOINT_ITERS, float("nan"))
        # Re-resolve the CPU against the settled DRAM level (the scalar
        # path's final consistency pass) — needed only when a cycle
        # settled a row to a lower level *after* its CPU op was selected.
        # In every other exit, each row's last in-loop resolve already ran
        # against its final level (the loop recomputes all rows every
        # iteration), so the re-resolve would reproduce ``sel``/``fits_any``
        # /``first``/``t_m`` bit-for-bit and is skipped.
        if settled_lower:
            mem_rate = dram.peak_bw_gbps * level * eff_col * 1e9
            t_m = bytes_col / mem_rate
            sel, fits_any, first = _resolve_cpu_batch(
                cpu, table, act_col, stall_col, t_c_rows, cpu_cap_eps, t_m
            )
    else:
        t_m = np.zeros(v)
        sel, fits_any, first = _resolve_cpu_batch(
            cpu, table, act_col, stall_col, t_c_rows, cpu_cap_eps, t_m
        )

    d_sel = table.duty[sel]
    t_c = t_c_rows[rows_idx, sel]
    t = np.maximum(t_c, t_m)
    u = np.where(t > 0.0, t_c / t, 0.0)
    busy = np.where(t > 0.0, t_m / t, 0.0)
    act_flat = act_col[:, 0]
    stall_flat = stall_col[:, 0]
    a_eff = act_flat * u + stall_flat * (1.0 - u)
    proc_power = (
        cpu.idle_power_w + a_eff * d_sel * table.weight[sel] * cpu.max_dynamic_w
    )
    mem_power = dram.background_w + level * busy * dram.max_access_w
    proc_mech = _cpu_mechanism_codes(table, fits_any, first)

    columns = (
        t, t_c, t_m, u, busy, table.freq[sel], d_sel, level, proc_power, mem_power,
    )
    t_l, t_c_l, t_m_l, u_l, busy_l, f_l, d_l, level_l, pp_l, mp_l = (
        c.tolist() for c in columns
    )
    proc_mech_l = proc_mech.tolist()
    mem_mech_l = mem_mech.tolist()
    return [
        [
            _build_frozen(PhaseResult, (
                phase.name, t_l[i], t_c_l[i], t_m_l[i], u_l[i], busy_l[i],
                f_l[i], d_l[i], level_l[i],
                _MECHS[proc_mech_l[i]], _MECHS[mem_mech_l[i]],
                pp_l[i], mp_l[i], 0.0, phase.flops, phase.bytes_moved,
            ))
            for i in range(k * r, (k + 1) * r)
        ]
        for k, phase in enumerate(cols.phases)
    ]


def _cap_column(caps: Sequence[float], name: str) -> tuple[list[float], _F64]:
    """``[watts(float(c), name) for c in caps]`` and its float64 array.

    The column is checked once as an array, finite and non-negative.
    Only a column that fails the check, or does not convert, is walked
    through :func:`watts` entry by entry, which raises the error of its
    first bad entry.
    """
    try:
        values = [float(c) for c in caps]
    except (TypeError, ValueError, OverflowError):
        pass  # the walk below raises this entry's error, or an earlier one's
    else:
        column: _F64 = np.asarray(values, dtype=np.float64)
        if np.isfinite(column).all() and (column >= 0.0).all():
            return values, column
    values = [watts(float(c), name) for c in caps]
    return values, np.asarray(values, dtype=np.float64)


class HostBatchKernel:
    """Reusable gather kernel over one host ``(proc_cap, mem_cap)`` axis.

    Construction validates the whole axis and precomputes the per-phase
    candidate tables; :meth:`execute_indices` then resolves any subset of
    rows with nothing but the row math.  The adaptive planner issues many
    small sub-grid batches against one axis (probe set, per-iteration
    walk frontiers, the plateau middle), so hoisting the setup out of the
    per-call path is what makes planned sweeps cheaper than the one-shot
    full pass — without changing a single output bit.
    """

    def __init__(
        self,
        cpu: CpuDomain,
        dram: DramDomain,
        phases: Sequence[Phase],
        proc_caps_w: Sequence[float],
        mem_caps_w: Sequence[float],
    ) -> None:
        self._cpu = cpu
        self._dram = dram
        self._phases = tuple(phases)
        self._proc_list, self._proc = _cap_column(proc_caps_w, "cpu_cap_w")
        self._mem_list, self._mem = _cap_column(mem_caps_w, "dram_cap_w")
        if len(self._proc_list) != len(self._mem_list):
            raise SweepError(
                f"mismatched cap columns: {len(self._proc_list)} processor "
                f"caps vs {len(self._mem_list)} memory caps"
            )
        if not self._phases:
            raise SweepError("cannot execute a workload with no phases")
        self._proc_eps: _F64 = self._proc + _CAP_EPS_W
        self._mem_eps: _F64 = self._mem + _CAP_EPS_W
        self._ladder = _DramLadder(dram, self._mem)
        self._table = _CpuTable(cpu, self._phases)
        self._cols = _PhaseCols(self._phases)
        # Phase-stacked cap columns, tiled once here so a sub-grid call
        # is a single fancy gather instead of gather-then-tile; tiling
        # the full axis first and gathering with offset indices selects
        # exactly the same elements, so the outputs cannot move a bit.
        p = self._cols.p
        if p > 1:
            self._proc_eps_stack: _F64 = np.tile(self._proc_eps, p)
            self._mem_eps_stack: _F64 = np.tile(self._mem_eps, p)
            self._ladder_stack = self._ladder.tile(p)
            self._row_offsets: NDArray[np.intp] | None = (
                np.arange(p, dtype=np.intp) * self._proc.size
            )[:, None]
        else:
            self._proc_eps_stack = self._proc_eps
            self._mem_eps_stack = self._mem_eps
            self._ladder_stack = self._ladder
            self._row_offsets = None
        # Python-scalar table mirrors for the small-gather path, built on
        # first use (full-sweep callers never pay for them).
        self._single: tuple | None = None
        self._single_ok: bool | None = None

    def __len__(self) -> int:
        return len(self._proc_list)

    def _single_tables(self) -> tuple | None:
        """Plain-Python mirrors of the precomputed tables, or ``None``.

        The scalar fast path runs on Python floats, whose division raises
        on zero and whose ``min``/``max`` are order-dependent under NaN
        where NumPy's propagate.  Positive efficiencies on every phase
        keep all intermediate rates finite and positive, so the two
        semantics coincide; any degenerate phase simply stays on the
        vector pass and bit-identity never rests on the edge cases.
        """
        if self._single_ok is None:
            self._single_ok = all(
                ph.memory_efficiency > 0.0 and ph.compute_efficiency > 0.0
                for ph in self._phases
            )
            if self._single_ok:
                cols = self._cols
                self._single = (
                    self._table.freq.tolist(),
                    self._table.duty.tolist(),
                    self._table.weight.tolist(),
                    [row.tolist() for row in self._table.t_c_mat],
                    self._proc_eps.tolist(),
                    self._mem_eps.tolist(),
                    self._ladder.level.tolist(),
                    self._ladder.mech.tolist(),
                    self._ladder.cap_ge_max.tolist(),
                    cols.act.tolist(),
                    cols.stall.tolist(),
                    cols.bytes_.tolist(),
                    cols.eff.tolist(),
                )
        return self._single

    def _execute_row_scalar(self, i: int, tabs: tuple) -> ExecutionResult:
        """One axis row resolved with scalar math on the precomputed tables.

        A line-for-line transcription of the vector pass for a single
        virtual row per phase: same candidate scan, same ladder lookup,
        same cycle-settling joint loop, every expression grouped exactly
        as the array code writes it (Python and NumPy share left-assoc
        float semantics, so matching the source text matches the bits).
        """
        (freq, duty, weight, t_c_mat, proc_eps, mem_eps,
         lad_level_l, lad_mech_l, lad_ge_l, act_l, stall_l, bytes_l, eff_l) = tabs
        cpu = self._cpu
        dram = self._dram
        idle = cpu.idle_power_w
        max_dyn = cpu.max_dynamic_w
        peak = dram.peak_bw_gbps
        bg = dram.background_w
        max_acc = dram.max_access_w
        n_pstates = self._table.n_pstates
        m = len(freq)
        cap_eps = proc_eps[i]
        dcap_eps = mem_eps[i]
        lad_level = lad_level_l[i]
        lad_mech = lad_mech_l[i]
        lad_ge = lad_ge_l[i]
        any_bytes = self._cols.any_bytes

        results = []
        for k, phase in enumerate(self._phases):
            t_c_row = t_c_mat[k]
            act = act_l[k]
            stall = stall_l[k]
            bytes_ = bytes_l[k]
            eff = eff_l[k]

            def resolve_cpu(t_m: float) -> tuple[int, bool, int]:
                # _resolve_cpu_batch per candidate: first fit wins, none
                # fitting selects the FLOOR column (last) with first=0,
                # matching argmax over an all-False mask.
                for j in range(m):
                    t_cj = t_c_row[j]
                    t = t_cj if t_cj >= t_m else t_m
                    u = t_cj / t if t > 0.0 else 0.0
                    a_eff = act * u + stall * (1.0 - u)
                    power = idle + a_eff * duty[j] * weight[j] * max_dyn
                    if power <= cap_eps:
                        return j, True, j
                return m - 1, False, 0

            def resolve_dram(t_c_sel: float) -> tuple[float, int]:
                # _resolve_dram_batch for one non-zero-byte row (zero-byte
                # phases branch before the call, as the mask override does).
                t_m_full = bytes_ / ((peak * 1e9) * eff)
                if t_c_sel <= 0.0:
                    busy_full = 1.0
                else:
                    mx = t_m_full if t_m_full >= t_c_sel else t_c_sel
                    ratio = t_m_full / mx
                    busy_full = ratio if ratio < 1.0 else 1.0
                measured_full = bg + busy_full * max_acc
                if lad_ge or measured_full <= dcap_eps:
                    return 1.0, _NONE
                return lad_level, lad_mech

            level = 1.0
            mem_mech = _NONE
            if any_bytes:
                zero_b = bytes_ <= 0.0
                active = True
                seen: list[tuple[float, float, float, bool]] = []
                settled_lower = False
                for _ in range(_MAX_JOINT_ITERS):
                    mem_rate = peak * level * eff * 1e9
                    t_m = bytes_ / mem_rate
                    sel, fits_any, first = resolve_cpu(t_m)
                    f_sel = freq[sel]
                    d_sel = duty[sel]
                    if zero_b:
                        new_level, new_mech = 1.0, _NONE
                    else:
                        new_level, new_mech = resolve_dram(t_c_row[sel])
                    converged = new_level == level
                    if seen:
                        repeated = any(
                            s_valid
                            and s_f == f_sel
                            and s_d == d_sel
                            and s_level == new_level
                            for s_f, s_d, s_level, s_valid in seen
                        )
                        cycled = not converged and repeated
                        continuing = not converged and not cycled
                        settle = cycled and new_level < level
                        take_new = converged or settle or continuing
                        if settle:
                            settled_lower = True
                    else:
                        continuing = not converged
                        take_new = True
                    if take_new:
                        level = new_level
                        mem_mech = new_mech
                    seen.append((f_sel, d_sel, new_level, continuing))
                    active = continuing
                    if not active:
                        break
                if active:  # pragma: no cover - discrete state space precludes this
                    raise ConvergenceError(_MAX_JOINT_ITERS, float("nan"))
                if settled_lower:
                    mem_rate = peak * level * eff * 1e9
                    t_m = bytes_ / mem_rate
                    sel, fits_any, first = resolve_cpu(t_m)
            else:
                t_m = 0.0
                sel, fits_any, first = resolve_cpu(t_m)

            t_c = t_c_row[sel]
            t = t_c if t_c >= t_m else t_m
            u = t_c / t if t > 0.0 else 0.0
            busy = t_m / t if t > 0.0 else 0.0
            a_eff = act * u + stall * (1.0 - u)
            proc_power = idle + a_eff * duty[sel] * weight[sel] * max_dyn
            mem_power = bg + level * busy * max_acc
            if fits_any:
                code = _NONE if first == 0 else (
                    _DVFS if first < n_pstates else _THROTTLE
                )
            else:
                code = _FLOOR
            results.append(
                _build_frozen(PhaseResult, (
                    phase.name, t, t_c, t_m, u, busy,
                    freq[sel], duty[sel], level,
                    _MECHS[code], _MECHS[mem_mech],
                    proc_power, mem_power, 0.0, phase.flops, phase.bytes_moved,
                ))
            )
        return _build_frozen(ExecutionResult, (
            tuple(results), self._proc_list[i], self._mem_list[i], "host",
        ))

    def execute_indices(self, indices: Sequence[int]) -> list[ExecutionResult]:
        """Results for axis rows ``indices``, in the given order.

        Entry ``k`` is bit-for-bit ``execute_on_host`` at row
        ``indices[k]``: every kernel operation is row-elementwise, so the
        gathered sub-grid reproduces the full pass exactly.
        """
        rows = [int(i) for i in indices]
        if not rows:
            return []
        if len(rows) * self._cols.p <= _HOST_GATHER_CROSSOVER:
            # Below the crossover (in virtual rows) the vector pass's
            # fixed setup cost exceeds the whole resolution: run the
            # scalar transcription over the same precomputed tables.
            tabs = self._single_tables()
            if tabs is not None:
                return [self._execute_row_scalar(i, tabs) for i in rows]
        gather = np.asarray(rows, dtype=np.intp)
        if self._row_offsets is not None:
            gather = (self._row_offsets + gather).ravel()
        proc_eps = self._proc_eps_stack[gather]
        mem_eps = self._mem_eps_stack[gather]
        ladder = self._ladder_stack.take(gather)
        # One errstate frame for the whole pass: the resolvers' guarded
        # divisions (zero-time phases, idle memories) live inside, and
        # errstate only governs warning delivery — never computed values —
        # so hoisting it out of the per-iteration helpers is bit-free.
        with np.errstate(invalid="ignore", divide="ignore"):
            phase_rows = _host_phase_batch(
                self._cpu, self._dram, self._cols, self._table,
                proc_eps, mem_eps, ladder, len(rows),
            )
        # ``zip(*phase_rows)`` yields each grid row's phases in phase order.
        proc, mem = self._proc_list, self._mem_list
        return [
            _build_frozen(ExecutionResult, (phases, proc[i], mem[i], "host"))
            for i, phases in zip(rows, zip(*phase_rows))
        ]


def execute_host_batch(
    cpu: CpuDomain,
    dram: DramDomain,
    phases: Sequence[Phase],
    proc_caps_w: Sequence[float],
    mem_caps_w: Sequence[float],
) -> list[ExecutionResult]:
    """Simulate a workload at every ``(proc_cap, mem_cap)`` pair at once.

    Point ``i`` of the returned list is bit-for-bit equal to
    ``execute_on_host(cpu, dram, phases, proc_caps_w[i], mem_caps_w[i])``.
    """
    kernel = HostBatchKernel(cpu, dram, phases, proc_caps_w, mem_caps_w)
    return kernel.execute_indices(range(len(kernel)))


# ---------------------------------------------------------------------------
# GPU (SM + device memory)
# ---------------------------------------------------------------------------

class _GpuTable:
    """SM candidate columns for one card and every phase of a workload:
    the frequency ladder fastest-first, its power weights, and one
    compute-time row per phase, none of which depend on the memory clock
    being resolved."""

    def __init__(self, card: GpuCard, phases: Sequence[Phase]) -> None:
        sm = card.sm
        self.f_desc: _F64 = sm.pstates.frequencies_ghz[::-1]
        self.weight = np.asarray(
            sm.pstates.power_weight(self.f_desc), dtype=np.float64
        )
        # rate == ((n_sm * (f*1e9)) * flops_per_cycle) * eff, grouped as
        # the scalar model writes it.
        rate_base = sm.n_sm * (self.f_desc * 1e9) * sm.flops_per_sm_cycle
        self.t_c_mat: _F64 = np.stack(
            [
                ph.flops / (rate_base * ph.compute_efficiency)
                if ph.flops > 0.0
                else np.zeros_like(self.f_desc)
                for ph in phases
            ]
        )
        self.weight_row: _F64 = self.weight[None, :]


def _gpu_phase_batch(
    card: GpuCard,
    cols: _PhaseCols,
    cap_eps: float,
    table: _GpuTable,
    ratio: _F64,
    mem_mech_codes: _I64,
    t_m: _F64,
    mem_base: _F64,
    mem_ar: _F64,
    r: int,
) -> list[list[PhaseResult]]:
    """Resolve the board governor for every phase over ``r`` memory clocks.

    ``ratio`` is the snapped clock over nominal per row, phase-stacked
    like the host kernel's virtual rows; columns are the SM frequencies,
    fastest first, so "first that fits" is again an argmax and the FLOOR
    fallback is the last column.  ``t_m`` (memory time per row),
    ``mem_base`` (idle + clock power) and ``mem_ar`` (access power scaled
    by the clock ratio) arrive precomputed from the kernel: none of them
    depend on the SM candidate being tried.  Returns one row list per
    phase.
    """
    sm = card.sm
    f_desc = table.f_desc
    m = f_desc.size
    act_col, stall_col, t_c_rows, _, _, _, rows = cols.stacked(r, table.t_c_mat)

    t = np.maximum(t_c_rows, t_m[:, None])
    u = np.where(t > 0.0, t_c_rows / t, 0.0)
    busy = np.where(t > 0.0, t_m[:, None] / t, 0.0)
    a_eff = act_col * u + stall_col * (1.0 - u)
    sm_power = sm.idle_power_w + a_eff * table.weight_row * sm.max_dynamic_w
    mem_power = mem_base[:, None] + mem_ar[:, None] * busy
    total = card.board_static_w + sm_power + mem_power
    fits = total <= cap_eps
    first = fits.argmax(axis=1)
    fits_any = fits.any(axis=1)
    sel = np.where(fits_any, first, m - 1)
    proc_mech = np.where(fits_any, np.where(first == 0, _NONE, _DVFS), _FLOOR)

    columns = (
        t[rows, sel],
        t_c_rows[rows, sel],
        t_m,
        u[rows, sel],
        busy[rows, sel],
        f_desc[sel],
        ratio,
        sm_power[rows, sel],
        mem_power[rows, sel],
    )
    t_l, t_c_l, t_m_l, u_l, busy_l, f_l, r_l, sp_l, mp_l = (
        c.tolist() for c in columns
    )
    proc_mech_l = proc_mech.tolist()
    mem_mech_l = mem_mech_codes.tolist()
    return [
        [
            _build_frozen(PhaseResult, (
                phase.name, t_l[i], t_c_l[i], t_m_l[i], u_l[i], busy_l[i],
                f_l[i], 1.0, r_l[i],
                _MECHS[proc_mech_l[i]], _MECHS[mem_mech_l[i]],
                sp_l[i], mp_l[i], card.board_static_w, phase.flops, phase.bytes_moved,
            ))
            for i in range(k * r, (k + 1) * r)
        ]
        for k, phase in enumerate(cols.phases)
    ]


class GpuBatchKernel:
    """Reusable gather kernel over one GPU memory-clock axis.

    The board cap is validated and the per-phase SM candidate tables,
    snapped clock ratios, and memory-side mechanisms are all resolved at
    construction; :meth:`execute_indices` gathers rows with no per-call
    setup.  Mirrors :class:`HostBatchKernel` for the GPU planner path.
    """

    def __init__(
        self,
        card: GpuCard,
        phases: Sequence[Phase],
        cap_w: float,
        mem_freqs_mhz: Sequence[float],
    ) -> None:
        self._card = card
        self._phases = tuple(phases)
        self._cap = card.validate_cap(cap_w)
        if not self._phases:
            raise SweepError("cannot execute a workload with no phases")
        mem_ops = [card.mem.operating_point(float(f)) for f in mem_freqs_mhz]
        self._n = len(mem_ops)
        snapped = np.asarray([op.freq_mhz for op in mem_ops], dtype=np.float64)
        self._ratio: _F64 = snapped / card.mem.nominal_mhz
        self._mem_mech: _I64 = np.asarray(
            [_MECHS.index(op.mechanism) for op in mem_ops], dtype=np.int64
        )
        self._mem_caps = [
            card.mem.allocated_power_w(op.freq_mhz) for op in mem_ops
        ]
        self._cap_eps = self._cap + _CAP_EPS_W
        self._mem_base: _F64 = (
            card.mem.idle_power_w
            + card.mem.clock_power_w * self._ratio * self._ratio
        )
        self._mem_ar: _F64 = card.mem.access_power_w * self._ratio
        self._table = _GpuTable(card, self._phases)
        self._cols = _PhaseCols(self._phases)
        t_m_rows = []
        for ph in self._phases:
            if ph.bytes_moved > 0.0:
                mem_rate = (
                    card.mem.peak_bw_gbps * self._ratio * ph.memory_efficiency * 1e9
                )
                t_m_rows.append(ph.bytes_moved / mem_rate)
            else:
                t_m_rows.append(np.zeros(self._n))
        self._t_m_mat: _F64 = np.stack(t_m_rows)
        # Phase-stacked memory columns, tiled once at construction (see
        # HostBatchKernel): per-call work drops to one offset add plus
        # flat gathers over identical elements.
        p = self._cols.p
        self._t_m_flat: _F64 = self._t_m_mat.reshape(-1)
        if p > 1:
            self._ratio_stack: _F64 = np.tile(self._ratio, p)
            self._mech_stack: _I64 = np.tile(self._mem_mech, p)
            self._mem_base_stack: _F64 = np.tile(self._mem_base, p)
            self._mem_ar_stack: _F64 = np.tile(self._mem_ar, p)
            self._row_offsets: NDArray[np.intp] | None = (
                np.arange(p, dtype=np.intp) * self._n
            )[:, None]
        else:
            self._ratio_stack = self._ratio
            self._mech_stack = self._mem_mech
            self._mem_base_stack = self._mem_base
            self._mem_ar_stack = self._mem_ar
            self._row_offsets = None

    def __len__(self) -> int:
        return self._n

    def execute_indices(self, indices: Sequence[int]) -> list[ExecutionResult]:
        """Results for axis rows ``indices``, in the given order.

        Entry ``k`` is bit-for-bit ``execute_on_gpu`` at row
        ``indices[k]``: every kernel operation is row-elementwise, so the
        gathered sub-grid reproduces the full pass exactly.
        """
        rows = [int(i) for i in indices]
        if not rows:
            return []
        gather = np.asarray(rows, dtype=np.intp)
        if self._row_offsets is not None:
            gather = (self._row_offsets + gather).ravel()
        ratio = self._ratio_stack[gather]
        mech = self._mech_stack[gather]
        mem_base = self._mem_base_stack[gather]
        mem_ar = self._mem_ar_stack[gather]
        t_m = self._t_m_flat[gather]
        # Single errstate frame per pass (see HostBatchKernel): value-free.
        with np.errstate(invalid="ignore", divide="ignore"):
            phase_rows = _gpu_phase_batch(
                self._card, self._cols, self._cap_eps, self._table,
                ratio, mech, t_m, mem_base, mem_ar, len(rows),
            )
        cap, mem_caps = self._cap, self._mem_caps
        return [
            _build_frozen(ExecutionResult, (phases, cap, mem_caps[i], "gpu"))
            for i, phases in zip(rows, zip(*phase_rows))
        ]


def execute_gpu_batch(
    card: GpuCard,
    phases: Sequence[Phase],
    cap_w: float,
    mem_freqs_mhz: Sequence[float],
) -> list[ExecutionResult]:
    """Simulate a workload at every memory clock under one board cap.

    Point ``i`` of the returned list is bit-for-bit equal to
    ``execute_on_gpu(card, phases, cap_w, mem_freqs_mhz[i])``.
    """
    kernel = GpuBatchKernel(card, phases, cap_w, mem_freqs_mhz)
    return kernel.execute_indices(range(len(kernel)))


def batch_execute_indices(
    kernel: HostBatchKernel | GpuBatchKernel,
    indices: Sequence[int],
) -> list[ExecutionResult]:
    """Gather entry point: execute axis rows ``indices`` of a prepared kernel.

    This is the sub-grid door the sweep engine routes planner batches
    through; it exists as a module-level function so the engine's
    dispatch — and the purity lint that roots it — has one named seam
    rather than an attribute call on an opaque receiver.
    """
    return kernel.execute_indices(indices)
