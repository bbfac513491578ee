"""Execution results: per-phase records and run-level aggregates.

The fields mirror what the paper measures on its testbed: elapsed time
(hence application performance), per-domain *actual* power (Figure 3b), and
which capping mechanism each domain engaged (the raw material for scenario
classification in :mod:`repro.core.scenario`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TypeVar

from repro.errors import ConfigurationError
from repro.hardware.component import CappingMechanism

__all__ = ["ExecutionResult", "PhaseResult"]

_Row = TypeVar("_Row")


def _build_frozen(cls: type[_Row], values: tuple[object, ...]) -> _Row:
    """An instance of the frozen dataclass ``cls`` holding ``values``.

    The batch kernels build thousands of result rows per pass, and the
    generated frozen ``__init__`` pays one ``object.__setattr__`` per
    field.  This fills the new instance's dict with one ``dict.update``,
    as ``copy`` and ``pickle`` do when they restore a frozen dataclass,
    so ``==``, ``hash``, ``repr``, ``dataclasses.fields`` and
    ``FrozenInstanceError`` still come from the class itself.  ``values``
    lists every field in field order, as the positional constructor
    takes them; no ``__post_init__`` runs.  The update reads (name,
    value) pairs, not a dict: the instance dict then keeps the class's
    shared key table, where copying a dict's keys would cost each row
    about 300 B more (CPython 3.11).
    """
    row = object.__new__(cls)
    row.__dict__.update(zip(cls.__dataclass_fields__, values))
    return row


@dataclass(frozen=True)
class PhaseResult:
    """Simulation outcome for one workload phase.

    ``proc_*`` fields describe the processor domain (CPU package or GPU
    SMs); ``mem_*`` fields describe the memory domain (DRAM or device
    memory).  ``mem_throttle`` is the DRAM throttle level on hosts and the
    memory clock ratio on GPUs — both are "fraction of peak bandwidth
    ceiling" and live in (0, 1].
    """

    name: str
    time_s: float
    t_compute_s: float
    t_memory_s: float
    utilization: float
    mem_busy: float
    proc_freq_ghz: float
    proc_duty: float
    mem_throttle: float
    proc_mechanism: CappingMechanism
    mem_mechanism: CappingMechanism
    proc_power_w: float
    mem_power_w: float
    board_power_w: float
    flops: float
    bytes_moved: float

    @property
    def total_power_w(self) -> float:
        """Node/card power during this phase."""
        return self.proc_power_w + self.mem_power_w + self.board_power_w

    @property
    def energy_j(self) -> float:
        """Energy consumed by this phase."""
        return self.total_power_w * self.time_s

    @property
    def achieved_flops_rate(self) -> float:
        """Delivered FLOP/s during the phase."""
        return self.flops / self.time_s

    @property
    def achieved_bytes_rate(self) -> float:
        """Delivered bytes/s during the phase."""
        return self.bytes_moved / self.time_s


@dataclass(frozen=True)
class ExecutionResult:
    """Simulation outcome for a full run (all phases, one allocation).

    ``device`` selects the capping topology: hosts cap the two domains
    independently (``proc_cap_w`` and ``mem_cap_w`` are both caps), GPUs
    cap the whole board (``proc_cap_w`` is the board cap and ``mem_cap_w``
    records the memory-clock allocation *estimate*).

    Most workloads have one phase, so the aggregates a sweep reads per
    point (times, work, utilization, mechanisms, the bound check) read a
    single phase directly.  ``sum()`` over one value performs exactly one
    addition, its int start plus the value, so each shortcut is written
    ``0 + x`` and matches the general expression bit for bit (``-0.0``
    included).  Multi-phase results keep the general expressions, since
    ``sum()`` compensates across two or more floats from Python 3.12 on.
    """

    phases: tuple[PhaseResult, ...]
    proc_cap_w: float | None
    mem_cap_w: float | None
    device: str = "host"

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError("an execution result needs at least one phase")

    # ------------------------------------------------------------------
    # time / work totals
    # ------------------------------------------------------------------
    @property
    def elapsed_s(self) -> float:
        """Total wall time."""
        if len(self.phases) == 1:
            return 0 + self.phases[0].time_s
        return sum(p.time_s for p in self.phases)

    @property
    def total_flops(self) -> float:
        if len(self.phases) == 1:
            return 0 + self.phases[0].flops
        return sum(p.flops for p in self.phases)

    @property
    def total_bytes(self) -> float:
        if len(self.phases) == 1:
            return 0 + self.phases[0].bytes_moved
        return sum(p.bytes_moved for p in self.phases)

    @property
    def flops_rate(self) -> float:
        """Run-level FLOP/s (work / wall time)."""
        return self.total_flops / self.elapsed_s

    @property
    def bytes_rate(self) -> float:
        """Run-level bytes/s."""
        return self.total_bytes / self.elapsed_s

    # ------------------------------------------------------------------
    # power / energy aggregates (time-weighted, matching a meter's view)
    # ------------------------------------------------------------------
    def _weighted(self, values: Sequence[float]) -> float:
        total_t = self.elapsed_s
        return sum(v * p.time_s for v, p in zip(values, self.phases)) / total_t

    @property
    def proc_power_w(self) -> float:
        """Time-averaged processor-domain power."""
        return self._weighted([p.proc_power_w for p in self.phases])

    @property
    def mem_power_w(self) -> float:
        """Time-averaged memory-domain power."""
        return self._weighted([p.mem_power_w for p in self.phases])

    @property
    def board_power_w(self) -> float:
        """Time-averaged board/static power (zero on host platforms)."""
        return self._weighted([p.board_power_w for p in self.phases])

    @property
    def total_power_w(self) -> float:
        """Time-averaged node/card power."""
        return self._weighted([p.total_power_w for p in self.phases])

    @property
    def energy_j(self) -> float:
        """Total energy over the run."""
        return sum(p.energy_j for p in self.phases)

    @property
    def proc_energy_j(self) -> float:
        return sum(p.proc_power_w * p.time_s for p in self.phases)

    @property
    def mem_energy_j(self) -> float:
        return sum(p.mem_power_w * p.time_s for p in self.phases)

    # ------------------------------------------------------------------
    # mechanism summaries (for scenario classification)
    # ------------------------------------------------------------------
    def _dominant(self, mechanisms: Sequence[CappingMechanism]) -> CappingMechanism:
        weights: dict[CappingMechanism, float] = {}
        for mech, p in zip(mechanisms, self.phases):
            weights[mech] = weights.get(mech, 0.0) + p.time_s
        return max(weights.items(), key=lambda kv: kv[1])[0]

    @property
    def proc_mechanism(self) -> CappingMechanism:
        """Time-dominant processor capping mechanism across phases."""
        if len(self.phases) == 1:
            return self.phases[0].proc_mechanism
        return self._dominant([p.proc_mechanism for p in self.phases])

    @property
    def mem_mechanism(self) -> CappingMechanism:
        """Time-dominant memory capping mechanism across phases."""
        if len(self.phases) == 1:
            return self.phases[0].mem_mechanism
        return self._dominant([p.mem_mechanism for p in self.phases])

    @property
    def respects_bound(self) -> bool:
        """Whether actual power stayed under the programmed cap(s).

        Power-based, not mechanism-based: a hardware floor only violates
        the bound if the floored domain actually *draws* more than its cap
        (a compute-bound app's DRAM can sit at the floor level yet draw
        under a tiny cap because its bus is idle).  Scenario VI — "this
        scenario cannot ensure the system power bound" — comes out False
        here.
        """
        eps = 1e-6
        if self.device == "gpu":
            if self.proc_cap_w is None:
                return True
            if len(self.phases) == 1:
                return bool(self.phases[0].total_power_w <= self.proc_cap_w + eps)
            return all(p.total_power_w <= self.proc_cap_w + eps for p in self.phases)
        if len(self.phases) == 1:
            p = self.phases[0]
            return bool(
                (self.proc_cap_w is None or p.proc_power_w <= self.proc_cap_w + eps)
                and (self.mem_cap_w is None or p.mem_power_w <= self.mem_cap_w + eps)
            )
        ok = True
        if self.proc_cap_w is not None:
            ok &= all(p.proc_power_w <= self.proc_cap_w + eps for p in self.phases)
        if self.mem_cap_w is not None:
            ok &= all(p.mem_power_w <= self.mem_cap_w + eps for p in self.phases)
        return bool(ok)

    @property
    def utilization(self) -> float:
        """Time-averaged compute (non-stalled) fraction."""
        if len(self.phases) == 1:
            p = self.phases[0]
            return (0 + p.utilization * p.time_s) / (0 + p.time_s)
        return self._weighted([p.utilization for p in self.phases])

    @property
    def mem_busy(self) -> float:
        """Time-averaged memory-bus busy fraction."""
        if len(self.phases) == 1:
            p = self.phases[0]
            return (0 + p.mem_busy * p.time_s) / (0 + p.time_s)
        return self._weighted([p.mem_busy for p in self.phases])
