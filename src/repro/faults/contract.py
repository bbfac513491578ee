"""The chaos contract: clean-vs-faulted differential checks.

This module operationalizes the headline invariant of :mod:`repro.faults`:
under *any* fault plan, every public API either returns a result that is
bit-identical to the clean run or surfaces a typed degradation (a
:class:`~repro.errors.FaultError` subclass or a
:class:`~repro.faults.report.DegradationReport` marked ``degraded``).
Silent drift — a different answer with no typed signal — is the one
forbidden outcome.

:func:`run_chaos` runs a battery of named checks.  Each check executes an
operation twice from identical freshly-built state: once disarmed (the
oracle) and once under a fresh injector for the plan, then classifies the
faulted outcome:

``identical``
    bit-equal to the clean run (recovered faults allowed, not tainting);
``degraded``
    the faulted leg's ledger recorded a degrading event;
``typed-error``
    the operation raised a :class:`~repro.errors.FaultError`;
``violation``
    anything else — silent drift or an untyped exception.

The battery covers both hardware registries (RAPL/CPU and NVML/GPU), the
sweep engine's worker path, the profilers' majority vote under COORD, the
online controller, and the disk cache's quarantine-and-rebuild recovery.
``repro chaos`` and the chaos test suite both drive this entry point, so
the CLI exit code and the tests enforce the same contract.
"""

from __future__ import annotations

import dataclasses
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.coord import coord_cpu
from repro.core.coord_gpu import coord_gpu
from repro.core.diskcache import DiskCache
from repro.core.online import online_power_shift
from repro.core.parallel import SweepEngine
from repro.core.profiler import profile_cpu_workload, profile_gpu_workload
from repro.core.sweep import cpu_budget_curve, gpu_budget_curve
from repro.errors import FaultError, FaultPlanError
from repro.experiments.fig9 import CPU_BUDGETS_W, GPU_CAPS_W
from repro.faults.injector import FaultInjector, active, arm, disarm, use_faults
from repro.faults.plan import FaultPlan
from repro.faults.report import ledger
from repro.hardware.meter import RaplPowerMeter
from repro.hardware.nvml import NvmlDevice
from repro.hardware.platforms import ivybridge_node, titan_xp_card
from repro.hardware.rapl import RaplDomainName, RaplInterface
from repro.perfmodel.executor import execute_on_host
from repro.perfmodel.power_trace import sample_power_trace
from repro.workloads import get_workload, list_cpu_workloads, list_gpu_workloads

__all__ = ["ChaosCheck", "ChaosReport", "run_chaos"]

#: Classification outcomes a check can produce.
_OUTCOMES = ("identical", "degraded", "typed-error", "violation")


@dataclass(frozen=True)
class ChaosCheck:
    """One clean-vs-faulted differential comparison."""

    name: str
    outcome: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        """True unless the degradation contract was violated."""
        return self.outcome != "violation"

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "outcome": self.outcome, "detail": self.detail}


@dataclass(frozen=True)
class ChaosReport:
    """The full battery's verdict for one fault plan."""

    plan: FaultPlan
    scale: str
    checks: tuple[ChaosCheck, ...]

    @property
    def ok(self) -> bool:
        """True when no check violated the degradation contract."""
        return all(check.ok for check in self.checks)

    @property
    def violations(self) -> tuple[ChaosCheck, ...]:
        return tuple(check for check in self.checks if not check.ok)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scale": self.scale,
            "ok": self.ok,
            "plan": self.plan.to_dict(),
            "checks": [check.to_dict() for check in self.checks],
        }

    def summary(self) -> str:
        lines = [
            f"chaos contract: {'OK' if self.ok else 'VIOLATED'} "
            f"({len(self.checks)} check(s), scale={self.scale})"
        ]
        for check in self.checks:
            lines.append(f"  [{check.outcome:>11}] {check.name}"
                         + (f" — {check.detail}" if check.detail else ""))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# battery configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Scale:
    """Grid sizes for one battery scale, and the sweep mode it runs in."""

    cpu_workloads: tuple[str, ...]
    gpu_workloads: tuple[str, ...]
    budgets_w: tuple[float, ...]
    caps_w: tuple[float, ...]
    step_w: float
    freq_stride: int
    mode: str = "full"


def _scale_config(scale: str) -> _Scale:
    if scale == "smoke":
        return _Scale(
            cpu_workloads=("stream",),
            gpu_workloads=tuple(list_gpu_workloads()[:1]),
            budgets_w=(176.0, 240.0),
            caps_w=(150.0,),
            step_w=16.0,
            freq_stride=8,
        )
    if scale == "fig9":
        return _Scale(
            cpu_workloads=tuple(list_cpu_workloads()),
            gpu_workloads=tuple(list_gpu_workloads()),
            budgets_w=CPU_BUDGETS_W,
            caps_w=GPU_CAPS_W,
            step_w=8.0,
            freq_stride=4,
        )
    raise FaultPlanError(f"unknown chaos scale {scale!r} (use 'smoke' or 'fig9')")


def _equal(a: Any, b: Any) -> bool:
    """Bit-exact structural equality, including NaN-safe array compares.

    Dataclass ``__eq__`` chokes on numpy-array fields (truth-value
    ambiguity), and ``np.array_equal`` treats NaN as unequal to itself —
    neither is the bit-identity the contract talks about, so arrays are
    compared by shape, dtype, and raw bytes.
    """
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and a.dtype == b.dtype
            and a.tobytes() == b.tobytes()
        )
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        if type(a) is not type(b):
            return False
        return all(
            _equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(_equal(value, b[key]) for key, value in a.items())
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_equal(x, y) for x, y in zip(a, b))
        )
    return bool(a == b)


@contextmanager
def _disarmed() -> Iterator[None]:
    """Run a block with fault injection off, restoring the prior injector."""
    previous = active()
    disarm()
    try:
        yield
    finally:
        if previous is not None:
            arm(previous)


def _run_check(name: str, op: Callable[[], Any], plan: FaultPlan) -> ChaosCheck:
    """Execute ``op`` clean then faulted; classify against the contract.

    ``op`` must build all mutable state internally (engines, RAPL
    counters, caches) so the two legs start identical; it returns the
    comparable value.  The faulted leg runs inside its own
    :func:`~repro.faults.report.ledger`, which collects every event the
    recovery sites record.
    """
    with _disarmed():
        clean = op()
    try:
        with use_faults(FaultInjector(plan)), ledger() as report:
            faulted = op()
    except FaultError as exc:
        return ChaosCheck(name, "typed-error", f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # noqa: BLE001 - the contract forbids these
        return ChaosCheck(
            name, "violation", f"untyped {type(exc).__name__}: {exc}"
        )
    if report.degraded:
        return ChaosCheck(name, "degraded", report.summary())
    if _equal(faulted, clean):
        detail = ""
        if report.events:
            detail = f"recovered cleanly ({report.summary()})"
        return ChaosCheck(name, "identical", detail)
    return ChaosCheck(
        name,
        "violation",
        "faulted result drifted from the clean run with no typed degradation",
    )


# ---------------------------------------------------------------------------
# the battery
# ---------------------------------------------------------------------------


def _check_cpu_sweep(plan: FaultPlan, cfg: _Scale) -> ChaosCheck:
    """Budget curves through the sweep engine (worker + cache sites)."""
    node = ivybridge_node()

    def op() -> Any:
        engine = SweepEngine(mode=cfg.mode)
        return {
            name: cpu_budget_curve(
                node.cpu,
                node.dram,
                get_workload(name),
                cfg.budgets_w,
                step_w=cfg.step_w,
                engine=engine,
            )
            for name in cfg.cpu_workloads
        }

    return _run_check("cpu.sweep-curve", op, plan)


def _check_gpu_sweep(plan: FaultPlan, cfg: _Scale) -> ChaosCheck:
    card = titan_xp_card()
    caps = tuple(c for c in cfg.caps_w if card.min_cap_w <= c <= card.max_cap_w)

    def op() -> Any:
        engine = SweepEngine(mode=cfg.mode)
        return {
            name: gpu_budget_curve(
                card,
                get_workload(name),
                caps,
                freq_stride=cfg.freq_stride,
                engine=engine,
            )
            for name in cfg.gpu_workloads
        }

    return _run_check("gpu.sweep-curve", op, plan)


def _check_cpu_coordinate(plan: FaultPlan, cfg: _Scale) -> ChaosCheck:
    node = ivybridge_node()
    budget = cfg.budgets_w[0]

    def op() -> Any:
        return {
            name: coord_cpu(
                profile_cpu_workload(node.cpu, node.dram, get_workload(name)),
                budget,
            )
            for name in cfg.cpu_workloads
        }

    return _run_check("cpu.coordinate", op, plan)


def _check_gpu_coordinate(plan: FaultPlan, cfg: _Scale) -> ChaosCheck:
    card = titan_xp_card()
    cap = next(
        (c for c in cfg.caps_w if card.min_cap_w <= c <= card.max_cap_w),
        card.max_cap_w,
    )

    def op() -> Any:
        return {
            name: coord_gpu(
                profile_gpu_workload(card, get_workload(name)),
                cap,
                hardware_max_w=card.max_cap_w,
            )
            for name in cfg.gpu_workloads
        }

    return _run_check("gpu.coordinate", op, plan)


def _check_online_shift(plan: FaultPlan, cfg: _Scale) -> ChaosCheck:
    node = ivybridge_node()
    budget = cfg.budgets_w[0]

    def op() -> Any:
        return {
            name: online_power_shift(
                node.cpu, node.dram, get_workload(name), budget
            )
            for name in cfg.cpu_workloads
        }

    return _run_check("online.shift", op, plan)


def _check_meter(plan: FaultPlan, cfg: _Scale) -> ChaosCheck:
    """The RAPL measurement path: counter faults against a replayed trace."""
    node = ivybridge_node()
    wl = get_workload(cfg.cpu_workloads[0])
    result = execute_on_host(
        node.cpu, node.dram, wl.phases, cfg.budgets_w[0] * 0.6, cfg.budgets_w[0] * 0.4
    )
    trace = sample_power_trace(result, dt_s=0.01)

    def op() -> Any:
        rapl = RaplInterface()
        meter = RaplPowerMeter(rapl, RaplDomainName.PACKAGE, poll_interval_s=0.1)
        return meter.observe_trace(trace, "proc")

    return _run_check("meter.observe", op, plan)


def _check_nvml(plan: FaultPlan, cfg: _Scale) -> ChaosCheck:
    card = titan_xp_card()

    def op() -> Any:
        device = NvmlDevice(card)
        return (device.read_power_limit_w(), device.read_mem_clock_offset_mhz())

    return _run_check("nvml.read", op, plan)


def _check_diskcache(plan: FaultPlan, cfg: _Scale) -> ChaosCheck:
    """Write-fault roundtrip: poisoned segments may miss, never lie.

    Classification is bespoke: a reloading process must see either the
    stored value (bit-exact) or a miss for every key — a *wrong* value is
    the violation.  Misses mean the fault landed and the quarantine-and-
    rebuild recovery recomputes them elsewhere, which is a degradation,
    not a contract breach.
    """
    node = ivybridge_node()
    wl = get_workload(cfg.cpu_workloads[0])
    budget = cfg.budgets_w[0]
    stored = {
        ("chaos", i): execute_on_host(
            node.cpu, node.dram, wl.phases, budget - 16.0 * i, 16.0 * (i + 1)
        )
        for i in range(4)
    }

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        with use_faults(FaultInjector(plan)):
            writer = DiskCache(tmp, quarantine=True)
            for key, value in stored.items():
                writer.store(key, value)
                writer.flush()  # one segment per record: independent targets
        with _disarmed():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reader = DiskCache(tmp, quarantine=True)
                wrong = []
                missing = []
                for key, value in stored.items():
                    hit, got = reader.lookup(key)
                    if not hit:
                        missing.append(key)
                    elif got != value:
                        wrong.append(key)
                rebuilt = reader.rebuild()
        if wrong:
            return ChaosCheck(
                "diskcache.roundtrip",
                "violation",
                f"{len(wrong)} reloaded record(s) differ from what was stored",
            )
        if missing:
            return ChaosCheck(
                "diskcache.roundtrip",
                "degraded",
                f"{len(missing)} of {len(stored)} record(s) lost to poisoned "
                f"segments; {rebuilt} record(s) republished by rebuild()",
            )
        return ChaosCheck(
            "diskcache.roundtrip",
            "identical",
            f"all {len(stored)} record(s) survived; store rebuilt to {rebuilt}",
        )


_BATTERY: tuple[Callable[[FaultPlan, _Scale], ChaosCheck], ...] = (
    _check_cpu_sweep,
    _check_gpu_sweep,
    _check_cpu_coordinate,
    _check_gpu_coordinate,
    _check_online_shift,
    _check_meter,
    _check_nvml,
    _check_diskcache,
)


def run_chaos(
    plan: FaultPlan, *, scale: str = "smoke", mode: str = "full"
) -> ChaosReport:
    """Run the full chaos battery for ``plan``; never raises on faults.

    ``scale`` picks the grid: ``"smoke"`` is the CI-sized battery,
    ``"fig9"`` sweeps the paper's Figure 9 budgets and caps on both
    registries.  ``mode`` is the :class:`SweepEngine` sweep mode of the
    two sweep-curve checks (``"full"`` or ``"adaptive"``).  The returned
    report's :attr:`~ChaosReport.ok` is the contract verdict (the CLI
    turns it into the exit code).
    """
    cfg = dataclasses.replace(_scale_config(scale), mode=mode)
    checks = tuple(check(plan, cfg) for check in _BATTERY)
    return ChaosReport(plan=plan, scale=scale, checks=checks)
