"""Sampling power meters over RAPL energy counters.

The paper's measurements difference RAPL's energy-status MSRs at a fixed
polling interval.  This module reproduces that measurement path — with its
real-world wrinkle, the 32-bit register wrap — so that everything reported
as "actual power" can also be observed the way a deployment would observe
it, rather than read out of the simulator's internals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, MeterReadError, TransientReadError
from repro.faults.injector import FaultInjector
from repro.faults.injector import active as _faults_active
from repro.faults.policies import retry_transient
from repro.faults.report import record
from repro.hardware.rapl import (
    ENERGY_UNIT_J,
    MsrEnergyCounter,
    RaplDomainName,
    RaplInterface,
)
from repro.perfmodel.power_trace import PowerTrace
from repro.util.units import check_positive

__all__ = ["MeterReading", "RaplPowerMeter"]


@dataclass(frozen=True)
class MeterReading:
    """One polling window's measurement."""

    t_start_s: float
    t_end_s: float
    energy_j: float

    @property
    def power_w(self) -> float:
        return self.energy_j / (self.t_end_s - self.t_start_s)


class RaplPowerMeter:
    """Polls a RAPL domain's energy counter and reports per-window power.

    The meter never sees instantaneous power — only energy deltas between
    polls.  Single wraps are reconstructed modularly; *multiple* wraps in
    one window alias to a small residue, so each window's delta is
    disambiguated against an energy expectation (``expected_power_w``
    when given, else the previous window's measurement) — at sane polling
    rates the correction is exactly zero and the arithmetic is the plain
    single-wrap difference.

    ``max_power_w`` is a plausibility ceiling: a window implying more
    power than the node could physically draw (default 10 kW — an order
    of magnitude above any modeled platform) marks a broken counter and
    raises :class:`~repro.errors.MeterReadError` rather than reporting a
    phantom measurement.  The honest physics boundary: a phantom counter
    jump *below* the ceiling is indistinguishable from real energy by any
    single-counter meter — the chaos suite fuzzes the detectable regime.

    Under an armed fault plan the meter also defends each poll: transient
    read failures are retried within the plan's attempt budget, and a
    stuck register (zero delta while energy was recorded) is re-read;
    exhaustion raises :class:`~repro.errors.MeterReadError`.
    """

    def __init__(
        self,
        rapl: RaplInterface,
        domain: RaplDomainName,
        poll_interval_s: float = 0.1,
        *,
        max_power_w: float = 10_000.0,
        expected_power_w: float | None = None,
    ) -> None:
        self.rapl = rapl
        self.domain = domain
        self.poll_interval_s = check_positive(poll_interval_s, "poll_interval_s")
        self.max_power_w = check_positive(max_power_w, "max_power_w")
        self.expected_power_w = (
            None
            if expected_power_w is None
            else check_positive(expected_power_w, "expected_power_w")
        )

    def _poll_raw(self, injector: FaultInjector | None) -> int:
        """One counter read, retried against transient faults when armed."""
        if injector is None:
            return self.rapl.read_energy_raw(self.domain)
        plan = injector.plan
        try:
            return retry_transient(
                lambda: self.rapl.read_energy_raw(self.domain),
                site="rapl.read",
                max_attempts=plan.max_attempts,
                backoff_base_s=plan.backoff_base_s,
            )
        except TransientReadError as exc:
            raise MeterReadError(
                f"RAPL {self.domain.value} counter unreadable after "
                f"{plan.max_attempts} attempt(s)"
            ) from exc

    def observe_trace(
        self, trace: PowerTrace, domain_select: str = "proc"
    ) -> list[MeterReading]:
        """Replay a sampled trace into the counter, polling as we go.

        ``domain_select`` picks which trace channel feeds this domain's
        counter (``"proc"``, ``"mem"`` or ``"total"``).  Returns one
        reading per polling window, reconstructed purely from raw counter
        values — the same arithmetic a real meter performs.  Fault
        recoveries go to the open :func:`~repro.faults.report.ledger`.
        """
        channel = {
            "proc": trace.proc_w,
            "mem": trace.mem_w,
            "total": trace.total_w,
        }.get(domain_select)
        if channel is None:
            raise ConfigurationError(
                f"domain_select must be proc/mem/total, got {domain_select!r}"
            )
        samples_per_poll = max(1, int(round(self.poll_interval_s / trace.dt_s)))
        readings: list[MeterReading] = []
        injector = _faults_active()
        prev_raw = self._poll_raw(injector)
        prev_energy_j: float | None = None
        t = 0.0
        for start in range(0, channel.size, samples_per_poll):
            chunk = channel[start : start + samples_per_poll]
            energy = float(chunk.sum() * trace.dt_s)
            self.rapl.record_energy(self.domain, energy)
            now_raw = self._poll_raw(injector)
            # A window below half a counter tick legitimately leaves the
            # register unmoved; anything larger that reads back unchanged
            # is a stuck register.
            if (
                injector is not None
                and now_raw == prev_raw
                and energy >= 0.5 * ENERGY_UNIT_J
            ):
                now_raw = self._reread_stuck(injector, prev_raw)
            window = chunk.size * trace.dt_s
            expected_j = prev_energy_j
            if self.expected_power_w is not None:
                expected_j = self.expected_power_w * window
            delta_j = MsrEnergyCounter.delta_joules(
                prev_raw, now_raw, expected_j=expected_j
            )
            if delta_j > self.max_power_w * window:
                raise MeterReadError(
                    f"RAPL {self.domain.value} window at t={t:.3f}s implies "
                    f"{delta_j / window:.0f} W, above the {self.max_power_w:.0f} W "
                    f"plausibility ceiling; counter is lying (phantom jump?)"
                )
            readings.append(
                MeterReading(t_start_s=t, t_end_s=t + window, energy_j=delta_j)
            )
            prev_raw = now_raw
            prev_energy_j = delta_j
            t += window
        return readings

    def _reread_stuck(self, injector: FaultInjector, prev_raw: int) -> int:
        """Re-read a register that returned its previous value mid-run.

        Energy was recorded but the read did not move — either the
        register is stuck or a STUCK fault replayed the old value.  Extra
        reads within the plan's attempt budget resolve a transient; a
        register that stays frozen is a dead counter.
        """
        plan = injector.plan
        for attempt in range(1, plan.max_attempts):
            raw = self._poll_raw(injector)
            if raw != prev_raw:
                record(
                    "rapl.read",
                    "retried",
                    attempts=attempt + 1,
                    detail="stuck register read recovered by re-read",
                )
                return raw
        raise MeterReadError(
            f"RAPL {self.domain.value} counter frozen across "
            f"{plan.max_attempts} read(s) while energy was being consumed"
        )

    @staticmethod
    def average_power_w(readings: list[MeterReading]) -> float:
        """Time-weighted average power over a set of readings."""
        if not readings:
            raise ConfigurationError("no meter readings to average")
        total_t = sum(r.t_end_s - r.t_start_s for r in readings)
        total_e = sum(r.energy_j for r in readings)
        return total_e / total_t

    @staticmethod
    def max_window_power_w(readings: list[MeterReading]) -> float:
        """Worst single-window power — what a cap auditor checks."""
        if not readings:
            raise ConfigurationError("no meter readings to inspect")
        return max(r.power_w for r in readings)

    def as_array(self, readings: list[MeterReading]) -> np.ndarray:
        """Reading powers as an array (for compliance checks/plotting)."""
        return np.array([r.power_w for r in readings])
