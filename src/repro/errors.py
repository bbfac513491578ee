"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch the whole family with one handler while still being able to distinguish
configuration problems from runtime/simulation problems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "UnitError",
    "PowerBoundError",
    "InfeasibleBudgetError",
    "BudgetTooSmallError",
    "UnknownWorkloadError",
    "UnknownPlatformError",
    "ProfilingError",
    "ProtocolError",
    "ServeError",
    "SweepError",
    "ConvergenceError",
    "SchedulerError",
    "FaultError",
    "FaultPlanError",
    "TransientReadError",
    "MeterReadError",
    "NvmlReadError",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "WorkerRetryExhaustedError",
    "ProfilingDegradedError",
]


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """A model, platform, or workload was configured with invalid parameters."""


class UnitError(ConfigurationError):
    """A physical quantity was supplied with an invalid value (e.g. negative watts)."""


class PowerBoundError(ReproError):
    """A power cap request cannot be represented or enforced by the hardware model."""


class InfeasibleBudgetError(PowerBoundError):
    """A total power budget cannot be met even at the lowest hardware states."""


class BudgetTooSmallError(PowerBoundError):
    """COORD rejected the budget because the job would run unproductively.

    Mirrors the ``Warning: budget too small!`` branch of Algorithm 1 in the
    paper: budgets below ``P_cpu_L2 + P_mem_L2`` are refused rather than
    allocated.
    """

    def __init__(self, budget_w: float, threshold_w: float) -> None:
        self.budget_w = float(budget_w)
        self.threshold_w = float(threshold_w)
        super().__init__(
            f"power budget {budget_w:.1f} W is below the productive threshold "
            f"{threshold_w:.1f} W; refusing to allocate (paper Algorithm 1, case D)"
        )


class UnknownWorkloadError(ReproError, KeyError):
    """A workload name was not found in the registered suites."""


class UnknownPlatformError(ReproError, KeyError):
    """A platform name was not found in the registered presets."""


class ProfilingError(ReproError):
    """Lightweight profiling failed to extract critical power values."""


class SweepError(ReproError):
    """A power-allocation sweep was requested with an empty or invalid grid."""


class ConvergenceError(ReproError):
    """The executor's power/performance fixed point failed to converge."""

    def __init__(self, iterations: int, residual: float) -> None:
        self.iterations = int(iterations)
        self.residual = float(residual)
        super().__init__(
            f"fixed-point executor did not converge after {iterations} "
            f"iterations (residual {residual:.3e})"
        )


class SchedulerError(ReproError):
    """The power-bounded batch scheduler was driven into an invalid state."""


# ---------------------------------------------------------------------------
# coordination-as-a-service (repro.serve)
# ---------------------------------------------------------------------------

class ServeError(ReproError):
    """The coordination server was misconfigured or driven into an invalid state."""


class ProtocolError(ServeError):
    """A wire message violated the newline-delimited JSON protocol.

    Raised (and answered with an ``ok: false`` envelope) for frames that
    are not valid JSON objects, miss required fields, or name an unknown
    query operation — the connection stays up; one bad frame never takes
    down a client, let alone the server.
    """


# ---------------------------------------------------------------------------
# fault injection and resilience (repro.faults)
# ---------------------------------------------------------------------------

class FaultError(ReproError):
    """Base class for every typed fault/degradation outcome.

    The degradation contract of :mod:`repro.faults` is that a public API
    running under an armed fault plan either returns a result that is
    bit-identical to the clean run or raises/reports through this family
    — a silently drifted result is never an allowed outcome.
    """


class FaultPlanError(FaultError, ConfigurationError):
    """A fault plan was malformed (unknown site, bad kind, invalid schedule)."""


class TransientReadError(FaultError):
    """A single telemetry read (RAPL counter, NVML query) failed transiently.

    Retryable by design: resilience policies catch this type and re-read
    within a bounded attempt budget.
    """

    def __init__(self, site: str, call_index: int) -> None:
        self.site = site
        self.call_index = int(call_index)
        super().__init__(
            f"transient read failure at {site!r} (call #{call_index})"
        )


class MeterReadError(FaultError):
    """A power-meter read could not be recovered within the retry budget."""


class NvmlReadError(FaultError):
    """An NVML device query could not be recovered within the retry budget."""


class WorkerCrashError(FaultError):
    """A sweep worker crashed while executing a task (retryable)."""


class WorkerTimeoutError(FaultError):
    """A sweep worker exceeded its deadline while executing a task (retryable)."""


class WorkerRetryExhaustedError(FaultError):
    """A sweep task kept failing past the engine's resubmission budget."""

    def __init__(self, attempts: int, last: Exception) -> None:
        self.attempts = int(attempts)
        self.last = last
        super().__init__(
            f"sweep task failed {attempts} consecutive attempt(s); "
            f"retry budget exhausted (last: {last})"
        )


class ProfilingDegradedError(FaultError, ProfilingError):
    """Repeated profiling samples disagreed beyond the majority policy.

    Raised instead of returning critical power values that would feed a
    silently wrong allocation into COORD.
    """

    def __init__(
        self, site: str, samples: tuple[tuple[float, ...], ...]
    ) -> None:
        self.site = site
        #: Every repeat's full sample, in the order the repeats ran.
        self.samples = tuple(tuple(float(v) for v in s) for s in samples)
        super().__init__(
            f"no strict majority among {len(samples)} profiling samples at "
            f"{site!r}; measurement too noisy to trust"
        )
