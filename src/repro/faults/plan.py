"""Deterministic, JSON-loadable fault plans.

A :class:`FaultPlan` is the single source of truth for *which* faults a
run injects and *when*.  It is fully deterministic: firing decisions are
derived from the plan seed, the injection-site name, and a per-site call
counter through :func:`repro.util.seeds.derive_seed` — no wall clock, no
process-salted hashing — so the same plan against the same call sequence
always injects the same faults, which is what lets the chaos suite
compare a faulted run against a clean oracle bit-for-bit.

Sites are the named hook points threaded through the stack:

========================  ====================================================
``rapl.read``             RAPL energy-counter reads (stuck/dropout/wrap-jump)
``nvml.read``             NVML device queries (transient dropout)
``diskcache.write``       sweep-cache segment publication (torn/corrupt)
``parallel.worker``       sweep-engine task execution (crash/timeout)
``profiler.sample``       critical-power profiling measurements (noise)
``online.signal``         online controller bottleneck readings (noise)
========================  ====================================================
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.errors import FaultPlanError
from repro.util.seeds import DEFAULT_SEED, derive_seed

__all__ = [
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "SITES",
    "fire_draw",
    "noise_draw",
]


class FaultKind(str, enum.Enum):
    """The fault taxonomy (see ``docs/robustness.md``)."""

    #: A read raises :class:`~repro.errors.TransientReadError`.
    DROPOUT = "dropout"
    #: A counter read returns the previously read (stale) value.
    STUCK = "stuck"
    #: The counter register jumps ahead by ``amplitude * 2**32`` ticks.
    WRAP_JUMP = "wrap-jump"
    #: A cache segment is published truncated mid-record.
    TORN_WRITE = "torn-write"
    #: A cache segment is published with a garbled record.
    CORRUPT_WRITE = "corrupt-write"
    #: A sweep task dies with :class:`~repro.errors.WorkerCrashError`.
    WORKER_CRASH = "worker-crash"
    #: A sweep task dies with :class:`~repro.errors.WorkerTimeoutError`.
    WORKER_TIMEOUT = "worker-timeout"
    #: A measurement is multiplied by ``1 + amplitude * u``, ``u ∈ [-1, 1)``.
    NOISE = "noise"


#: Injection sites and the fault kinds each one understands.
SITES: dict[str, tuple[FaultKind, ...]] = {
    "rapl.read": (FaultKind.DROPOUT, FaultKind.STUCK, FaultKind.WRAP_JUMP),
    "nvml.read": (FaultKind.DROPOUT,),
    "diskcache.write": (FaultKind.TORN_WRITE, FaultKind.CORRUPT_WRITE),
    "parallel.worker": (FaultKind.WORKER_CRASH, FaultKind.WORKER_TIMEOUT),
    "profiler.sample": (FaultKind.NOISE,),
    "online.signal": (FaultKind.NOISE,),
}

#: Resolution of the deterministic uniform draw (64-bit seeds → [0, 1)).
_DRAW_SPAN = float(2**64)


def fire_draw(seed: int, site: str, spec_index: int, call_index: int) -> float:
    """Deterministic uniform in ``[0, 1)`` for one (spec, call) decision."""
    return derive_seed(seed, "fire", site, str(spec_index), str(call_index)) / _DRAW_SPAN


def noise_draw(seed: int, site: str, call_index: int) -> float:
    """Deterministic uniform in ``[-1, 1)`` for a noise perturbation."""
    return 2.0 * (derive_seed(seed, "noise", site, str(call_index)) / _DRAW_SPAN) - 1.0


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: a site, a kind, and a deterministic schedule.

    A spec fires at a given call either because the call index appears in
    ``at_calls`` or because the seeded uniform draw lands under
    ``probability``; ``max_fires`` caps the total number of firings so a
    plan can model a bounded burst rather than a permanently broken part.
    """

    site: str
    kind: FaultKind
    probability: float = 0.0
    at_calls: tuple[int, ...] = ()
    max_fires: int | None = None
    #: Relative magnitude for NOISE (measurement perturbation) and
    #: WRAP_JUMP (fraction of the 32-bit register jumped over).
    amplitude: float = 0.25

    def __post_init__(self) -> None:
        allowed = SITES.get(self.site)
        if allowed is None:
            raise FaultPlanError(
                f"unknown injection site {self.site!r}; known sites: "
                f"{', '.join(sorted(SITES))}"
            )
        kind = FaultKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind not in allowed:
            raise FaultPlanError(
                f"site {self.site!r} does not understand fault kind "
                f"{kind.value!r} (allowed: {', '.join(k.value for k in allowed)})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        calls = tuple(int(c) for c in self.at_calls)
        if any(c < 0 for c in calls):
            raise FaultPlanError(f"at_calls must be >= 0, got {calls}")
        object.__setattr__(self, "at_calls", calls)
        if self.probability == 0.0 and not calls:
            raise FaultPlanError(
                f"spec for {self.site!r} can never fire: probability is 0 "
                f"and at_calls is empty"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise FaultPlanError(f"max_fires must be >= 1, got {self.max_fires}")
        if not 0.0 < self.amplitude <= 1.0:
            raise FaultPlanError(
                f"amplitude must be in (0, 1], got {self.amplitude}"
            )
        if kind is FaultKind.WRAP_JUMP and not 0.05 <= self.amplitude <= 0.95:
            # The meter's only defense against a phantom counter jump is
            # the plausibility ceiling; a jump below it is physically
            # indistinguishable from real energy (docs/robustness.md,
            # "detectability boundary").  Modulo the register, a jump of
            # a * 2**32 ticks is also a backward step of (1 - a) * 2**32
            # ticks, so the detectable regime is symmetric: both readings
            # stay >= 0.05 * 2**32 ticks ≈ 3.3 kJ, which at sane polling
            # windows always trips a defense.
            raise FaultPlanError(
                f"wrap-jump amplitude must be in [0.05, 0.95] (detectable "
                f"regime), got {self.amplitude}"
            )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"site": self.site, "kind": self.kind.value}
        if self.probability:
            payload["probability"] = self.probability
        if self.at_calls:
            payload["at_calls"] = list(self.at_calls)
        if self.max_fires is not None:
            payload["max_fires"] = self.max_fires
        payload["amplitude"] = self.amplitude
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultSpec":
        unknown = set(payload) - {
            "site", "kind", "probability", "at_calls", "max_fires", "amplitude"
        }
        if unknown:
            raise FaultPlanError(
                f"unknown fault-spec field(s): {', '.join(sorted(unknown))}"
            )
        try:
            kind = FaultKind(payload["kind"])
        except (KeyError, ValueError) as exc:
            raise FaultPlanError(f"bad fault kind in spec: {exc}") from exc
        return cls(
            site=str(payload.get("site", "")),
            kind=kind,
            probability=float(payload.get("probability", 0.0)),
            at_calls=tuple(payload.get("at_calls", ())),
            max_fires=(
                None if payload.get("max_fires") is None
                else int(payload["max_fires"])
            ),
            amplitude=float(payload.get("amplitude", 0.25)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault specs plus the resilience-policy knobs.

    ``max_attempts`` bounds every retry loop the policies run (meter and
    NVML re-reads, sweep-task resubmission); ``backoff_base_s`` is the
    *simulated* exponential-backoff base recorded in degradation reports
    (the library never sleeps — time is part of the simulation, not the
    host); ``profile_repeats`` is the majority-vote sample count the
    profiler takes per measured quantity while faults are armed.
    """

    seed: int = DEFAULT_SEED
    specs: tuple[FaultSpec, ...] = ()
    max_attempts: int = 3
    backoff_base_s: float = 0.001
    profile_repeats: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        if self.max_attempts < 1:
            raise FaultPlanError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0.0:
            raise FaultPlanError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.profile_repeats < 3 or self.profile_repeats % 2 == 0:
            # A vote of one would trust a possibly-noisy sample, which the
            # degradation contract forbids; three is the smallest real vote.
            raise FaultPlanError(
                f"profile_repeats must be an odd number >= 3, got "
                f"{self.profile_repeats}"
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the plan arms no fault at all."""
        return not self.specs

    def specs_for(self, site: str) -> tuple[tuple[int, FaultSpec], ...]:
        """``(plan_index, spec)`` pairs armed at ``site``."""
        return tuple(
            (i, spec) for i, spec in enumerate(self.specs) if spec.site == site
        )

    @classmethod
    def empty(cls, seed: int = DEFAULT_SEED) -> "FaultPlan":
        """A plan that injects nothing (the disarmed oracle)."""
        return cls(seed=seed, specs=())

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "max_attempts": self.max_attempts,
            "backoff_base_s": self.backoff_base_s,
            "profile_repeats": self.profile_repeats,
            "faults": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        unknown = set(payload) - {
            "seed", "max_attempts", "backoff_base_s", "profile_repeats", "faults"
        }
        if unknown:
            raise FaultPlanError(
                f"unknown fault-plan field(s): {', '.join(sorted(unknown))}"
            )
        raw_specs = payload.get("faults", [])
        if not isinstance(raw_specs, (list, tuple)):
            raise FaultPlanError("'faults' must be a list of fault specs")
        return cls(
            seed=int(payload.get("seed", DEFAULT_SEED)),
            specs=tuple(FaultSpec.from_dict(s) for s in raw_specs),
            max_attempts=int(payload.get("max_attempts", 3)),
            backoff_base_s=float(payload.get("backoff_base_s", 0.001)),
            profile_repeats=int(payload.get("profile_repeats", 3)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise FaultPlanError("fault plan JSON must be an object")
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        """Read a plan from a JSON file."""
        path = Path(path).expanduser()
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise FaultPlanError(f"cannot read fault plan {path}: {exc}") from exc
        return cls.from_json(text)

    def save(self, path: str | Path) -> Path:
        """Write the plan as JSON; returns the path written."""
        path = Path(path).expanduser()
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path
