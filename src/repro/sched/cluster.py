"""Cluster model: homogeneous nodes under one global power bound."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SchedulerError
from repro.hardware.node import ComputeNode
from repro.util.units import watts

__all__ = ["Cluster", "NodeSlot"]


@dataclass
class NodeSlot:
    """One node's scheduling state: busy flag and the power charged to it."""

    node: ComputeNode
    busy: bool = False
    charged_w: float = 0.0
    running_job_id: int | None = None


@dataclass
class Cluster:
    """A set of nodes sharing a global power bound.

    The cluster tracks *charged* power — what the scheduler has committed,
    which (thanks to COORD's surplus reporting) can be less than what jobs
    requested.  ``node_factory`` builds fresh nodes so control-plane state
    never leaks across constructions.
    """

    node_factory: Callable[[], ComputeNode]
    n_nodes: int
    global_bound_w: float
    slots: list[NodeSlot] = field(init=False)

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ConfigurationError(f"n_nodes must be > 0, got {self.n_nodes}")
        # watts() alone admits 0.0, under which no job can ever be
        # charged — reject the whole non-positive range with one typed
        # error (NaN fails the > comparison too).
        watts(self.global_bound_w, "global_bound_w")
        if not self.global_bound_w > 0.0:
            raise ConfigurationError(
                f"global_bound_w must be > 0, got {self.global_bound_w}"
            )
        self.slots = [NodeSlot(self.node_factory()) for _ in range(self.n_nodes)]

    # ------------------------------------------------------------------
    # power accounting
    # ------------------------------------------------------------------
    @property
    def charged_w(self) -> float:
        """Total power currently committed across nodes."""
        return sum(s.charged_w for s in self.slots)

    @property
    def headroom_w(self) -> float:
        """Uncommitted power under the global bound, never negative.

        Charged watts are arbitrary floats, so their sum can round a hair
        past a fully committed bound (-5.7e-14 W); that is no headroom,
        not a negative grant.
        """
        return max(0.0, self.global_bound_w - self.charged_w)

    def free_slot(self) -> NodeSlot | None:
        """An idle node, or ``None`` when all are busy."""
        for slot in self.slots:
            if not slot.busy:
                return slot
        return None

    def free_slots(self, k: int) -> list[NodeSlot] | None:
        """``k`` idle nodes, or ``None`` when fewer are available."""
        idle = [slot for slot in self.slots if not slot.busy]
        return idle[:k] if len(idle) >= k else None

    def charge(self, slot: NodeSlot, power_w: float, job_id: int) -> None:
        """Commit power to a node for a job."""
        power_w = watts(power_w, "power_w")
        if slot.busy:
            raise SchedulerError(
                f"node {slot.node.name} already runs job {slot.running_job_id}"
            )
        if power_w > self.headroom_w + 1e-9:
            raise SchedulerError(
                f"charging {power_w:.1f} W exceeds headroom {self.headroom_w:.1f} W"
            )
        slot.busy = True
        slot.charged_w = power_w
        slot.running_job_id = job_id

    def release(self, slot: NodeSlot) -> float:
        """Free a node, returning the power it held."""
        if not slot.busy:
            raise SchedulerError(f"node {slot.node.name} is not busy")
        freed = slot.charged_w
        slot.busy = False
        slot.charged_w = 0.0
        slot.running_job_id = None
        return freed
