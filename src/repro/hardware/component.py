"""Common vocabulary for power-boundable components.

The paper defines a component as *power-boundable* "if it can and will always
operate under the specified power cap" (Section 2.2) — with the documented
exception that hardware floors (scenario VI for CPUs, scenario V for DRAM)
may override caps below the minimum operable power.  The
:class:`CappingMechanism` enum names which hardware mechanism a cap engaged;
Section 3.3 maps these mechanisms one-to-one onto the scenario categories.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod

__all__ = ["CappingMechanism", "PowerBoundableComponent"]


class CappingMechanism(enum.Enum):
    """Which hardware power-limiting mechanism a cap engaged.

    These correspond to the transitions described in Section 3.3 of the
    paper: as the cap shrinks, RAPL moves from doing nothing through DVFS
    (P-states), then clock throttling (T-states), and finally bottoms out at
    the hardware floor where the cap can no longer be honoured.
    """

    #: Cap is above the component's maximum demand; no mechanism engaged.
    NONE = "none"
    #: CPU/GPU frequency scaling (P-states) meets the cap.
    DVFS = "dvfs"
    #: Duty-cycle clock throttling (T-states) meets the cap.
    THROTTLE = "throttle"
    #: DRAM bandwidth throttling meets the cap.
    BANDWIDTH_THROTTLE = "bandwidth-throttle"
    #: Cap is below the hardware minimum; the component runs at its floor
    #: and the cap is *not* respected (paper scenarios V/VI).
    FLOOR = "floor"

    @property
    def respects_cap(self) -> bool:
        """Whether this mechanism guarantees actual power stays under the cap."""
        return self is not CappingMechanism.FLOOR


class PowerBoundableComponent(ABC):
    """Abstract base for components that accept a power cap.

    Concrete domains (CPU package, DRAM, GPU SMs, GPU memory) expose:

    * static *demand* bounds — the floor power they consume merely by being
      powered on, and the maximum power they can possibly draw;
    * an *operating point* resolver mapping a cap onto hardware state.

    The operating-point types are domain specific (frequency + duty for
    CPUs, a throttle level for DRAM, ...), so the resolver is declared on
    each concrete class; this ABC pins down the shared demand interface
    used by node-level budgeting.
    """

    #: Human-readable domain name, e.g. ``"package"`` or ``"dram"``.
    name: str

    @property
    @abstractmethod
    def floor_power_w(self) -> float:
        """Minimum power the component consumes while the system runs.

        Caps below this value are disregarded by the hardware (paper:
        ``P_cpu_L4`` and ``P_mem_L3`` are "the same across all applications
        and hardware controlled").
        """

    @property
    @abstractmethod
    def max_power_w(self) -> float:
        """Maximum power the component can draw at full activity."""
