"""NVML/nvidia-settings-style control interface for the GPU card model.

Mirrors the two knobs the paper drives on its Titan cards:

* ``nvidia-smi -pl`` → :meth:`NvmlDevice.set_power_limit` — the board-level
  cap, validated against the driver range (min ... 300 W);
* ``nvidia-settings`` memory frequency offsets →
  :meth:`NvmlDevice.set_mem_clock_offset`.

It also encodes the *default* Nvidia capping policy the paper criticizes in
Section 6.3: "it always runs memory at the nominal (the highest stable)
speed, no matter what is the imposed total power cap or what application is
running".  :meth:`NvmlDevice.apply_default_policy` resets the memory clock to
nominal; the COORD comparison in Figure 9 measures what that obliviousness
costs.
"""

from __future__ import annotations

from repro.errors import NvmlReadError, TransientReadError
from repro.faults.injector import active as _faults_active
from repro.faults.policies import retry_transient
from repro.hardware.gpu import GpuCard
from repro.hardware.gpu_mem import GpuMemOperatingPoint

__all__ = ["NvmlDevice"]


def _maybe_fail_read() -> None:
    """Fault-injection site ``"nvml.read"`` (transient query dropout).

    Mirrors how real NVML presents: ``nvmlDeviceGetPowerManagementLimit``
    and friends intermittently return ``NVML_ERROR_UNKNOWN`` /
    ``GPU_IS_LOST`` under driver load, and the standard response is a
    bounded retry.  Disarmed, this is a no-op.
    """
    injector = _faults_active()
    if injector is not None:
        event = injector.check("nvml.read")
        if event is not None:
            raise TransientReadError("nvml.read", event.call_index)


class NvmlDevice:
    """Stateful driver handle for one :class:`~repro.hardware.gpu.GpuCard`."""

    def __init__(self, card: GpuCard) -> None:
        self.card = card
        self._power_limit_w = card.default_cap_w
        self._mem_op = card.mem.operating_point(card.mem.nominal_mhz)

    # ------------------------------------------------------------------
    # power limit (nvidia-smi -pl)
    # ------------------------------------------------------------------
    @property
    def power_limit_w(self) -> float:
        """The active board power cap (raw query; may drop out under faults)."""
        _maybe_fail_read()
        return self._power_limit_w

    def read_power_limit_w(self) -> float:
        """The board cap, retried against transient query failures.

        Exhausting the armed plan's attempt budget raises
        :class:`~repro.errors.NvmlReadError`; disarmed this is exactly
        the :attr:`power_limit_w` property.
        """
        return self._read_resilient(lambda: self.power_limit_w)

    def _read_resilient(self, query):
        injector = _faults_active()
        if injector is None:
            return query()
        plan = injector.plan
        try:
            return retry_transient(
                query,
                site="nvml.read",
                max_attempts=plan.max_attempts,
                backoff_base_s=plan.backoff_base_s,
            )
        except TransientReadError as exc:
            raise NvmlReadError(
                f"NVML query on {self.card.name!r} failed "
                f"{plan.max_attempts} consecutive attempt(s)"
            ) from exc

    def set_power_limit(self, cap_w: float) -> float:
        """Set the board cap; raises outside the driver-enforced range."""
        self._power_limit_w = self.card.validate_cap(cap_w)
        return self._power_limit_w

    def reset_power_limit(self) -> float:
        """Restore the factory default cap (250 W on the paper's cards)."""
        self._power_limit_w = self.card.default_cap_w
        return self._power_limit_w

    # ------------------------------------------------------------------
    # memory clock (nvidia-settings offsets)
    # ------------------------------------------------------------------
    @property
    def mem_operating_point(self) -> GpuMemOperatingPoint:
        """The active memory-clock operating point."""
        return self._mem_op

    @property
    def mem_clock_offset_mhz(self) -> float:
        """Current offset relative to the nominal memory clock."""
        _maybe_fail_read()
        return self._mem_op.offset_mhz(self.card.mem.nominal_mhz)

    def read_mem_clock_offset_mhz(self) -> float:
        """The memory-clock offset, retried against transient failures."""
        return self._read_resilient(lambda: self.mem_clock_offset_mhz)

    def set_mem_clock_offset(self, offset_mhz: float) -> GpuMemOperatingPoint:
        """Apply a frequency offset; the driver snaps it onto its grid."""
        target = self.card.mem.nominal_mhz + float(offset_mhz)
        self._mem_op = self.card.mem.operating_point(target)
        return self._mem_op

    def set_mem_power_target(self, target_w: float) -> GpuMemOperatingPoint:
        """Steer memory power via the clock, using the empirical model.

        This is the translation layer COORD needs: the heuristic reasons in
        watts, the driver knob is a frequency offset.
        """
        self._mem_op = self.card.mem.operating_point_for_power(target_w)
        return self._mem_op

    # ------------------------------------------------------------------
    # default policy
    # ------------------------------------------------------------------
    def apply_default_policy(self, cap_w: float | None = None) -> None:
        """The stock Nvidia behaviour: memory at nominal, cap on the board.

        Any power not used by the memory is reclaimed for the SM clock by
        the firmware (see :meth:`repro.hardware.gpu.GpuCard.sm_budget_w`),
        but the memory clock itself is never lowered — the application- and
        budget-oblivious strategy Figure 9 compares COORD against.
        """
        if cap_w is not None:
            self.set_power_limit(cap_w)
        self._mem_op = self.card.mem.operating_point(self.card.mem.nominal_mhz)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"NvmlDevice({self.card.name!r}, limit={self._power_limit_w:.0f} W, "
            f"mem={self._mem_op.freq_mhz:.0f} MHz)"
        )
