"""ExecutionResult aggregates."""

import math
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hardware.component import CappingMechanism
from repro.perfmodel.metrics import ExecutionResult, PhaseResult

from tests.conftest import property_settings


def phase_result(name="p", time_s=1.0, proc_w=100.0, mem_w=50.0, board_w=0.0,
                 flops=1e9, bytes_moved=1e9, proc_mech=CappingMechanism.NONE,
                 mem_mech=CappingMechanism.NONE, util=0.5, busy=0.5):
    return PhaseResult(
        name=name, time_s=time_s, t_compute_s=util * time_s,
        t_memory_s=busy * time_s, utilization=util, mem_busy=busy,
        proc_freq_ghz=2.5, proc_duty=1.0, mem_throttle=1.0,
        proc_mechanism=proc_mech, mem_mechanism=mem_mech,
        proc_power_w=proc_w, mem_power_w=mem_w, board_power_w=board_w,
        flops=flops, bytes_moved=bytes_moved,
    )


class TestPhaseResult:
    def test_total_power(self):
        p = phase_result(proc_w=100.0, mem_w=50.0, board_w=10.0)
        assert p.total_power_w == 160.0

    def test_energy(self):
        p = phase_result(time_s=2.0, proc_w=100.0, mem_w=50.0)
        assert p.energy_j == pytest.approx(300.0)

    def test_rates(self):
        p = phase_result(time_s=2.0, flops=4e9, bytes_moved=2e9)
        assert p.achieved_flops_rate == pytest.approx(2e9)
        assert p.achieved_bytes_rate == pytest.approx(1e9)


class TestExecutionResult:
    def test_requires_phases(self):
        with pytest.raises(ConfigurationError):
            ExecutionResult((), proc_cap_w=None, mem_cap_w=None)

    def test_time_weighted_power(self):
        r = ExecutionResult(
            (
                phase_result(time_s=1.0, proc_w=100.0),
                phase_result(time_s=3.0, proc_w=200.0),
            ),
            proc_cap_w=None,
            mem_cap_w=None,
        )
        assert r.proc_power_w == pytest.approx((100 + 3 * 200) / 4)

    def test_totals(self):
        r = ExecutionResult(
            (phase_result(flops=1e9), phase_result(flops=3e9)),
            proc_cap_w=None, mem_cap_w=None,
        )
        assert r.total_flops == pytest.approx(4e9)
        assert r.elapsed_s == pytest.approx(2.0)
        assert r.flops_rate == pytest.approx(2e9)

    def test_dominant_mechanism_by_time(self):
        r = ExecutionResult(
            (
                phase_result(time_s=1.0, proc_mech=CappingMechanism.NONE),
                phase_result(time_s=5.0, proc_mech=CappingMechanism.DVFS),
            ),
            proc_cap_w=None, mem_cap_w=None,
        )
        assert r.proc_mechanism is CappingMechanism.DVFS

    def test_respects_bound_is_power_based(self):
        # A floored domain violates the bound only if it actually draws
        # more than its cap.
        over = ExecutionResult(
            (phase_result(proc_w=100.0, proc_mech=CappingMechanism.FLOOR),),
            proc_cap_w=80.0, mem_cap_w=None,
        )
        assert not over.respects_bound
        under = ExecutionResult(
            (phase_result(mem_w=30.0, mem_mech=CappingMechanism.FLOOR),),
            proc_cap_w=None, mem_cap_w=40.0,
        )
        assert under.respects_bound

    def test_respects_bound_gpu_checks_board_total(self):
        r = ExecutionResult(
            (phase_result(proc_w=150.0, mem_w=60.0, board_w=20.0),),
            proc_cap_w=220.0, mem_cap_w=70.0, device="gpu",
        )
        assert not r.respects_bound  # 230 W board > 220 W cap
        r2 = ExecutionResult(
            (phase_result(proc_w=150.0, mem_w=60.0, board_w=20.0),),
            proc_cap_w=240.0, mem_cap_w=70.0, device="gpu",
        )
        assert r2.respects_bound

    def test_uncapped_always_respects(self):
        r = ExecutionResult(
            (phase_result(proc_mech=CappingMechanism.FLOOR),),
            proc_cap_w=None, mem_cap_w=None,
        )
        assert r.respects_bound

    def test_energy_sums_domains(self):
        r = ExecutionResult(
            (phase_result(time_s=2.0, proc_w=100.0, mem_w=40.0, board_w=10.0),),
            proc_cap_w=None, mem_cap_w=None,
        )
        assert r.proc_energy_j == pytest.approx(200.0)
        assert r.mem_energy_j == pytest.approx(80.0)
        assert r.energy_j == pytest.approx(300.0)


# ---------------------------------------------------------------------------
# single-phase shortcuts vs the general (multi-phase) expressions
# ---------------------------------------------------------------------------

#: Values every drawn float may take beside arbitrary ones: both zeros,
#: the smallest subnormals, the largest subnormal, infinities and NaN.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               math.inf, -math.inf, math.nan)
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
mechanisms = st.sampled_from(list(CappingMechanism))
single_phases = st.builds(
    phase_result,
    time_s=floats, proc_w=floats, mem_w=floats, board_w=floats,
    flops=floats, bytes_moved=floats, proc_mech=mechanisms,
    mem_mech=mechanisms, util=floats, busy=floats,
)


def outcome(fn):
    """What ``fn()`` gives, comparable bit for bit: a float as its IEEE
    bytes (so ``-0.0`` and ``0.0`` differ and NaN equals itself), any
    other value with its type, or the type and message it raises."""
    try:
        value = fn()
    except Exception as exc:  # the error is the outcome
        return ("raises", type(exc), str(exc))
    if type(value) is float:
        return ("float", struct.pack("<d", value))
    return (type(value), value)


class TestSinglePhaseShortcuts:
    """A one-phase result reads its phase directly; every shortcut must
    give exactly what the general expression gives, raising included."""

    @property_settings(200)
    @given(
        phase=single_phases,
        proc_cap=st.one_of(st.none(), floats),
        mem_cap=st.one_of(st.none(), floats),
        device=st.sampled_from(["host", "gpu"]),
    )
    @example(phase=phase_result(time_s=-0.0, util=0.5, busy=-0.0, flops=-0.0,
                                bytes_moved=-0.0),
             proc_cap=None, mem_cap=-0.0, device="host")
    @example(phase=phase_result(time_s=5e-324, util=math.inf, busy=math.nan),
             proc_cap=math.nan, mem_cap=math.inf, device="gpu")
    # Power exactly at cap + 1e-6 (the bound's tolerance) respects it.
    @example(phase=phase_result(proc_w=100.0, mem_w=40.0 + 1e-6),
             proc_cap=100.0, mem_cap=40.0, device="host")
    @example(phase=phase_result(proc_w=230.0 + 1e-6, mem_w=0.0, board_w=0.0),
             proc_cap=230.0, mem_cap=None, device="gpu")
    def test_shortcuts_match_the_general_expressions(
        self, phase, proc_cap, mem_cap, device
    ):
        r = ExecutionResult((phase,), proc_cap, mem_cap, device)
        general = {
            "elapsed_s": lambda: sum(p.time_s for p in r.phases),
            "total_flops": lambda: sum(p.flops for p in r.phases),
            "total_bytes": lambda: sum(p.bytes_moved for p in r.phases),
            "utilization": lambda: r._weighted([p.utilization for p in r.phases]),
            "mem_busy": lambda: r._weighted([p.mem_busy for p in r.phases]),
            "proc_mechanism": lambda: r._dominant([p.proc_mechanism for p in r.phases]),
            "mem_mechanism": lambda: r._dominant([p.mem_mechanism for p in r.phases]),
            # The bound check is an all() over phases: the same phase twice
            # runs the general path with the single phase's answer.
            "respects_bound": lambda: ExecutionResult(
                (phase, phase), proc_cap, mem_cap, device
            ).respects_bound,
        }
        for name, expression in general.items():
            assert outcome(lambda: getattr(r, name)) == outcome(expression), name
