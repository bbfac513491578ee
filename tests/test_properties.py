"""Property-based tests (hypothesis) on core invariants.

Each property is an invariant the paper's framework depends on; hypothesis
drives them across arbitrary-but-valid workloads, caps and budgets.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.coord import coord_cpu
from repro.core.coord_gpu import coord_gpu
from repro.core.critical import CpuCriticalPowers, GpuCriticalPowers
from repro.core.scenario import GPU_SCENARIOS, Scenario, classify_cpu, classify_gpu
from repro.hardware.component import CappingMechanism
from repro.hardware.platforms import ivybridge_node, titan_xp_card
from repro.hardware.rapl import ENERGY_UNIT_J, MsrEnergyCounter
from repro.perfmodel.executor import execute_on_gpu, execute_on_host
from repro.perfmodel.phase import Phase

from tests.conftest import property_settings

# Module-scoped models: domains are immutable, reuse is safe.
NODE = ivybridge_node()
CARD = titan_xp_card()

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

phases = st.builds(
    Phase,
    name=st.just("hyp"),
    flops=st.floats(1e6, 1e13),
    bytes_moved=st.floats(1e6, 1e13),
    activity=st.floats(0.05, 1.0),
    stall_activity=st.floats(0.0, 0.6),
    compute_efficiency=st.floats(1e-4, 1.0),
    memory_efficiency=st.floats(0.02, 1.0),
)

cpu_caps = st.floats(0.0, 400.0)
mem_caps = st.floats(0.0, 250.0)


@st.composite
def cpu_criticals(draw):
    """Profiles with the orderings real profiling always produces.

    ``mem_l2 <= mem_l1`` holds physically: DRAM draws less when the CPU is
    floored (fewer requests) than at full speed.
    """
    l4 = draw(st.floats(20.0, 60.0))
    l3 = l4 + draw(st.floats(0.0, 10.0))
    l2 = l3 + draw(st.floats(0.0, 40.0))
    l1 = l2 + draw(st.floats(0.0, 120.0))
    m3 = draw(st.floats(10.0, 80.0))
    m1 = draw(st.floats(5.0, 140.0))
    m2 = m1 * draw(st.floats(0.1, 1.0))
    return CpuCriticalPowers(
        cpu_l1=l1, cpu_l2=l2, cpu_l3=l3, cpu_l4=l4,
        mem_l1=m1, mem_l2=m2, mem_l3=m3,
    )


@st.composite
def gpu_criticals(draw):
    """Profiles with the orderings real GPU profiling always produces.

    ``tot_min >= mem_max`` holds physically: even the minimum total
    includes board static power and the SM floor on top of memory.
    """
    m_min = draw(st.floats(10.0, 50.0))
    m_max = m_min + draw(st.floats(0.0, 40.0))
    t_min = m_max + draw(st.floats(10.0, 120.0))
    t_ref = t_min + draw(st.floats(0.0, 80.0))
    t_max = t_ref + draw(st.floats(0.0, 120.0))
    return GpuCriticalPowers(
        tot_max=t_max, tot_ref=t_ref, tot_min=t_min, mem_min=m_min, mem_max=m_max
    )


# ---------------------------------------------------------------------------
# executor invariants
# ---------------------------------------------------------------------------


class TestExecutorProperties:
    @property_settings(60)
    @given(phase=phases, cpu_cap=cpu_caps, mem_cap=mem_caps)
    def test_caps_respected_unless_floored(self, phase, cpu_cap, mem_cap):
        r = execute_on_host(NODE.cpu, NODE.dram, (phase,), cpu_cap, mem_cap)
        ph = r.phases[0]
        if ph.proc_mechanism.respects_cap:
            assert ph.proc_power_w <= cpu_cap + 1e-6
        if ph.mem_mechanism.respects_cap:
            assert ph.mem_power_w <= mem_cap + 1e-6

    @property_settings(60)
    @given(phase=phases, cpu_cap=cpu_caps, mem_cap=mem_caps)
    def test_times_and_powers_sane(self, phase, cpu_cap, mem_cap):
        r = execute_on_host(NODE.cpu, NODE.dram, (phase,), cpu_cap, mem_cap)
        ph = r.phases[0]
        assert ph.time_s > 0
        assert 0.0 <= ph.utilization <= 1.0
        assert 0.0 <= ph.mem_busy <= 1.0
        assert ph.proc_power_w >= NODE.cpu.idle_power_w - 1e-9
        assert ph.mem_power_w >= NODE.dram.background_w - 1e-9
        assert ph.proc_power_w <= NODE.cpu.max_power_w + 1e-9
        assert ph.mem_power_w <= NODE.dram.max_power_w + 1e-9

    @property_settings(40)
    @given(phase=phases, mem_cap=st.floats(30.0, 250.0))
    def test_perf_monotone_in_cpu_cap(self, phase, mem_cap):
        rates = [
            execute_on_host(NODE.cpu, NODE.dram, (phase,), c, mem_cap).flops_rate
            for c in (60.0, 120.0, 200.0)
        ]
        assert rates[0] <= rates[1] + 1e-6 and rates[1] <= rates[2] + 1e-6

    @property_settings(40)
    @given(phase=phases, cpu_cap=st.floats(50.0, 400.0))
    def test_perf_monotone_in_mem_cap(self, phase, cpu_cap):
        # More memory power is NOT unconditionally better: a faster memory
        # system reduces stalls, which raises effective CPU activity, and a
        # power-starved processor must then throttle harder — end-to-end
        # performance can legitimately drop (the cross-component coupling
        # the paper's coordinator exists to manage).  The monotone claims
        # that do hold: memory service time never increases with the memory
        # cap, and flops rate is monotone whenever the processor stays
        # power-unconstrained across the sweep.
        results = [
            execute_on_host(NODE.cpu, NODE.dram, (phase,), cpu_cap, m)
            for m in (50.0, 90.0, 140.0)
        ]
        t_mem = [r.phases[0].t_memory_s for r in results]
        assert t_mem[0] >= t_mem[1] - 1e-12 and t_mem[1] >= t_mem[2] - 1e-12
        if all(
            r.phases[0].proc_mechanism is CappingMechanism.NONE for r in results
        ):
            rates = [r.flops_rate for r in results]
            assert rates[0] <= rates[1] + 1e-6 and rates[1] <= rates[2] + 1e-6

    @property_settings(50)
    @given(phase=phases, cpu_cap=cpu_caps, mem_cap=mem_caps)
    def test_classification_total(self, phase, cpu_cap, mem_cap):
        r = execute_on_host(NODE.cpu, NODE.dram, (phase,), cpu_cap, mem_cap)
        assert classify_cpu(r) in Scenario

    @property_settings(40)
    @given(phase=phases, cap=st.floats(125.0, 300.0), ratio=st.floats(0.0, 1.0))
    def test_gpu_cap_respected(self, phase, cap, ratio):
        freq = CARD.mem.min_mhz + ratio * (CARD.mem.nominal_mhz - CARD.mem.min_mhz)
        r = execute_on_gpu(CARD, (phase,), cap, freq)
        if r.respects_bound:
            assert r.total_power_w <= cap + 1e-6
        assert classify_gpu(r) in GPU_SCENARIOS


# ---------------------------------------------------------------------------
# COORD invariants
# ---------------------------------------------------------------------------


class TestCoordProperties:
    @property_settings(120)
    @given(critical=cpu_criticals(), budget=st.floats(1.0, 500.0))
    def test_accepted_allocations_respect_budget(self, critical, budget):
        d = coord_cpu(critical, budget)
        if d.accepted:
            assert d.allocation.total_w <= budget + 1e-6
            assert d.allocation.proc_w >= 0 and d.allocation.mem_w >= 0

    @property_settings(120)
    @given(critical=cpu_criticals(), budget=st.floats(1.0, 500.0))
    def test_rejection_iff_below_threshold(self, critical, budget):
        d = coord_cpu(critical, budget)
        assert d.accepted == (budget >= critical.productive_threshold_w)

    @property_settings(120)
    @given(critical=cpu_criticals(), budget=st.floats(1.0, 500.0))
    def test_surplus_accounting(self, critical, budget):
        d = coord_cpu(critical, budget)
        if d.surplus_w > 0:
            assert d.allocation.total_w + d.surplus_w == pytest.approx(budget)
            assert d.allocation.proc_w == pytest.approx(critical.cpu_l1)
            assert d.allocation.mem_w == pytest.approx(critical.mem_l1)

    @property_settings(100)
    @given(critical=cpu_criticals(), budget=st.floats(1.0, 500.0))
    def test_memory_priority_in_case_b(self, critical, budget):
        d = coord_cpu(critical, budget)
        if (
            d.accepted
            and critical.cpu_l2 + critical.mem_l1
            <= budget
            < critical.cpu_l1 + critical.mem_l1
        ):
            assert d.allocation.mem_w == pytest.approx(critical.mem_l1)

    @property_settings(120)
    @given(
        critical=gpu_criticals(),
        budget=st.floats(50.0, 400.0),
        gamma=st.floats(0.0, 1.0),
    )
    def test_gpu_allocation_within_budget_and_range(self, critical, budget, gamma):
        d = coord_gpu(critical, budget, hardware_max_w=300.0, gamma=gamma)
        assert d.allocation.total_w <= budget + 1e-6
        assert critical.mem_min - 1e-9 <= d.allocation.mem_w <= critical.mem_max + 1e-9

    @property_settings(80)
    @given(critical=cpu_criticals(), budget=st.floats(1.0, 500.0))
    def test_monotone_memory_share(self, critical, budget):
        # Growing the budget never shrinks memory's share (memory is the
        # priority component in Algorithm 1).  The processor share is NOT
        # strictly monotone: crossing from case C into case B pins memory
        # at L1m and can trim the CPU by up to its case-C bonus, so only
        # that bounded dip is tolerated.
        d1 = coord_cpu(critical, budget)
        d2 = coord_cpu(critical, budget + 20.0)
        if d1.accepted and d2.accepted:
            assert d2.allocation.mem_w >= d1.allocation.mem_w - 1e-6
            case_c_bonus = max(0.0, critical.mem_l1 - critical.mem_l2)
            assert d2.allocation.proc_w >= d1.allocation.proc_w - case_c_bonus - 1e-6


# ---------------------------------------------------------------------------
# counter invariants
# ---------------------------------------------------------------------------


class TestCounterProperties:
    @property_settings(60)
    @given(chunks=st.lists(st.floats(0.0, 60_000.0), min_size=1, max_size=20))
    def test_delta_reconstructs_total_energy(self, chunks):
        # As long as < 2^16 J (= one full register wrap) pass between
        # reads, deltas reconstruct sums; a full wrap aliases to zero,
        # which is why meters must poll faster than the wrap period.
        counter = MsrEnergyCounter()
        total = 0.0
        prev = counter.read_raw()
        for chunk in chunks:
            counter.accumulate(chunk)
            now = counter.read_raw()
            total += MsrEnergyCounter.delta_joules(prev, now)
            prev = now
        assert total == pytest.approx(sum(chunks), abs=len(chunks) * ENERGY_UNIT_J)


# ---------------------------------------------------------------------------
# sweep invariants
# ---------------------------------------------------------------------------


class TestSweepProperties:
    @property_settings(15)
    @given(seed=st.integers(0, 1000), budget=st.floats(120.0, 280.0))
    def test_random_workload_sweep_invariants(self, seed, budget):
        from repro.core.sweep import sweep_cpu_allocations
        from repro.workloads.synthetic import random_workload

        wl = random_workload(seed)
        sweep = sweep_cpu_allocations(NODE.cpu, NODE.dram, wl, budget, step_w=16.0)
        perfs = sweep.performances
        assert np.all(perfs > 0)
        assert sweep.best.performance >= sweep.worst.performance
        assert all(p.allocation.total_w == pytest.approx(budget) for p in sweep.points)
