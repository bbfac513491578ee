"""The chaos suite: deterministic fault injection and the degradation contract.

Locks the headline invariant of :mod:`repro.faults`: under any fault
plan, every public API either returns a result bit-identical to the
clean run or surfaces a typed degradation (``FaultError`` /
``DegradationReport``) — silent drift is never an outcome.  Fault
schedules are hypothesis-fuzzed (strategies shared from ``conftest``)
across both hardware registries (RAPL/CPU and NVML/GPU), and every
fault kind also gets a deterministic single-kind battery run.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.parallel import SweepEngine
from repro.core.planner import plan_cpu_sweep
from repro.core.sweep import sweep_cpu_allocations
from repro.errors import (
    FaultError,
    FaultPlanError,
    MeterReadError,
    NvmlReadError,
    ProfilingDegradedError,
    SweepError,
    TransientReadError,
    WorkerRetryExhaustedError,
)
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    active,
    armed,
    backoff_schedule_s,
    retry_transient,
    strict_majority,
    use_faults,
)
from repro.faults.contract import run_chaos
from repro.faults.report import DegradationReport
from repro.faults.resilience import (
    coordinate_cpu_resilient,
    online_shift_resilient,
    profile_cpu_resilient,
)
from repro.hardware.meter import RaplPowerMeter
from repro.hardware.nvml import NvmlDevice
from repro.hardware.rapl import RaplDomainName, RaplInterface
from repro.perfmodel.executor import execute_on_host
from repro.perfmodel.power_trace import sample_power_trace
from repro.workloads import cpu_workload

from tests.conftest import fault_plans, property_settings, sweep_signature

#: A site that understands each fault kind (for single-kind batteries).
_KIND_SITE = {
    FaultKind.DROPOUT: "rapl.read",
    FaultKind.STUCK: "rapl.read",
    FaultKind.WRAP_JUMP: "rapl.read",
    FaultKind.TORN_WRITE: "diskcache.write",
    FaultKind.CORRUPT_WRITE: "diskcache.write",
    FaultKind.WORKER_CRASH: "parallel.worker",
    FaultKind.WORKER_TIMEOUT: "parallel.worker",
    FaultKind.NOISE: "profiler.sample",
}


def plan_for(site: str, kind: FaultKind, **kwargs) -> FaultPlan:
    defaults = {"probability": 0.25}
    defaults.update(kwargs)
    return FaultPlan(seed=11, specs=(FaultSpec(site=site, kind=kind, **defaults),))


# ---------------------------------------------------------------------------
# plans: validation and serialization
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown injection site"):
            FaultSpec(site="flux.capacitor", kind=FaultKind.DROPOUT, probability=0.5)

    def test_kind_must_match_site(self):
        with pytest.raises(FaultPlanError, match="does not understand"):
            FaultSpec(site="nvml.read", kind=FaultKind.STUCK, probability=0.5)

    def test_never_firing_spec_rejected(self):
        with pytest.raises(FaultPlanError, match="can never fire"):
            FaultSpec(site="rapl.read", kind=FaultKind.DROPOUT)

    def test_bad_probability_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(site="rapl.read", kind=FaultKind.DROPOUT, probability=1.5)

    def test_wrap_jump_amplitude_floor(self):
        # Sub-ceiling phantom jumps are physically undetectable, and a
        # near-full jump is a sub-ceiling backward step modulo the
        # register (0.99999 reads 0.66 J short); the plan schema keeps
        # modeled jumps in the detectable regime.
        for amplitude in (0.01, 0.99999):
            with pytest.raises(FaultPlanError, match="detectable regime"):
                FaultSpec(
                    site="rapl.read", kind=FaultKind.WRAP_JUMP,
                    at_calls=(1,), amplitude=amplitude,
                )

    def test_even_profile_repeats_rejected(self):
        with pytest.raises(FaultPlanError, match="odd"):
            FaultPlan(profile_repeats=4)
        with pytest.raises(FaultPlanError, match="odd"):
            FaultPlan(profile_repeats=1)

    def test_unknown_fields_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault-plan field"):
            FaultPlan.from_dict({"seed": 1, "bogus": True})
        with pytest.raises(FaultPlanError, match="unknown fault-spec field"):
            FaultSpec.from_dict(
                {"site": "rapl.read", "kind": "dropout", "oops": 1}
            )

    @property_settings(50)
    @given(plan=fault_plans())
    def test_json_roundtrip_is_lossless(self, plan):
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_load_save_roundtrip(self, tmp_path):
        plan = plan_for("rapl.read", FaultKind.DROPOUT)
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

    def test_canned_example_plan_loads(self):
        plan = FaultPlan.load("examples/faults/chaos_smoke.json")
        assert not plan.is_empty
        assert len({spec.site for spec in plan.specs}) >= 5


# ---------------------------------------------------------------------------
# injector: deterministic firing
# ---------------------------------------------------------------------------

class TestInjector:
    @property_settings(25)
    @given(plan=fault_plans(), calls=st.integers(min_value=1, max_value=64))
    def test_firing_schedule_is_deterministic(self, plan, calls):
        sites = sorted({spec.site for spec in plan.specs})
        logs = []
        for _ in range(2):
            injector = FaultInjector(plan)
            for i in range(calls):
                injector.check(sites[i % len(sites)])
            logs.append(
                [(e.site, e.kind, e.spec_index, e.call_index)
                 for e in injector.events()]
            )
        assert logs[0] == logs[1]

    def test_at_calls_fires_exactly_there(self):
        plan = plan_for(
            "rapl.read", FaultKind.DROPOUT, probability=0.0, at_calls=(2, 5)
        )
        injector = FaultInjector(plan)
        fired = [i for i in range(8) if injector.check("rapl.read") is not None]
        assert fired == [2, 5]

    def test_max_fires_caps_the_burst(self):
        plan = plan_for(
            "rapl.read", FaultKind.DROPOUT, probability=1.0, max_fires=3
        )
        injector = FaultInjector(plan)
        fired = sum(injector.check("rapl.read") is not None for _ in range(10))
        assert fired == 3

    def test_reset_replays_the_same_schedule(self):
        plan = plan_for("rapl.read", FaultKind.DROPOUT, probability=0.4)
        injector = FaultInjector(plan)
        first = [injector.check("rapl.read") is not None for _ in range(20)]
        injector.reset()
        second = [injector.check("rapl.read") is not None for _ in range(20)]
        assert first == second

    def test_use_faults_restores_previous(self):
        assert active() is None
        outer = FaultInjector(FaultPlan.empty())
        with use_faults(outer):
            assert active() is outer
            with use_faults(plan_for("rapl.read", FaultKind.DROPOUT)):
                assert active() is not outer
            assert active() is outer
        assert active() is None

    def test_noise_is_seed_keyed_and_bounded(self):
        plan = plan_for("online.signal", FaultKind.NOISE)
        injector = FaultInjector(plan)
        draws = [injector.noise("online.signal", i) for i in range(100)]
        assert all(-1.0 <= u < 1.0 for u in draws)
        assert len(set(draws)) == 100  # keyed to call index: all distinct
        assert draws == [
            FaultInjector(plan).noise("online.signal", i) for i in range(100)
        ]


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

class TestPolicies:
    def test_backoff_schedule_is_exponential(self):
        assert backoff_schedule_s(0.5, 4) == (0.5, 1.0, 2.0, 4.0)

    def test_retry_transient_recovers_and_reports(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientReadError("rapl.read", calls["n"])
            return 42

        report = DegradationReport()
        assert retry_transient(
            flaky, site="rapl.read", max_attempts=3, report=report
        ) == 42
        assert not report.degraded  # recovered: result is the clean one
        assert report.events and report.events[0].action == "retried"

    def test_retry_transient_exhaustion_reraises(self):
        def dead():
            raise TransientReadError("nvml.read", 0)

        with pytest.raises(TransientReadError):
            retry_transient(dead, site="nvml.read", max_attempts=2)

    def test_strict_majority(self):
        assert strict_majority([1, 1, 2]) == 1
        assert strict_majority([1, 2, 3]) is None
        # `total` counts errored repeats against the majority.
        assert strict_majority([1, 1], total=4) is None
        assert strict_majority([1, 1, 1], total=5) == 1


# ---------------------------------------------------------------------------
# the degradation contract (the headline invariant)
# ---------------------------------------------------------------------------

class TestDegradationContract:
    def test_empty_plan_is_bit_identical_everywhere(self):
        report = run_chaos(FaultPlan.empty(), scale="smoke")
        assert report.ok
        assert all(c.outcome == "identical" for c in report.checks), (
            report.summary()
        )

    @pytest.mark.parametrize("kind", list(FaultKind))
    def test_single_kind_battery_upholds_contract(self, kind):
        plan = plan_for(_KIND_SITE[kind], kind, probability=0.3)
        report = run_chaos(plan, scale="smoke")
        assert report.ok, report.summary()

    def test_widest_wrap_jump_is_detected(self):
        # The top of the detectable regime: a 0.95 * 2**32-tick jump is a
        # 3.3 kJ backward step, which wraps the window's delta past the
        # plausibility ceiling: a typed error, not drifted energy.
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site="rapl.read", kind=FaultKind.WRAP_JUMP,
                      probability=0.5, amplitude=0.95),
        ))
        report = run_chaos(plan, scale="smoke")
        assert report.ok, report.summary()
        outcomes = {check.name: check.outcome for check in report.checks}
        assert outcomes["meter.observe"] == "typed-error"

    def test_clamped_noisy_profiles_do_not_win_the_vote(self):
        # Found by the fuzz below.  Noise hits stream's cpu_l2 in repeats
        # 1 and 2 (61.5 W -> 16.45 W and 4.00 W) and repeat 3 errors.
        # The ordering clamp lifts both noisy values to cpu_l3 (48.84 W),
        # so voting on clamped profiles crowned two wrong samples.
        torn = FaultSpec("diskcache.write", FaultKind.TORN_WRITE, probability=0.5)
        plan = FaultPlan(
            seed=2439,
            specs=(torn, torn, FaultSpec("profiler.sample", FaultKind.NOISE,
                                         probability=0.25, amplitude=1.0)),
            max_attempts=2, backoff_base_s=0.001, profile_repeats=3,
        )
        report = run_chaos(plan, scale="smoke")
        assert report.ok, report.summary()
        outcomes = {check.name: check.outcome for check in report.checks}
        assert outcomes["cpu.coordinate"] in ("typed-error", "degraded")

    @property_settings(10)
    @given(plan=fault_plans())
    def test_fuzzed_plans_uphold_contract(self, plan):
        report = run_chaos(plan, scale="smoke")
        assert report.ok, report.summary()
        for check in report.checks:
            assert check.outcome in ("identical", "degraded", "typed-error")

    def test_battery_covers_both_registries(self):
        report = run_chaos(FaultPlan.empty(), scale="smoke")
        names = {check.name for check in report.checks}
        assert {"cpu.sweep-curve", "meter.observe"} <= names  # RAPL/CPU
        assert {"gpu.sweep-curve", "nvml.read"} <= names  # NVML/GPU

    def test_report_serializes(self):
        report = run_chaos(FaultPlan.empty(), scale="smoke")
        payload = report.to_dict()
        assert payload["ok"] is True
        assert len(payload["checks"]) == len(report.checks)
        assert "chaos contract: OK" in report.summary()


# ---------------------------------------------------------------------------
# sweep engine: worker resubmission and retry exhaustion
# ---------------------------------------------------------------------------

class TestWorkerFaults:
    def test_recovered_crashes_keep_sweeps_bit_identical(self, ivb, stream):
        clean = sweep_cpu_allocations(
            ivb.cpu, ivb.dram, stream, 176.0, engine=SweepEngine()
        )
        engine = SweepEngine()
        plan = plan_for(
            "parallel.worker", FaultKind.WORKER_CRASH, probability=0.3
        )
        with use_faults(plan) as injector:
            faulted = sweep_cpu_allocations(
                ivb.cpu, ivb.dram, stream, 176.0, engine=engine
            )
        assert sweep_signature(faulted) == sweep_signature(clean)
        assert injector.events()  # the schedule did fire
        assert not engine.fault_report.degraded
        assert any(
            e.action == "resubmitted" for e in engine.fault_report.events
        )

    def test_retry_exhaustion_is_typed(self, ivb, stream):
        plan = plan_for(
            "parallel.worker", FaultKind.WORKER_TIMEOUT, probability=1.0
        )
        with use_faults(plan), pytest.raises(WorkerRetryExhaustedError) as excinfo:
            sweep_cpu_allocations(
                ivb.cpu, ivb.dram, stream, 176.0, engine=SweepEngine()
            )
        assert excinfo.value.attempts == 3  # the plan's max_attempts
        assert isinstance(excinfo.value, FaultError)

    def test_global_arming_reaches_default_engines(self, ivb, stream):
        clean = sweep_cpu_allocations(
            ivb.cpu, ivb.dram, stream, 176.0, engine=SweepEngine()
        )
        plan = plan_for(
            "parallel.worker", FaultKind.WORKER_CRASH, probability=0.2
        )
        with use_faults(plan) as injector:
            faulted = sweep_cpu_allocations(
                ivb.cpu, ivb.dram, stream, 176.0, engine=SweepEngine()
            )
            assert injector.calls("parallel.worker") > 0
        assert sweep_signature(faulted) == sweep_signature(clean)

    def test_empty_plan_keeps_batch_path(self, ivb, stream):
        # An armed-but-empty plan must not force the serial fallback.
        with use_faults(FaultPlan.empty()) as injector:
            assert active() is injector
            assert armed() is None


# ---------------------------------------------------------------------------
# meter and NVML resilience
# ---------------------------------------------------------------------------

def _package_meter():
    return RaplPowerMeter(
        RaplInterface(), RaplDomainName.PACKAGE, poll_interval_s=0.1
    )


@pytest.fixture(scope="module")
def bt_trace(ivb):
    wl = cpu_workload("bt")
    result = execute_on_host(ivb.cpu, ivb.dram, wl.phases, 150.0, 100.0)
    return sample_power_trace(result, dt_s=0.01)


class TestMeterResilience:
    def test_dropout_recovery_is_bit_identical(self, bt_trace):
        clean = _package_meter().observe_trace(bt_trace, "proc")
        # Isolated dropouts (never back-to-back) so the bounded retry is
        # guaranteed to recover; sustained dropout is the typed case below.
        plan = plan_for(
            "rapl.read", FaultKind.DROPOUT,
            probability=0.0, at_calls=(2, 8, 15),
        )
        report = DegradationReport()
        with use_faults(plan):
            faulted = _package_meter().observe_trace(
                bt_trace, "proc", report=report
            )
        assert faulted == clean
        assert report.events and not report.degraded

    def test_stuck_register_recovery_is_bit_identical(self, bt_trace):
        clean = _package_meter().observe_trace(bt_trace, "proc")
        plan = plan_for(
            "rapl.read", FaultKind.STUCK, probability=0.0, at_calls=(3, 9)
        )
        with use_faults(plan):
            faulted = _package_meter().observe_trace(bt_trace, "proc")
        assert faulted == clean

    def test_permanent_dropout_is_typed(self, bt_trace):
        plan = plan_for("rapl.read", FaultKind.DROPOUT, probability=1.0)
        with use_faults(plan):
            with pytest.raises(MeterReadError):
                _package_meter().observe_trace(bt_trace, "proc")

    def test_wrap_jump_trips_plausibility_ceiling(self, bt_trace):
        plan = plan_for(
            "rapl.read", FaultKind.WRAP_JUMP,
            probability=0.0, at_calls=(4,), amplitude=0.25,
        )
        with use_faults(plan):
            with pytest.raises(MeterReadError, match="plausibility ceiling"):
                _package_meter().observe_trace(bt_trace, "proc")


class TestNvmlResilience:
    def test_transient_dropout_retries_to_clean_value(self, xp):
        clean = NvmlDevice(xp).read_power_limit_w()
        plan = plan_for("nvml.read", FaultKind.DROPOUT, probability=0.5)
        report = DegradationReport()
        with use_faults(plan):
            value = NvmlDevice(xp).read_power_limit_w(report=report)
        assert value == clean
        assert not report.degraded

    def test_permanent_dropout_is_typed(self, xp):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="nvml.read", kind=FaultKind.DROPOUT, probability=1.0
                ),
            ),
            max_attempts=2,
        )
        with use_faults(plan):
            with pytest.raises(NvmlReadError):
                NvmlDevice(xp).read_power_limit_w()

    def test_raw_property_raises_transient_when_armed(self, xp):
        plan = plan_for("nvml.read", FaultKind.DROPOUT, probability=1.0)
        with use_faults(plan):
            with pytest.raises(TransientReadError):
                _ = NvmlDevice(xp).power_limit_w


# ---------------------------------------------------------------------------
# profiling and online resilience
# ---------------------------------------------------------------------------

class TestProfilingResilience:
    def test_sparse_noise_is_outvoted(self, ivb, stream):
        clean = profile_cpu_resilient(ivb.cpu, ivb.dram, stream)[0]
        plan = FaultPlan(
            seed=3,
            specs=(
                FaultSpec(
                    site="profiler.sample", kind=FaultKind.NOISE,
                    probability=0.0, at_calls=(2,), max_fires=1, amplitude=0.3,
                ),
            ),
        )
        with use_faults(plan):
            certified, report = profile_cpu_resilient(ivb.cpu, ivb.dram, stream)
        assert certified == clean
        assert not report.degraded

    def test_heavy_noise_never_silently_drifts(self, ivb, stream):
        clean = profile_cpu_resilient(ivb.cpu, ivb.dram, stream)[0]
        plan = plan_for(
            "profiler.sample", FaultKind.NOISE, probability=0.9, amplitude=0.4
        )
        with use_faults(plan):
            try:
                certified, report = profile_cpu_resilient(
                    ivb.cpu, ivb.dram, stream
                )
            except FaultError:
                return  # typed refusal: the contract's other allowed outcome
        assert certified == clean  # a certified profile must be the clean one

    def test_coordinate_decision_matches_clean_when_certified(self, ivb, stream):
        clean = coordinate_cpu_resilient(ivb.cpu, ivb.dram, stream, 176.0)[0]
        plan = FaultPlan(
            seed=5,
            specs=(
                FaultSpec(
                    site="profiler.sample", kind=FaultKind.NOISE,
                    probability=0.0, at_calls=(7,), max_fires=1,
                ),
            ),
        )
        with use_faults(plan):
            decision, report = coordinate_cpu_resilient(
                ivb.cpu, ivb.dram, stream, 176.0
            )
        assert decision == clean
        assert not report.degraded

    def test_profiling_degraded_error_carries_samples(self, ivb, stream):
        plan = FaultPlan(
            seed=13,
            specs=(
                FaultSpec(
                    site="profiler.sample", kind=FaultKind.NOISE,
                    probability=1.0, amplitude=0.5,
                ),
            ),
        )
        with use_faults(plan):
            with pytest.raises(ProfilingDegradedError) as excinfo:
                profile_cpu_resilient(ivb.cpu, ivb.dram, stream)
        assert isinstance(excinfo.value.samples, tuple)


class TestOnlineResilience:
    def test_noisy_signal_flags_degraded(self, ivb, stream):
        plan = plan_for(
            "online.signal", FaultKind.NOISE, probability=1.0, amplitude=0.8
        )
        with use_faults(plan):
            result, report = online_shift_resilient(
                ivb.cpu, ivb.dram, stream, 180.0
            )
        assert report.degraded
        assert result.allocation.total_w <= 180.0 + 1e-9  # still valid

    def test_quiet_run_stays_clean(self, ivb, stream):
        clean, _ = online_shift_resilient(ivb.cpu, ivb.dram, stream, 180.0)
        plan = plan_for(
            "online.signal", FaultKind.NOISE,
            probability=0.0, at_calls=(400,),  # beyond any epoch count
        )
        with use_faults(plan):
            result, report = online_shift_resilient(
                ivb.cpu, ivb.dram, stream, 180.0
            )
        assert result == clean
        assert report.clean


# ---------------------------------------------------------------------------
# the vectorized planner path under armed fault plans
# ---------------------------------------------------------------------------

class TestBatchedPlannerFallback:
    """Armed worker plans force the planner's scalar path (PR 5 contract).

    The vectorized kernel has no per-task boundary to inject worker
    faults at, so a ``SubgridExecutor`` under an armed worker plan must
    resolve point-by-point through the scalar executor — where
    crash/timeout schedules fire, retries resubmit, and exhaustion raises
    typed errors — while still producing the clean run's exact answer
    when every fault recovers.
    """

    @staticmethod
    def _crash_plan(**plan_kwargs) -> FaultPlan:
        return plan_for("parallel.worker", FaultKind.WORKER_CRASH, **plan_kwargs)

    def test_armed_cpu_plan_bypasses_batch_kernel(self, ivb, stream,
                                                  monkeypatch):
        clean = plan_cpu_sweep(
            ivb.cpu, ivb.dram, stream, 176.0, engine=SweepEngine()
        )

        def forbidden(*args, **kwargs):  # pragma: no cover - contract trip
            raise AssertionError("batch kernel ran under an armed plan")

        monkeypatch.setattr(
            "repro.core.parallel.batch_execute_indices", forbidden
        )
        engine = SweepEngine(batch=True)
        with use_faults(self._crash_plan(probability=0.3)) as injector:
            planned = plan_cpu_sweep(
                ivb.cpu, ivb.dram, stream, 176.0, engine=engine
            )
        assert planned.best == clean.best
        assert planned.plateau == clean.plateau
        assert planned.perf_max == clean.perf_max
        assert injector.events()  # the schedule did fire
        assert any(
            e.action == "resubmitted" for e in engine.fault_report.events
        )

    def test_armed_gpu_plan_bypasses_batch_kernel(self, monkeypatch):
        from repro.core.planner import plan_gpu_sweep
        from repro.hardware.platforms import titan_v_card
        from repro.workloads import gpu_workload

        card = titan_v_card()
        wl = gpu_workload("minife")
        clean = plan_gpu_sweep(card, wl, 200.0, engine=SweepEngine())
        monkeypatch.setattr(
            "repro.core.parallel.batch_execute_indices",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("batched")),
        )
        with use_faults(self._crash_plan(probability=0.3)):
            planned = plan_gpu_sweep(
                card, wl, 200.0, engine=SweepEngine(batch=True)
            )
        assert planned.best == clean.best
        assert planned.plateau == clean.plateau

    def test_disarmed_engine_keeps_batch_kernel(self, ivb, stream,
                                                monkeypatch):
        """Sanity inverse: without an armed plan the kernel does run."""
        from repro.core import parallel as parallel_mod

        calls = []
        original = parallel_mod.batch_execute_indices

        def counting(kernel, rows):
            calls.append(len(rows))
            return original(kernel, rows)

        monkeypatch.setattr(
            "repro.core.parallel.batch_execute_indices", counting
        )
        plan_cpu_sweep(
            ivb.cpu, ivb.dram, stream, 176.0,
            engine=SweepEngine(batch=True),
        )
        assert calls  # at least the probe stage went through the kernel

    def test_exhaustion_on_batched_planner_is_typed(self, ivb, stream):
        plan = plan_for(
            "parallel.worker", FaultKind.WORKER_TIMEOUT, probability=1.0
        )
        with use_faults(plan), pytest.raises(WorkerRetryExhaustedError):
            plan_cpu_sweep(
                ivb.cpu, ivb.dram, stream, 176.0, engine=SweepEngine(batch=True)
            )


# ---------------------------------------------------------------------------
# the chaos battery under the adaptive planner
# ---------------------------------------------------------------------------

def _classification(report) -> dict[str, str]:
    return {check.name: check.outcome for check in report.checks}


class TestChaosUnderAdaptivePlanner:
    """``run_chaos(mode="adaptive")`` must not move a single chaos verdict.

    The sweep-curve checks route through the adaptive planner on an
    adaptive engine, so this locks the full battery — all eight checks —
    to classify identically to the full-sweep run for the empty plan and
    for every single-kind battery.
    """

    @pytest.mark.parametrize(
        "kind", [None] + list(FaultKind),
        ids=["empty"] + [k.name for k in FaultKind],
    )
    def test_battery_classifies_identically(self, kind):
        plan = (
            FaultPlan.empty() if kind is None
            else plan_for(_KIND_SITE[kind], kind, probability=0.3)
        )
        full = run_chaos(plan, scale="smoke")
        adaptive = run_chaos(plan, scale="smoke", mode="adaptive")
        assert len(adaptive.checks) == 8
        assert _classification(adaptive) == _classification(full)
        assert adaptive.ok is full.ok

    def test_mode_reaches_the_sweep_engines(self):
        with pytest.raises(SweepError, match="sweep mode"):
            run_chaos(FaultPlan.empty(), scale="smoke", mode="turbo")
