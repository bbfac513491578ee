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

import threading
from contextlib import nullcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.coord import coord_cpu
from repro.core.online import online_power_shift
from repro.core.parallel import SweepEngine
from repro.core.planner import plan_cpu_sweep
from repro.core.profiler import profile_cpu_workload, profile_gpu_workload
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
    ledger,
    retry_transient,
    strict_majority,
    use_faults,
)
from repro.faults.contract import run_chaos
from repro.faults.report import record
from repro.hardware.meter import RaplPowerMeter
from repro.hardware.nvml import NvmlDevice
from repro.hardware.rapl import RaplDomainName, RaplInterface
from repro.perfmodel.executor import execute_on_host
from repro.perfmodel.power_trace import sample_power_trace
from repro.sched.fleet import FleetSimulator
from repro.sched.traces import poisson_trace
from repro.workloads import cpu_workload, gpu_workload

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

        with ledger() as report:
            assert retry_transient(flaky, site="rapl.read", max_attempts=3) == 42
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


class TestLedger:
    """``record`` appends to the innermost open ``ledger`` of its context."""

    def test_record_without_a_ledger_does_nothing(self):
        record("rapl.read", "retried", degrades=True)
        with ledger() as report:
            pass
        assert report.clean and not report.degraded

    def test_only_the_innermost_ledger_receives_an_event(self):
        with ledger() as outer:
            record("rapl.read", "retried")
            with ledger() as inner:
                record("online.signal", "noisy-signal", degrades=True)
            record("nvml.read", "retried")
        assert [e.site for e in outer.events] == ["rapl.read", "nvml.read"]
        assert not outer.degraded
        assert [e.site for e in inner.events] == ["online.signal"]
        assert inner.degraded

    def test_ledger_is_reset_when_its_block_raises(self):
        with ledger() as outer:
            with pytest.raises(RuntimeError), ledger() as inner:
                raise RuntimeError("boom")
            record("rapl.read", "retried")
        record("nvml.read", "retried")  # no ledger open any more
        assert inner.clean
        assert [e.site for e in outer.events] == ["rapl.read"]

    def test_two_threads_ledgers_stay_separate(self):
        both_open = threading.Barrier(2, timeout=10.0)
        reports = {}

        def worker(site, n):
            with ledger() as report:
                both_open.wait()
                for _ in range(n):
                    record(site, "retried")
                both_open.wait()
            reports[site] = report

        threads = [
            threading.Thread(target=worker, args=("rapl.read", 3)),
            threading.Thread(target=worker, args=("nvml.read", 5)),
        ]
        with ledger() as main_thread:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert main_thread.clean
        assert [e.site for e in reports["rapl.read"].events] == ["rapl.read"] * 3
        assert [e.site for e in reports["nvml.read"].events] == ["nvml.read"] * 5


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
        plan = plan_for(
            "parallel.worker", FaultKind.WORKER_CRASH, probability=0.3
        )
        with use_faults(plan) as injector, ledger() as report:
            faulted = sweep_cpu_allocations(
                ivb.cpu, ivb.dram, stream, 176.0, engine=SweepEngine()
            )
        assert sweep_signature(faulted) == sweep_signature(clean)
        assert injector.events()  # the schedule did fire
        assert not report.degraded
        assert any(e.action == "resubmitted" for e in report.events)

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
        with use_faults(plan), ledger() as report:
            faulted = _package_meter().observe_trace(bt_trace, "proc")
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
        with use_faults(plan), ledger() as report:
            value = NvmlDevice(xp).read_power_limit_w()
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
        clean = profile_cpu_workload(ivb.cpu, ivb.dram, stream)
        plan = FaultPlan(
            seed=3,
            specs=(
                FaultSpec(
                    site="profiler.sample", kind=FaultKind.NOISE,
                    probability=0.0, at_calls=(2,), max_fires=1, amplitude=0.3,
                ),
            ),
        )
        with use_faults(plan), ledger() as report:
            certified = profile_cpu_workload(ivb.cpu, ivb.dram, stream)
        assert certified == clean
        assert not report.degraded

    def test_heavy_noise_never_silently_drifts(self, ivb, stream):
        clean = profile_cpu_workload(ivb.cpu, ivb.dram, stream)
        plan = plan_for(
            "profiler.sample", FaultKind.NOISE, probability=0.9, amplitude=0.4
        )
        with use_faults(plan), ledger():
            try:
                certified = profile_cpu_workload(ivb.cpu, ivb.dram, stream)
            except FaultError:
                return  # typed refusal: the contract's other allowed outcome
        assert certified == clean  # a certified profile must be the clean one

    def test_coordinate_decision_matches_clean_when_certified(self, ivb, stream):
        clean = coord_cpu(profile_cpu_workload(ivb.cpu, ivb.dram, stream), 176.0)
        plan = FaultPlan(
            seed=5,
            specs=(
                FaultSpec(
                    site="profiler.sample", kind=FaultKind.NOISE,
                    probability=0.0, at_calls=(7,), max_fires=1,
                ),
            ),
        )
        with use_faults(plan), ledger() as report:
            decision = coord_cpu(
                profile_cpu_workload(ivb.cpu, ivb.dram, stream), 176.0
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
        with use_faults(plan), ledger():
            with pytest.raises(ProfilingDegradedError) as excinfo:
                profile_cpu_workload(ivb.cpu, ivb.dram, stream)
        assert isinstance(excinfo.value.samples, tuple)

    def test_refusal_carries_every_repeat_in_full(self, xp):
        # Noise hits tot_ref in two of three repeats.  The refusal names
        # the quantity that disagreed: every repeat's whole sample, not
        # its first value (tot_max, the same 197.804 W in all three).
        plan = FaultPlan(
            seed=11,
            specs=(
                FaultSpec(
                    site="profiler.sample", kind=FaultKind.NOISE,
                    probability=0.0, at_calls=(1, 4), max_fires=2,
                    amplitude=0.3,
                ),
            ),
        )
        with use_faults(plan), pytest.raises(ProfilingDegradedError) as excinfo:
            profile_gpu_workload(xp, gpu_workload("hpcg"))
        samples = excinfo.value.samples
        assert [len(sample) for sample in samples] == [3, 3, 3]
        assert {sample[0] for sample in samples} == {197.804}
        assert [round(sample[1], 2) for sample in samples] == [162.06, 159.96, 132.01]
        assert str(excinfo.value) == (
            "no strict majority among 3 profiling samples at "
            "'profiler.sample'; measurement too noisy to trust"
        )


class TestOnlineResilience:
    def test_noisy_signal_flags_degraded(self, ivb, stream):
        plan = plan_for(
            "online.signal", FaultKind.NOISE, probability=1.0, amplitude=0.8
        )
        with use_faults(plan), ledger() as report:
            result = online_power_shift(ivb.cpu, ivb.dram, stream, 180.0)
        assert report.degraded
        assert result.allocation.total_w <= 180.0 + 1e-9  # still valid

    def test_quiet_run_stays_clean(self, ivb, stream):
        with ledger():
            clean = online_power_shift(ivb.cpu, ivb.dram, stream, 180.0)
        plan = plan_for(
            "online.signal", FaultKind.NOISE,
            probability=0.0, at_calls=(400,),  # beyond any epoch count
        )
        with use_faults(plan), ledger() as report:
            result = online_power_shift(ivb.cpu, ivb.dram, stream, 180.0)
        assert result == clean
        assert report.clean


def _burst(site: str) -> FaultPlan:
    """One noise burst on ``site``'s second call.  For the profilers that
    is ``mem_l1`` on a CPU and ``tot_ref`` on a GPU, samples no clamp
    hides, so a profile that took a single measurement would drift."""
    return FaultPlan(
        seed=11,
        specs=(
            FaultSpec(
                site=site, kind=FaultKind.NOISE,
                probability=0.0, at_calls=(1,), max_fires=1, amplitude=0.3,
            ),
        ),
    )


#: The burst every profile caller must outvote.
PROFILE_BURST = _burst("profiler.sample")

#: Noise on nearly every profiling sample: no majority survives it.
PROFILE_STORM = plan_for(
    "profiler.sample", FaultKind.NOISE, probability=0.9, amplitude=0.3
)


def _fleet_stats():
    return FleetSimulator(
        poisson_trace(n_jobs=60, rate_per_s=2.0, seed=42),
        n_nodes=8,
        global_bound_w=960.0,
        resplit_interval_s=10.0,
    ).run()


def _cli(argv, capsys, monkeypatch, plan_path=None):
    """``(exit code, stdout, stderr)`` of one in-process CLI run."""
    if plan_path is None:
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
    else:
        monkeypatch.setenv("REPRO_FAULTS", str(plan_path))
    capsys.readouterr()
    code = cli_main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestEveryProfileCallerVotes:
    """The vote lives in the profilers, so callers that never heard of
    fault plans still end in the clean answer or a typed error."""

    def test_cpu_profile_outvotes_a_burst(self, ivb):
        ep = cpu_workload("ep")
        clean = profile_cpu_workload(ivb.cpu, ivb.dram, ep)
        with use_faults(PROFILE_BURST):
            assert profile_cpu_workload(ivb.cpu, ivb.dram, ep) == clean

    def test_gpu_profile_outvotes_a_burst(self, xp, sgemm):
        clean = profile_gpu_workload(xp, sgemm)
        with use_faults(PROFILE_BURST):
            assert profile_gpu_workload(xp, sgemm) == clean

    def test_fleet_outvotes_a_burst(self):
        clean = _fleet_stats()
        with use_faults(PROFILE_BURST):
            assert _fleet_stats() == clean

    @pytest.mark.parametrize(
        "argv", [("profile", "ep"), ("coord", "sp", "176")], ids=" ".join
    )
    def test_cli_outvotes_a_burst(self, argv, tmp_path, capsys, monkeypatch):
        plan_path = PROFILE_BURST.save(tmp_path / "burst.json")
        clean = _cli(argv, capsys, monkeypatch)
        assert clean[0] == 0
        code, out, err = _cli(argv, capsys, monkeypatch, plan_path)
        assert (code, out) == clean[:2]
        # The vote's event is the command's classification.
        assert (clean[2], err) == ("", "recovered: 1 recovery event(s)\n")

    def test_storm_gives_clean_profiles_or_typed_errors(self, ivb, xp, sgemm):
        ep = cpu_workload("ep")
        cases = (
            lambda: profile_cpu_workload(ivb.cpu, ivb.dram, ep),
            lambda: profile_gpu_workload(xp, sgemm),
            _fleet_stats,
        )
        for call in cases:
            clean = call()
            with use_faults(PROFILE_STORM):
                try:
                    assert call() == clean
                except ProfilingDegradedError:
                    pass  # typed refusal: the contract's other allowed outcome

    @pytest.mark.parametrize(
        "argv", [("profile", "ep"), ("coord", "sp", "176")], ids=" ".join
    )
    def test_storm_exits_2_from_the_cli(self, argv, tmp_path, capsys, monkeypatch):
        plan_path = PROFILE_STORM.save(tmp_path / "storm.json")
        code, out, err = _cli(argv, capsys, monkeypatch, plan_path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: no strict majority")

    @pytest.mark.parametrize(
        "plan",
        [None, PROFILE_BURST, _burst("online.signal")],
        ids=["clean", "profile-burst", "online-burst"],
    )
    def test_report_changes_no_result(self, plan, ivb, xp, sgemm):
        """Running inside a ledger changes no result."""
        ep = cpu_workload("ep")
        calls = (
            lambda: profile_cpu_workload(ivb.cpu, ivb.dram, ep),
            lambda: profile_gpu_workload(xp, sgemm),
            lambda: online_power_shift(ivb.cpu, ivb.dram, ep, 176.0),
        )
        for call in calls:
            results = []
            for scope in (nullcontext, ledger):
                with scope():
                    if plan is None:
                        results.append(call())
                    else:
                        with use_faults(FaultInjector(plan)):
                            results.append(call())
            assert results[0] == results[1]


#: Noise on half the online controller's signals (ROADMAP open bug).
ONLINE_NOISE = FaultPlan(
    seed=11,
    specs=(
        FaultSpec(
            site="online.signal", kind=FaultKind.NOISE,
            probability=0.5, amplitude=0.5,
        ),
    ),
    max_attempts=4,
    backoff_base_s=0.001,
    profile_repeats=3,
)


class TestEveryVerbClassifies:
    """An armed CLI verb flags a recovered or degraded run on stderr.

    The experiments call ``online_power_shift`` without knowing of fault
    plans; their drifted epochs must still reach the operator.
    """

    @pytest.mark.parametrize(
        "artifact, summary, drifted",
        [
            (
                "ablation",
                "degraded: 4 recovery event(s)",
                {"stream online shifting 6 63.17 2.2%",
                 "mg online shifting 11 1.303e+04 0.0%"},
            ),
            (
                "extensions",
                "degraded: 5 recovery event(s)",
                {"stream 180 44.2 57.8 5", "mg 180 8868 1.254e+04 9"},
            ),
        ],
        ids=["ablation", "extensions"],
    )
    def test_online_drift_is_flagged(
        self, artifact, summary, drifted, tmp_path, capsys, monkeypatch
    ):
        argv = ("experiment", artifact, "--fast")
        plan_path = ONLINE_NOISE.save(tmp_path / "online.json")
        code, clean_out, clean_err = _cli(argv, capsys, monkeypatch)
        assert (code, clean_err) == (0, "")
        code, out, err = _cli(argv, capsys, monkeypatch, plan_path)
        assert code == 0
        # Stdout still carries the drifted online rows; stderr flags them.
        changed = set(out.splitlines()) - set(clean_out.splitlines())
        assert {" ".join(line.split()) for line in changed} == drifted
        assert err == summary + "\n"


# ---------------------------------------------------------------------------
# the vectorized planner path under armed fault plans
# ---------------------------------------------------------------------------

class TestBatchedPlannerFallback:
    """Armed worker plans run the planner's gathers through the kernel.

    Every miss runs in the batch kernel, armed or not.  Under an armed
    worker plan each ``SubgridExecutor`` request first passes the
    crash/timeout schedule row by row, where retries resubmit and
    exhaustion raises a typed error; a request whose faults all recover
    produces the clean run's exact answer.  With no plan, or an empty
    one, the schedule is never consulted.
    """

    @staticmethod
    def _crash_plan(**plan_kwargs) -> FaultPlan:
        return plan_for("parallel.worker", FaultKind.WORKER_CRASH, **plan_kwargs)

    @staticmethod
    def _count_kernel_calls(monkeypatch) -> list[int]:
        from repro.core import parallel as parallel_mod

        calls: list[int] = []
        original = parallel_mod.batch_execute_indices

        def counting(kernel, rows):
            calls.append(len(rows))
            return original(kernel, rows)

        monkeypatch.setattr(
            "repro.core.parallel.batch_execute_indices", counting
        )
        return calls

    def test_armed_cpu_plan_runs_batch_kernel(self, ivb, stream, monkeypatch):
        clean = plan_cpu_sweep(
            ivb.cpu, ivb.dram, stream, 176.0, engine=SweepEngine()
        )
        kernel_calls = self._count_kernel_calls(monkeypatch)
        plan = self._crash_plan(probability=0.3)
        engine = SweepEngine()
        with use_faults(plan) as injector, ledger() as report:
            planned = plan_cpu_sweep(ivb.cpu, ivb.dram, stream, 176.0, engine=engine)
        assert planned.best == clean.best
        assert planned.plateau == clean.plateau
        assert planned.perf_max == clean.perf_max
        assert injector.events()  # the schedule did fire
        assert any(e.action == "resubmitted" for e in report.events)
        # One check per attempt at each executed row, then its gather.
        assert injector.calls("parallel.worker") == (
            engine.stats.misses + len(injector.events())
        )
        assert sum(kernel_calls) == engine.stats.misses

    def test_armed_gpu_plan_runs_batch_kernel(self, monkeypatch):
        from repro.core.planner import plan_gpu_sweep
        from repro.hardware.platforms import titan_v_card
        from repro.workloads import gpu_workload

        card = titan_v_card()
        wl = gpu_workload("minife")
        clean = plan_gpu_sweep(card, wl, 200.0, engine=SweepEngine())
        kernel_calls = self._count_kernel_calls(monkeypatch)
        with use_faults(self._crash_plan(probability=0.3)) as injector:
            planned = plan_gpu_sweep(card, wl, 200.0, engine=SweepEngine())
        assert planned.best == clean.best
        assert planned.plateau == clean.plateau
        assert injector.calls("parallel.worker") > 0
        assert kernel_calls

    def test_disarmed_engine_keeps_batch_kernel(self, ivb, stream,
                                                monkeypatch):
        """Without a plan, or under an empty one, nothing consults the schedule."""
        kernel_calls = self._count_kernel_calls(monkeypatch)
        plan_cpu_sweep(ivb.cpu, ivb.dram, stream, 176.0, engine=SweepEngine())
        assert kernel_calls  # at least the probe stage went through the kernel
        kernel_calls.clear()
        with use_faults(FaultPlan.empty()) as injector:
            plan_cpu_sweep(
                ivb.cpu, ivb.dram, stream, 176.0, engine=SweepEngine()
            )
        assert kernel_calls
        assert injector.calls("parallel.worker") == 0

    def test_exhaustion_on_batched_planner_is_typed(self, ivb, stream):
        plan = plan_for(
            "parallel.worker", FaultKind.WORKER_TIMEOUT, probability=1.0
        )
        with use_faults(plan), pytest.raises(WorkerRetryExhaustedError):
            plan_cpu_sweep(
                ivb.cpu, ivb.dram, stream, 176.0, engine=SweepEngine()
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
