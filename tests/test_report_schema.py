"""Golden-schema regression for the benchmark JSON reports.

``benchmarks/_harness.write_json_report`` is the single emitter of the
machine-readable ``benchmarks/reports/*.json`` artifacts that CI and
downstream scripts consume.  This module pins the payload shape — the
exact required key set, the omit-when-None optionals, the rounding
policy, the ``cache`` sub-schema — and then validates every committed
report against it, so the shape cannot silently drift without a test
telling the reviewer what changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.parallel import CacheStats

_BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
if str(_BENCH_DIR) not in sys.path:  # same import idiom the benches use
    sys.path.insert(0, str(_BENCH_DIR))

import _harness  # noqa: E402
from _harness import cache_dict, write_json_report  # noqa: E402

#: Every report carries exactly these keys before optionals/extras.
REQUIRED_KEYS = {"op", "n_points", "wall_s", "speedup", "cache"}

#: Optionals are omitted (never null) when the benchmark has no value.
OPTIONAL_KEYS = {"executions_total", "executions_saved", "disk_cache_hits"}

#: The flattened CacheStats sub-schema.  ``hit_ratio`` is the memory
#: tier alone; disk promotions are reported separately so warm-process
#: and warm-disk runs stay distinguishable in the artifacts.
CACHE_KEYS = {
    "hits", "misses", "evictions", "size", "maxsize", "hit_ratio",
    "disk_hits", "disk_hit_ratio",
}


@pytest.fixture
def reports_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(_harness, "REPORTS_DIR", tmp_path)
    return tmp_path


def emit(name: str = "unit", **kwargs) -> dict:
    path = write_json_report(name, **kwargs)
    return json.loads(path.read_text())


class TestEmitterSchema:
    def test_minimal_payload_has_exactly_the_required_keys(self, reports_dir):
        payload = emit(op="sweep", n_points=3, wall_s={"cold": 1.0})
        assert set(payload) == REQUIRED_KEYS
        assert payload["speedup"] is None
        assert payload["cache"] is None

    def test_optionals_are_omitted_not_null(self, reports_dir):
        payload = emit(
            op="sweep", n_points=3, wall_s={"cold": 1.0}, executions_total=10
        )
        assert payload["executions_total"] == 10
        assert "executions_saved" not in payload
        assert "disk_cache_hits" not in payload

    def test_full_payload_with_extras(self, reports_dir):
        stats = CacheStats(hits=3, misses=1, evictions=0, size=4, maxsize=8)
        payload = emit(
            op="sweep",
            n_points=3,
            wall_s={"cold": 1.0, "warm": 0.5},
            speedup={"warm": 2.0},
            cache=stats,
            executions_total=10,
            executions_saved=6,
            disk_cache_hits=2,
            quick=True,
            grid="fig9",
        )
        assert set(payload) == REQUIRED_KEYS | OPTIONAL_KEYS | {"quick", "grid"}
        assert payload["cache"] == cache_dict(stats)
        assert payload["quick"] is True and payload["grid"] == "fig9"

    def test_rounding_policy(self, reports_dir):
        payload = emit(
            op="sweep",
            n_points=1,
            wall_s={"cold": 1.23456789123},
            speedup={"cold": 1.23456789},
        )
        assert payload["wall_s"]["cold"] == 1.234568  # 6 decimal places
        assert payload["speedup"]["cold"] == 1.235  # 3 decimal places

    def test_cache_dict_schema(self):
        stats = CacheStats(hits=3, misses=1, evictions=0, size=4, maxsize=8,
                           disk_hits=2)
        flat = cache_dict(stats)
        assert set(flat) == CACHE_KEYS
        # 3 hits of which 2 were disk promotions: the memory tier served
        # 1 of 4 lookups, the disk tier 2 of 4.
        assert flat["hit_ratio"] == pytest.approx(0.25)
        assert flat["disk_hits"] == 2
        assert flat["disk_hit_ratio"] == pytest.approx(0.5)

    def test_hit_ratio_tiers_are_disjoint_and_complete(self):
        stats = CacheStats(hits=8, misses=2, evictions=0, size=8, maxsize=16,
                           disk_hits=3)
        assert stats.memo_hits == 5
        total = stats.hit_ratio + stats.disk_hit_ratio
        assert total == pytest.approx(stats.hits / stats.lookups)
        untouched = CacheStats(hits=0, misses=0, evictions=0, size=0, maxsize=4)
        assert untouched.hit_ratio == 0.0
        assert untouched.disk_hit_ratio == 0.0

    def test_artifact_is_byte_stable(self, reports_dir):
        # sort_keys + trailing newline: regenerating an identical run
        # must produce an identical file (clean diffs in the repo).
        kwargs = dict(op="sweep", n_points=1, wall_s={"cold": 1.0}, b=1, a=2)
        first = write_json_report("unit", **kwargs).read_bytes()
        second = write_json_report("unit", **kwargs).read_bytes()
        assert first == second
        assert first.endswith(b"\n")
        keys = list(json.loads(first))
        assert keys == sorted(keys)


def _validate(name: str, payload: dict) -> list[str]:
    """All schema violations in one committed report payload."""
    problems = []
    missing = REQUIRED_KEYS - set(payload)
    if missing:
        problems.append(f"missing required keys: {sorted(missing)}")
    if not isinstance(payload.get("op"), str):
        problems.append("op must be a string")
    if not isinstance(payload.get("n_points"), int):
        problems.append("n_points must be an integer")
    wall = payload.get("wall_s")
    if not (
        isinstance(wall, dict)
        and wall
        and all(
            isinstance(k, str) and isinstance(v, (int, float))
            for k, v in wall.items()
        )
    ):
        problems.append("wall_s must be a non-empty {pass: seconds} mapping")
    speedup = payload.get("speedup")
    if speedup is not None and not (
        isinstance(speedup, dict)
        and all(
            isinstance(k, str) and isinstance(v, (int, float))
            for k, v in speedup.items()
        )
    ):
        problems.append("speedup must be null or a {pass: ratio} mapping")
    cache = payload.get("cache")
    if cache is not None and set(cache) != CACHE_KEYS:
        problems.append(f"cache sub-schema drifted: {sorted(cache)}")
    for key in OPTIONAL_KEYS & set(payload):
        if not isinstance(payload[key], int):
            problems.append(f"{key} must be an integer when present")
    return problems


class TestCommittedReports:
    """The artifacts in benchmarks/reports/ conform to the golden schema."""

    def _report_paths(self):
        return sorted((_BENCH_DIR / "reports").glob("*.json"))

    def test_reports_exist(self):
        assert self._report_paths(), "no committed benchmark reports found"

    def test_every_committed_report_conforms(self):
        failures = {}
        for path in self._report_paths():
            problems = _validate(path.name, json.loads(path.read_text()))
            if problems:
                failures[path.name] = problems
        assert not failures, f"schema drift in committed reports: {failures}"

    def test_every_report_has_a_text_companion(self):
        for path in self._report_paths():
            assert path.with_suffix(".txt").exists(), (
                f"{path.name} has no rendered .txt companion"
            )

class TestPlannerReportFields:
    """``reports/planner.json`` carries the cold/warm dominance record.

    The planner benchmark's acceptance claim — adaptive beats the full
    sweep wall-clock cold AND warm on every figure-scale config — is
    consumed from the committed report, so its field shape and the
    >= 1.0x floors are pinned here.
    """

    _LABELS = ("fig2", "fig6", "fig9")

    @pytest.fixture(scope="class")
    def planner(self) -> dict:
        path = _BENCH_DIR / "reports" / "planner.json"
        return json.loads(path.read_text())

    def test_wall_clock_covers_every_config_mode_and_temperature(self, planner):
        for label in self._LABELS:
            for mode in ("full", "adaptive"):
                for temp in ("cold", "warm"):
                    key = f"{label}_{mode}_{temp}"
                    assert key in planner["wall_s"], key
                    assert planner["wall_s"][key] > 0.0

    def test_adaptive_dominates_cold_and_warm(self, planner):
        for label in self._LABELS:
            assert planner["speedup"][f"{label}_cold"] >= 1.0, label
            assert planner["speedup"][f"{label}_warm"] >= 1.0, label

    def test_speedups_are_consistent_with_wall_clocks(self, planner):
        for label in self._LABELS:
            for temp in ("cold", "warm"):
                ratio = (
                    planner["wall_s"][f"{label}_full_{temp}"]
                    / planner["wall_s"][f"{label}_adaptive_{temp}"]
                )
                recorded = planner["speedup"][f"{label}_{temp}"]
                assert recorded == pytest.approx(ratio, rel=1e-2)

    def test_point_ratios_meet_the_committed_floor(self, planner):
        assert set(planner["configs"]) == set(self._LABELS)
        for label, config in planner["configs"].items():
            assert config["point_ratio"] >= planner["min_point_ratio"], label
            assert config["executed_points"] < config["native_points"]


class TestServeReportFields:
    """``reports/serve.json`` carries the serving acceptance record.

    The coordination server's headline claims — micro-batched serving
    at least 3x the unbatched throughput under 256 concurrent clients,
    warm p99 within 5x of warm p50, and served answers bit-identical
    to the direct library call — are consumed from the committed
    report, so the field shape and those floors are pinned here (the
    in-run assertions in ``bench_serve`` stay machine-independent, per
    the bench policy).
    """

    @pytest.fixture(scope="class")
    def serve(self) -> dict:
        path = _BENCH_DIR / "reports" / "serve.json"
        return json.loads(path.read_text())

    def test_load_is_at_acceptance_scale(self, serve):
        assert serve["op"] == "serve_budget_curves"
        assert serve["n_clients"] >= 256
        assert serve["n_points"] == serve["n_clients"] * serve["requests_per_client"]
        assert serve["quick"] is False

    def test_batched_serving_meets_the_3x_floor(self, serve):
        assert serve["speedup"]["batched_cold"] >= 3.0
        assert serve["speedup"]["batched_warm"] >= 3.0

    def test_speedups_are_consistent_with_wall_clocks(self, serve):
        for phase in ("batched_cold", "batched_warm"):
            ratio = serve["wall_s"]["unbatched_cold"] / serve["wall_s"][phase]
            assert serve["speedup"][phase] == pytest.approx(ratio, rel=1e-2)

    def test_warm_p99_meets_the_latency_slo(self, serve):
        p50 = serve["latency_ms"]["batched_warm_p50"]
        p99 = serve["latency_ms"]["batched_warm_p99"]
        assert p50 > 0.0
        assert p99 <= 5.0 * p50

    def test_served_answers_match_the_direct_library_call(self, serve):
        assert serve["identity"]["queries_checked"] > 0
        assert serve["identity"]["mismatches"] == 0

    def test_coalescer_engaged_on_the_redundant_load(self, serve):
        batching = serve["batching"]
        assert batching["max_batch"] > 1
        assert batching["dedup_ratio"] > 0.5
        assert batching["mean_occupancy"] > 1.0


class TestFleetReportFields:
    """``reports/fleet.json`` carries the fleet-scale acceptance record.

    The fleet simulator's headline claims — a 1,000-node/100k-job seeded
    trace driven through the batched allocation rounds, with the
    power-pressure machinery (missed-budget holds, water-filling
    re-splits, grant re-timing) actually engaged and each quantized-grant
    lattice resolved once per replay — are consumed from the committed
    report, so the field shape and those floors are pinned here (the
    in-run assertions in ``bench_fleet`` stay machine-independent).
    """

    @pytest.fixture(scope="class")
    def fleet(self) -> dict:
        path = _BENCH_DIR / "reports" / "fleet.json"
        return json.loads(path.read_text())

    def test_load_is_at_acceptance_scale(self, fleet):
        assert fleet["op"] == "fleet_simulation"
        assert fleet["fleet"]["n_nodes"] >= 1_000
        assert fleet["n_points"] >= 100_000
        assert fleet["quick"] is False

    def test_headline_metrics_are_present_and_sane(self, fleet):
        assert fleet["throughput_jobs_per_hour"] > 0.0
        assert fleet["makespan_s"] > 0.0
        assert fleet["n_completed"] + fleet["n_rejected"] == fleet["n_points"]
        bound = fleet["fleet"]["global_bound_w"]
        assert 0.0 < fleet["peak_charged_w"] <= bound + 1e-6

    def test_pressure_machinery_engaged(self, fleet):
        assert fleet["n_missed_budget"] > 0
        assert fleet["n_resplits"] > 0
        assert fleet["n_retimed"] > 0

    def test_lattice_memoization_carried_the_load(self, fleet):
        cache = fleet["cache"]
        rows = fleet["lattice_rows"]
        # Distinct executions stay bounded by the lattices (a few dozen
        # rows per (profile, workload) pair), not the job count, and each
        # lattice resolves once per replay: cold misses every row once,
        # the warm replay on the same engine hits every row once.
        assert 0 < rows < 1_000
        assert cache["misses"] == rows
        assert cache["hits"] == rows
        assert fleet["n_kernel_passes"] > 0

    def test_warm_replay_recorded(self, fleet):
        assert set(fleet["wall_s"]) == {"trace_gen", "cold", "warm"}
        ratio = fleet["wall_s"]["cold"] / fleet["wall_s"]["warm"]
        assert fleet["speedup"]["warm"] == pytest.approx(ratio, rel=1e-2)
