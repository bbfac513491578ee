"""Tier-1 checks of the performance benchmark's own machinery.

Pure functions are tested directly; one ``--quick`` run drives all four
workloads end to end (about 15 s) with its scratch space in ``tmp_path``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

import measure
import run
import serve
import sweeps
from measure import END_TO_END, PER_LAYER, ROOT, WORKLOADS


def test_catalogue_is_fixed():
    a = serve.catalogue()
    assert a == serve.catalogue()
    keys = {json.dumps(q, sort_keys=True) for q in a}
    assert len(keys) == len(a) == sum(serve.COMPOSITION.values())
    # Every kind is spread over the ranks: the top 100 hold all four ops.
    assert {op for op, _ in a[:100]} == {"coord", "profile", "sweep_best", "budget_curve"}
    assert len(serve.catalogue(0.1)) == pytest.approx(len(a) / 10, abs=4)
    gpu = {"titan-xp", "titan-v"}
    share = sum(params["platform"] in gpu for _, params in a) / len(a)
    assert share == pytest.approx(0.2)


def test_arrivals_are_a_pure_function_of_the_seed():
    a = serve.arrivals(7, 450.0, 4.0, 1000)
    assert a == serve.arrivals(7, 450.0, 4.0, 1000)
    assert a != serve.arrivals(8, 450.0, 4.0, 1000)
    offsets = [t for t, _ in a]
    assert offsets == sorted(offsets) and 0.0 < offsets[0] and offsets[-1] < 4.0
    assert len(a) == pytest.approx(1800, rel=0.1)
    counts = Counter(i for _, i in a)
    assert all(0 <= i < 1000 for i in counts)
    # Zipf by rank: rank 1 is the most requested query.
    assert counts.most_common(1)[0][0] == 0


def test_percentile_needs_ten_samples_beyond_it():
    assert measure.percentile(list(range(999)), 99.0) is None
    assert measure.percentile(list(range(1000)), 99.0) == pytest.approx(989.01)
    assert measure.percentile(list(range(19)), 50.0) is None
    assert measure.percentile(list(range(20)), 50.0) == pytest.approx(9.5)
    assert measure.latency_metrics([[0.001] * 19]) == {}
    # Units of 100 merge into windows of 500; a slow burst moves one window.
    units = [[0.001] * 100] * 5 + [[0.003] * 100] * 5 + [[0.001] * 100] * 6
    latency = measure.latency_metrics(units)
    assert latency["p50_ms"]["n"] == 3  # the short tail joined the last window
    assert latency["p50_ms"]["value"] == pytest.approx(1.0)
    assert latency["p50_ms"]["q3"] > 1.0
    assert latency["p99_ms"]["value"] == pytest.approx(3.0)


def test_host_factor_brackets_each_unit():
    speed = measure.HostSpeed()
    factors = [speed.factor() for _ in range(3)] + [speed.spawn_factor()]
    assert all(0.2 < f < 20.0 for f in factors)
    assert measure.between([1.0, 2.0, 4.0]) == [1.5, 3.0]
    # Two 1 s pieces at factors 1 and 2 would take 1.5 s on the quiet host.
    assert measure.pieced([1.0, 1.0], [1.0, 1.0, 3.0]) == pytest.approx(2.0 / 1.5)


def test_self_time_from_nested_spans():
    spans = [
        ("sweep", 0.0, 10.0, -1, None, None),
        ("engine.map_host", 1.0, 4.0, 0, None, (5, 5)),
        ("engine.subgrid", 2.0, 3.0, 1, None, (2, 0)),
        ("engine.map_gpu", 5.0, 9.0, 0, None, (3, 1)),
        ("sweep", 11.0, 12.0, -1, None, None),
    ]
    assert measure.self_times(spans) == pytest.approx({
        "sweep": 3.0 + 1.0, "engine.map_host": 2.0, "engine.subgrid": 1.0,
        "engine.map_gpu": 4.0,
    })
    split = measure.layer_split(spans, 13.0)
    assert split["engine.busy_s"] == pytest.approx(7.0)
    assert split["caller.self_s"] == pytest.approx(4.0)
    assert split["outside_s"] == pytest.approx(2.0)
    assert (split["engine.busy_s"] + split["caller.self_s"] + split["outside_s"]
            == pytest.approx(split["trace.wall_s"]))
    counts = measure.span_counts(spans)
    assert counts["kernel.rows"] == 6 and counts["kernel.passes"] == 2
    assert counts["engine.subgrid.rows"] == 2
    # Windowing keeps whole trees and re-links their parents.
    window = measure.in_window(spans, 0.5, 9.5)
    assert window == []
    window = measure.in_window(spans, 0.0, 10.0)
    assert measure.self_times(window) == pytest.approx({
        "sweep": 3.0, "engine.map_host": 2.0, "engine.subgrid": 1.0,
        "engine.map_gpu": 4.0,
    })
    assert measure.in_window(spans, 10.5, 12.0) == [("sweep", 11.0, 12.0, -1, None, None)]


def test_tracer_records_parents():
    tracer = measure.Tracer()
    with measure.span(tracer, "fleet.run"):
        inner = tracer.open("engine.subgrid")
        tracer.close(inner, (2, 1))
    (a, b) = tracer.drain()
    assert (a[0], a[3], b[0], b[3], b[5]) == ("fleet.run", -1, "engine.subgrid", 0, (2, 1))
    assert a[1] <= b[1] <= b[2] <= a[2]
    with pytest.raises(KeyError), measure.span(tracer, "service.resolve", 7):
        raise KeyError
    assert tracer.drain()[0][::4] == ("service.resolve", 7)
    with measure.span(None, "sweep"):
        pass


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER


def test_sweep_answers_match_golden_in_both_modes():
    calls = sweeps.build_load(3)
    for mode in ("full", "adaptive"):
        engine = measure.make_engine(None, mode)
        answers = sweeps.run_pass(calls, engine, mode == "adaptive", None, None)
        assert sweeps.check_answers(calls, answers, mode) == []


def test_compare_verdicts(tmp_path, capsys):
    def m(value, q1=None, q3=None):
        return {"value": value, "q1": q1, "q3": q3, "n": 5, "unit": "s"}

    assert run.verdict(m(1.0), m(1.05), "lower", 0.10) == "within bound"
    assert run.verdict(m(1.0), m(1.2), "lower", 0.10) == "worse"
    assert run.verdict(m(1.0), m(0.8), "lower", 0.10) == "better"
    assert run.verdict(m(1.0), m(0.8), "higher", 0.10) == "worse"
    assert run.verdict(m(1.0, 0.8, 1.3), m(1.0), "lower", 0.10) == "unresolved"
    assert run.verdict(m(1.0), m(9.0), "higher", None) == "-"
    files = []
    for name, cold in (("a", m(1.0, 0.99, 1.01)), ("b", m(1.5, 1.49, 1.51))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"workloads": {"fleet-pressure": {
            "metrics": {"cold_s": cold, "engine.misses": m(92.0)}}}}))
        files.append(str(path))
    assert run.compare(*files) == 1
    out = capsys.readouterr().out
    assert "cold_s" in out and "worse" in out and "engine.misses" in out


def test_quick_run_of_all_workloads(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    out = tmp_path / "quick.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "perf" / "run.py"), "--quick",
         "--seed", "7", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=180,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for key, metric in line["metrics"].items():
        workload, name = key.split("/")
        assert workload in WORKLOADS
        assert END_TO_END[name][0] == metric["unit"]
    results = json.loads(out.read_text())["workloads"]
    assert sorted(results) == sorted(WORKLOADS)
    for result in results.values():
        for name in ("setup_s", "cold_s", "warm_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0
    assert [p.name for p in tmp_path.iterdir()] == ["quick.json"]  # scratch removed
    assert elapsed < 60.0
