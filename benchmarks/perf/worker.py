"""One workload in one fresh process: set-up probes, timed units, metrics.

The runner (``run.py``) starts this through ``run.py --child WORKLOAD``;
the last stdout line is the JSON result it reads back.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Any

from measure import (
    PER_LAYER,
    HostSpeed,
    between,
    in_window,
    latency_metrics,
    layer_split,
    make_engine,
    peak_rss_mb,
    point,
    probe_setup,
    self_times,
    span_counts,
    summarize,
)

#: Spans kept per workload for ``--out`` (the first traced unit's).
SPAN_CAP = 20_000
#: Fresh-process set-up probes per run (``--quick``: 1).
SETUP_PROBES = 5


def setup_inputs(workload: str, seed: int, quick: bool) -> Any:
    """Everything a sweeps or fleet workload builds before its first timed
    unit; a set-up probe runs exactly this.  (``serve-mixed`` times the
    server's own start instead.)"""
    if workload == "fleet-pressure":
        from fleet import build_trace, simulator

        trace = build_trace(seed, quick)
        simulator(trace, quick, make_engine(None, "full"))
        return trace
    from sweeps import build_load

    return build_load(seed)


def _setup(host: HostSpeed, workload: str, seed: int,
           quick: bool) -> list[tuple[float, float]]:
    """Set-up probes, each ``(seconds, host factor)``; a process-start
    calibration runs before the first probe and after each one."""
    factors = [host.spawn_factor()]
    seconds = []
    for _ in range(1 if quick else SETUP_PROBES):
        seconds.append(probe_setup(workload, seed, quick))
        factors.append(host.spawn_factor())
    return list(zip(seconds, between(factors)))


def _timings(setup: list[tuple[float, float]], cold: list[tuple[float, float]],
             warm: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The timed end-to-end metrics, and printed companions.

    Every sample arrives as ``(seconds, factor)``, with the host factor
    measured around it (:class:`measure.HostSpeed`).  The metrics divide
    each by its factor -- the time on the quiet reference host; the
    printed ``wall.*`` medians and ``host.*`` factors show the raw clock.
    """
    def scaled(pairs: list[tuple[float, float]]) -> list[float]:
        return [seconds / factor for seconds, factor in pairs]

    metrics = {
        "setup_s": summarize(scaled(setup), "s"),
        "cold_s": summarize(scaled(cold), "s"),
        "warm_s": summarize(scaled(warm), "s"),
    }
    printed = {
        f"wall.{name}": summarize([seconds for seconds, _ in pairs], "s")
        for name, pairs in (("setup_s", setup), ("cold_s", cold), ("warm_s", warm))
    }
    printed["host.spawn_factor"] = summarize([factor for _, factor in setup], "x")
    printed["host.factor"] = summarize([factor for _, factor in cold + warm], "x")
    return metrics, printed


def _unit_metrics(untraced_walls: list[float], traced: list[tuple[list, float]],
                  counts: dict[str, float]) -> tuple[dict, dict]:
    """Per-layer metrics: the time split of traced units ``(spans, wall_s)``,
    their slowdown over untraced units, and one unit's ``counts``."""
    splits = [layer_split(spans, wall) for spans, wall in traced]
    metrics: dict[str, Any] = {
        name: summarize([s[name] for s in splits], "s") for name in splits[0]
    }
    if untraced_walls:
        metrics["trace.slowdown"] = point(
            statistics.median(wall for _, wall in traced)
            / statistics.median(untraced_walls), "x", len(traced))
    for name, (unit, _) in PER_LAYER.items():
        if name not in metrics:
            metrics[name] = point(counts.get(name, 0), unit)
    selfs = [self_times(spans) for spans, _ in traced]
    printed = {
        f"self.{name}_s": summarize([s.get(name, 0.0) for s in selfs], "s")
        for name in sorted({n for s in selfs for n in s})
    }
    return metrics, printed


def _pairs(workload: str, seed: int, seconds: float, quick: bool,
           trace: bool) -> dict[str, Any]:
    """Cold/warm pairs until ``seconds`` have passed; in trace mode the
    pairs alternate untraced and traced."""
    host = HostSpeed()
    setup = _setup(host, workload, seed, quick)
    inputs = setup_inputs(workload, seed, quick)
    if workload == "fleet-pressure":
        from fleet import fleet_pair

        def pair(traced: bool) -> dict[str, Any]:
            return fleet_pair(inputs, quick, seed, traced, host)
    else:
        from sweeps import adaptive_pair, full_pair

        fn = full_pair if workload == "sweeps-full" else adaptive_pair

        def pair(traced: bool) -> dict[str, Any]:
            return fn(inputs, traced, host)

    runs: list[dict[str, Any]] = []
    end = time.perf_counter() + seconds
    while True:
        gc.collect()
        runs.append(pair(trace and len(runs) % 2 == 1))
        if len(runs) == 1:
            # Later pairs repeat the same work; all they would add to the
            # peak is the benchmark's own latency samples.
            rss_mb = peak_rss_mb(resource.RUSAGE_SELF)
        if time.perf_counter() >= end and (not trace or len(runs) >= 2):
            break
    plain = [r for r in runs if r["spans"] is None]
    traced = [r for r in runs if r["spans"] is not None]
    result: dict[str, Any] = {
        "attempted": sum(r["attempted"] for r in runs),
        "errors": [e for r in runs for e in r["errors"]],
        "printed": {"pairs": point(len(runs), "count")},
    }
    result["failed"] = len(result["errors"])
    if not trace:
        metrics, printed = _timings(
            setup,
            [(r["cold_s"], r["factors"][0]) for r in plain],
            [(r["warm_s"], r["factors"][1]) for r in plain])
        result["metrics"] = {**metrics, "peak_rss_mb": point(rss_mb, "MB")}
        result["printed"].update(printed)
        result["printed"].update(latency_metrics(
            [[x / factor for x in samples]
             for r in plain for samples, factor in r["latencies"]]))
        return result
    units = [(r["spans"], r["cold_s"] + r["warm_s"]) for r in traced]
    counts = {**span_counts(traced[0]["spans"]), **traced[0]["counts"]}
    result["metrics"], printed = _unit_metrics(
        [r["cold_s"] + r["warm_s"] for r in plain], units, counts)
    result["printed"].update(printed)
    if workload == "fleet-pressure":
        first = traced[0]
        for kind, value in sorted(first["events"].items()):
            result["printed"][f"events.{kind}_s"] = point(value, "s")
        result["printed"]["events.dispatch_rate"] = point(
            first["stats"]["n_events"] / first["warm_s"], "1/s")
    result["spans"] = traced[0]["spans"][:SPAN_CAP]
    return result


def _serve(seed: int, seconds: float, quick: bool, trace: bool) -> dict[str, Any]:
    from serve import serve_run

    out = serve_run(seed, seconds, quick, trace)
    runs = out["runs"]
    last = runs[-1]
    attempted = sum(r["sent"] for r in runs)
    failed = sum(r["failed"] for r in runs) + len(out["errors"])
    printed: dict[str, Any] = {
        "error_frac": point(failed / attempted, "ratio", attempted)}
    for step, summary in last["steps"].items():
        for key in ("p50_s", "p90_s", "p99_s", "late_p99_s"):
            if summary[key] is not None:
                name = f"serve.{key[:-2]}_ms.{step}"
                printed[name] = point(summary[key] * 1e3, "ms", summary["sent"])
    result: dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "errors": out["errors"],
        "printed": printed,
    }
    if not trace:
        metrics, more = _timings(
            [(r["setup_s"], r["factors"][0]) for r in runs],
            [(r["cold_s"], r["factors"][1]) for r in runs],
            [(r["warm_s"], r["factors"][2]) for r in runs])
        result["metrics"] = {
            **metrics,
            "peak_rss_mb": point(peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
        }
        printed.update(more)
        return result
    traced = [r for r in runs if r["traced"]]
    units = [(in_window(r["spans"], *r["pair_window"]), r["cold_s"] + r["warm_s"])
             for r in traced]
    plain = [r["cold_s"] + r["warm_s"] for r in runs if not r["traced"]]
    # The last traced server also took the rate steps: its pair supplies
    # the counts.
    counts = {**span_counts(units[-1][0]), **traced[-1]["counts"]}
    codec = last["codec"]
    if codec["replies"]:
        counts["codec.reply_bytes"] = codec["reply_bytes"] / codec["replies"]
        for key in ("encode", "decode"):
            printed[f"codec.{key}_us"] = point(
                1e6 * codec[key] / codec["replies"], "us", codec["replies"])
    result["metrics"], more = _unit_metrics(plain, units, counts)
    printed.update(more)
    result["spans"] = units[0][0][:SPAN_CAP]
    return result


def run_workload(workload: str, seed: int, seconds: float, quick: bool,
                 trace: bool) -> dict[str, Any]:
    if workload == "serve-mixed":
        return _serve(seed, seconds, quick, trace)
    return _pairs(workload, seed, seconds, quick, trace)
