"""The ``sweeps-full`` and ``sweeps-adaptive`` workloads.

One pass answers the paper's sweep load through the public library
calls: the fig2 budget curves (dgemm/sra on both CPU nodes, 120-300 W,
6 W allocation steps), the fig6 cap curves (sgemm/minife on both GPU
cards) and the fig9 best points (every CPU workload at four budgets,
every GPU workload at the in-range caps).  The seed only orders the
calls, so the answers -- and their golden digests -- do not depend on
it, while the memo cache sees a seed-dependent access order.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from measure import (
    HERE,
    HostSpeed,
    Tracer,
    between,
    engine_counts,
    make_engine,
    span,
)

GOLDEN = HERE / "golden" / "sweeps.json"

FIG2_BUDGETS = np.arange(120.0, 301.0, 10.0)
FIG2_STEP_W = 6.0
FIG6_CAPS = np.arange(130.0, 301.0, 10.0)
FIG9_STEP_W = 4.0


@dataclass(frozen=True)
class Call:
    """One library call of the load: ``run(engine, adaptive) -> answer``."""

    group: str
    key: str
    run: Callable[[Any, bool], Any]


def build_load(seed: int) -> list[Call]:
    """The sweep load in a seed-determined order."""
    from repro.core.planner import (
        adaptive_cpu_budget_curve,
        adaptive_gpu_budget_curve,
        plan_cpu_sweep,
        plan_gpu_sweep,
    )
    from repro.core.sweep import (
        cpu_budget_curve,
        gpu_budget_curve,
        sweep_cpu_allocations,
        sweep_gpu_allocations,
    )
    from repro.experiments.fig9 import CPU_BUDGETS_W, GPU_CAPS_W
    from repro.hardware.platforms import (
        haswell_node,
        ivybridge_node,
        titan_v_card,
        titan_xp_card,
    )
    from repro.workloads import (
        cpu_workload,
        gpu_workload,
        list_cpu_workloads,
        list_gpu_workloads,
    )

    nodes = (ivybridge_node(), haswell_node())
    cards = (titan_xp_card(), titan_v_card())

    def cpu_curve(node, wl):
        def run(engine, adaptive):
            fn = adaptive_cpu_budget_curve if adaptive else cpu_budget_curve
            return fn(node.cpu, node.dram, wl, FIG2_BUDGETS, step_w=FIG2_STEP_W,
                      engine=engine)
        return run

    def gpu_curve(card, wl, caps):
        def run(engine, adaptive):
            fn = adaptive_gpu_budget_curve if adaptive else gpu_budget_curve
            return fn(card, wl, caps, freq_stride=1, engine=engine)
        return run

    def cpu_best(node, wl, budget):
        def run(engine, adaptive):
            fn = plan_cpu_sweep if adaptive else sweep_cpu_allocations
            return fn(node.cpu, node.dram, wl, budget, step_w=FIG9_STEP_W,
                      engine=engine).best
        return run

    def gpu_best(card, wl, cap):
        def run(engine, adaptive):
            fn = plan_gpu_sweep if adaptive else sweep_gpu_allocations
            return fn(card, wl, cap, freq_stride=1, engine=engine).best
        return run

    # Blocks keep each workload's budgets ascending, as the paper's figures
    # sweep them, and the seed orders the blocks.  The best-point blocks
    # run first: the curves share grid points and planner hints with them,
    # so a curve ahead of them would turn some of their misses into hits
    # depending on the seed, and the latency metrics time them.
    blocks: list[list[Call]] = []
    for node in nodes:
        for name in ("dgemm", "sra"):
            blocks.append([Call("fig2", f"{node.name}/{name}",
                                cpu_curve(node, cpu_workload(name)))])
    for card in cards:
        caps = FIG6_CAPS[(FIG6_CAPS >= card.min_cap_w) & (FIG6_CAPS <= card.max_cap_w)]
        for name in ("sgemm", "minife"):
            blocks.append([Call("fig6", f"{card.name}/{name}",
                                gpu_curve(card, gpu_workload(name), caps))])
    node = nodes[0]
    for name in list_cpu_workloads():
        blocks.append([Call("fig9", f"{node.name}/{name}/{budget}",
                            cpu_best(node, cpu_workload(name), budget))
                       for budget in CPU_BUDGETS_W])
    for card in cards:
        for name in list_gpu_workloads():
            blocks.append([Call("fig9", f"{card.name}/{name}/{cap}",
                                gpu_best(card, gpu_workload(name), cap))
                           for cap in GPU_CAPS_W
                           if card.min_cap_w <= cap <= card.max_cap_w])
    rng = random.Random(seed)
    curves = [b for b in blocks if b[0].group != "fig9"]
    bests = [b for b in blocks if b[0].group == "fig9"]
    rng.shuffle(bests)
    rng.shuffle(curves)
    return [call for block in bests + curves for call in block]


def digests(calls: list[Call], answers: list[Any]) -> dict[str, str]:
    """Per-group SHA-256 over the answers in key order (order-independent)."""
    by_group: dict[str, list[tuple[str, bytes]]] = {}
    for call, answer in zip(calls, answers):
        if call.group == "fig9":
            blob = repr(answer).encode()
        else:
            blob = b"".join(
                np.ascontiguousarray(a, dtype=np.float64).tobytes()
                for a in (answer.budgets_w, answer.perf_max, answer.optimal_mem_w)
            )
        by_group.setdefault(call.group, []).append((call.key, blob))
    out = {}
    for group, items in sorted(by_group.items()):
        h = hashlib.sha256()
        for key, blob in sorted(items):
            h.update(key.encode() + b"\0" + blob)
        out[group] = h.hexdigest()
    return out


def check_answers(calls: list[Call], answers: list[Any], label: str) -> list[str]:
    """Mismatches against the committed golden digests (empty when correct)."""
    want = json.loads(GOLDEN.read_text())
    got = digests(calls, answers)
    return [
        f"{label}: {group} digest {got.get(group)} != golden {digest}"
        for group, digest in want.items()
        if got.get(group) != digest
    ]


def run_pass(calls: list[Call], engine, adaptive: bool, tracer: Tracer | None,
             latencies: list[float] | None):
    """Answer every call once; returns the answers in call order.

    ``latencies`` collects the time of each best-point query (fig9): the
    question a caller asks and waits for.  The curves are batch output,
    timed as part of the pass.
    """
    name = "planner" if adaptive else "sweep"
    answers = []
    for call in calls:
        start = time.perf_counter()
        with span(tracer, name):
            answers.append(call.run(engine, adaptive))
        if latencies is not None and call.group == "fig9":
            latencies.append(time.perf_counter() - start)
    return answers


def full_pair(calls: list[Call], traced: bool, host: HostSpeed) -> dict[str, Any]:
    """Cold pass on a fresh full-mode engine, then a warm pass on it."""
    tracer = Tracer() if traced else None
    latencies: list[float] = []
    factors = [host.factor()]
    start = time.perf_counter()
    engine = make_engine(tracer, "full")
    cold_answers = run_pass(calls, engine, False, tracer, latencies)
    cold_s = time.perf_counter() - start
    factors.append(host.factor())
    start = time.perf_counter()
    warm_answers = run_pass(calls, engine, False, tracer, None)
    warm_s = time.perf_counter() - start
    factors.append(host.factor())
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "factors": between(factors),
        "latencies": [(latencies, between(factors)[0])],
        "attempted": 2 * len(calls),
        "errors": check_answers(calls, cold_answers, "cold")
        + check_answers(calls, warm_answers, "warm"),
        "spans": tracer.drain() if tracer is not None else None,
        "counts": engine_counts(engine),
    }


def adaptive_pair(calls: list[Call], traced: bool, host: HostSpeed) -> dict[str, Any]:
    """Cold plan into a fresh disk tier (compute, then flush), then a
    fresh engine re-planning from that disk tier."""
    tracer = Tracer() if traced else None
    counts: dict[str, int] = {}
    latencies: list[float] = []
    cache_dir = tempfile.mkdtemp(prefix="disk-")
    try:
        factors = [host.factor()]
        start = time.perf_counter()
        engine = make_engine(tracer, "adaptive", cache_dir)
        cold_answers = run_pass(calls, engine, True, tracer, latencies)
        with span(tracer, "disk.flush"):
            engine.flush()
        cold_s = time.perf_counter() - start
        factors.append(host.factor())
        start = time.perf_counter()
        warm = make_engine(tracer, "adaptive", cache_dir)
        warm_answers = run_pass(calls, warm, True, tracer, None)
        warm_s = time.perf_counter() - start
        factors.append(host.factor())
        for eng in (engine, warm):
            # A finished pass stands for a process that has exited: drop
            # its disk tier from the interpreter's exit hooks, which would
            # otherwise keep every pass's records alive until exit.
            atexit.unregister(eng.disk_cache.flush)
            for key, value in engine_counts(eng).items():
                counts[key] = counts.get(key, 0) + value
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "factors": between(factors),
        "latencies": [(latencies, between(factors)[0])],
        "attempted": 2 * len(calls),
        "errors": check_answers(calls, cold_answers, "adaptive cold")
        + check_answers(calls, warm_answers, "adaptive disk-warm"),
        "spans": tracer.drain() if tracer is not None else None,
        "counts": counts,
    }
