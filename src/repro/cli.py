"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``list`` — platforms, workloads, and experiments available;
* ``profile`` — print (or export as JSON) a workload's critical power
  values on a platform;
* ``coord`` — run COORD for a workload and budget, optionally execute and
  report performance;
* ``sweep`` — print a Figure-3 style allocation profile;
* ``experiment`` — regenerate a paper artifact and print its tables;
* ``chaos`` — run the fault-injection contract battery for a fault plan;
* ``fleet`` — drive an arrival trace through the event-driven fleet
  simulator (``docs/scheduling.md``);
* ``serve`` — run the micro-batched coordination server.

Settings enter through flags only, with one exception: pointing the
``REPRO_FAULTS`` environment variable at a plan JSON file arms that
fault plan for any command.  It is read here in :func:`main`, the one
place the package reads the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from repro import __version__
from repro.config import to_json
from repro.core.coord import coord_cpu
from repro.core.parallel import SWEEP_MODES, SweepEngine
from repro.core.coord_gpu import apply_gpu_decision, coord_gpu
from repro.core.profiler import profile_cpu_workload, profile_gpu_workload
from repro.core.sweep import sweep_cpu_allocations, sweep_gpu_allocations
from repro.errors import ReproError
from repro.experiments import list_experiments, run_experiment
from repro.faults.injector import FAULTS_ENV_VAR, use_faults
from repro.faults.plan import FaultPlan
from repro.faults.report import ledger
from repro.hardware.gpu import GpuCard
from repro.hardware.node import ComputeNode
from repro.hardware.nvml import NvmlDevice
from repro.hardware.platforms import get_platform, list_platforms
from repro.lint.cli import add_lint_arguments, run_from_args as run_lint_from_args
from repro.perfmodel.executor import execute_on_gpu, execute_on_host
from repro.serve.config import ServeConfig
from repro.util.ascii_plot import sparkline
from repro.util.tables import format_table
from repro.workloads import get_workload, list_workloads

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cross-component power coordination on power-bounded systems",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list platforms, workloads, experiments")

    p = sub.add_parser("profile", help="extract critical power values")
    p.add_argument("workload")
    p.add_argument("--platform", default=None, help="default: ivybridge / titan-xp")
    p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("coord", help="coordinate a budget for a workload")
    p.add_argument("workload")
    p.add_argument("budget", type=float, help="total power budget in watts")
    p.add_argument("--platform", default=None)
    p.add_argument("--execute", action="store_true", help="run under the allocation")

    p = sub.add_parser("sweep", help="allocation profile at one budget")
    p.add_argument("workload")
    p.add_argument("budget", type=float)
    p.add_argument("--platform", default=None)
    p.add_argument("--step", type=float, default=8.0)
    _add_engine_arguments(p)

    p = sub.add_parser(
        "lint",
        help="run the repro invariant linter (RPL001-RPL005)",
        description="AST-based invariant checks over the repro codebase",
    )
    add_lint_arguments(p)

    p = sub.add_parser("experiment", help="regenerate a paper artifact")
    p.add_argument("artifact", help="fig1..fig9, table1, ablation, or 'all'")
    p.add_argument("--fast", action="store_true", help="coarser sweeps")
    _add_engine_arguments(p)

    p = sub.add_parser(
        "chaos",
        help="run the fault-injection contract battery",
        description=(
            "Runs every public API clean and under the given fault plan, and "
            "verifies the degradation contract: results are bit-identical to "
            "the clean run or the degradation is typed.  Exits nonzero iff "
            "the contract is violated."
        ),
    )
    p.add_argument("--plan", required=True, help="path to a fault plan JSON file")
    p.add_argument(
        "--scale", choices=("smoke", "fig9"), default="fig9",
        help="battery size: CI-sized 'smoke' or the paper-scale 'fig9' grids "
             "(default: fig9)",
    )
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument(
        "--sweep-mode", choices=SWEEP_MODES, default="full",
        help="sweep strategy of the battery's sweep checks (default: full)",
    )

    p = sub.add_parser(
        "fleet",
        help="trace-driven fleet simulation over heterogeneous nodes",
        description=(
            "Drives a synthetic or file-backed arrival trace through the "
            "event-driven FleetSimulator: quantized grants, batched "
            "allocation rounds through the sweep engine, and optional "
            "periodic water-filling budget re-splits.  See "
            "docs/scheduling.md."
        ),
    )
    p.add_argument(
        "--trace", default=None,
        help="trace file (see repro.sched.traces); default: a seeded "
             "synthetic Poisson trace",
    )
    p.add_argument("--nodes", type=int, default=64, help="fleet size (default: 64)")
    p.add_argument(
        "--bound", type=float, default=None,
        help="global power bound in watts (default: 120 W per node)",
    )
    p.add_argument(
        "--interval", type=float, default=0.0,
        help="budget re-split period in seconds; 0 disables (default: 0)",
    )
    p.add_argument(
        "--gen-jobs", type=int, default=500,
        help="synthetic trace length when --trace is absent (default: 500)",
    )
    p.add_argument(
        "--rate", type=float, default=2.0,
        help="synthetic trace arrival rate in jobs/s (default: 2.0)",
    )
    p.add_argument("--seed", type=int, default=42, help="synthetic trace seed")
    _add_engine_arguments(p)

    p = sub.add_parser(
        "serve",
        help="run the coordination server (micro-batched, warm engine)",
        description=(
            "Long-lived allocation daemon: newline-delimited JSON over TCP, "
            "concurrent queries coalesced into micro-batched flushes "
            "against one warm engine.  See docs/serving.md."
        ),
    )
    p.add_argument(
        "--host", default=ServeConfig.host, help="bind address (default: %(default)s)"
    )
    p.add_argument(
        "--port", type=int, default=ServeConfig.port,
        help="bind port, 0 for ephemeral (default: %(default)s)",
    )
    p.add_argument(
        "--max-batch", type=int, default=ServeConfig.max_batch,
        help="flush the admission queue at this depth; 1 disables batching "
             "(default: %(default)s)",
    )
    p.add_argument(
        "--max-wait-us", type=int, default=ServeConfig.max_wait_us,
        help="flush the admission queue after this many microseconds "
             "(default: %(default)s)",
    )
    p.add_argument(
        "--resolvers", type=int, default=ServeConfig.n_resolvers,
        help="resolver threads draining flushes (default: %(default)s)",
    )
    p.add_argument(
        "--stats-interval", type=float, default=ServeConfig.stats_interval_s,
        help="seconds between stats log lines, 0 disables (default: %(default)s)",
    )
    p.add_argument(
        "--smoke", action="store_true",
        help="start, drive a concurrent TCP burst, assert clean shutdown",
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="sweep workers; only 1 is accepted (sweeps run in the calling thread)",
    )
    _add_engine_arguments(p)
    return parser


def _add_engine_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--sweep-mode", choices=SWEEP_MODES, default=None,
        help="sweep strategy: 'full' grids or the adaptive planner "
             "(default: full)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="persistent cross-process sweep cache root (default: no disk cache)",
    )


def _make_engine(args: argparse.Namespace) -> SweepEngine | None:
    """An engine built from the engine flags given; ``None`` if none is."""
    given = {
        name: value
        for name, value in (
            ("n_jobs", getattr(args, "jobs", None)),  # `serve` only
            ("mode", args.sweep_mode),
            ("cache_dir", args.cache_dir),
        )
        if value is not None
    }
    return SweepEngine(**given) if given else None


def _resolve(workload_name: str, platform_name: str | None):
    workload = get_workload(workload_name)
    if platform_name is None:
        platform_name = "ivybridge" if workload.device == "cpu" else "titan-xp"
    platform = get_platform(platform_name)
    if workload.device == "cpu" and not isinstance(platform, ComputeNode):
        raise ReproError(
            f"workload {workload.name!r} needs a CPU node, got {platform_name!r}"
        )
    if workload.device == "gpu" and not isinstance(platform, GpuCard):
        raise ReproError(
            f"workload {workload.name!r} needs a GPU card, got {platform_name!r}"
        )
    return workload, platform


def _cmd_list() -> int:
    print("platforms: ", ", ".join(list_platforms()))
    print("cpu workloads: ", ", ".join(list_workloads("cpu")))
    print("gpu workloads: ", ", ".join(list_workloads("gpu")))
    print("experiments: ", ", ".join(list_experiments()))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    workload, platform = _resolve(args.workload, args.platform)
    if workload.device == "cpu":
        critical = profile_cpu_workload(platform.cpu, platform.dram, workload)
    else:
        critical = profile_gpu_workload(platform, workload)
    if args.json:
        print(to_json(critical))
    else:
        for key, value in critical.as_dict().items():
            print(f"{key:>10s}: {value:8.1f} W")
    return 0


def _cmd_coord(args: argparse.Namespace) -> int:
    workload, platform = _resolve(args.workload, args.platform)
    if workload.device == "cpu":
        critical = profile_cpu_workload(platform.cpu, platform.dram, workload)
        decision = coord_cpu(critical, args.budget)
        print(f"status: {decision.status.value}")
        print(f"allocation: {decision.allocation}")
        if decision.surplus_w > 0:
            print(f"reclaimable surplus: {decision.surplus_w:.1f} W")
        if not decision.accepted:
            print(f"(productive threshold: {critical.productive_threshold_w:.1f} W)")
            return 1
        if args.execute:
            result = execute_on_host(
                platform.cpu, platform.dram, workload.phases,
                decision.allocation.proc_w, decision.allocation.mem_w,
            )
            print(f"performance: {workload.performance(result):.4g} "
                  f"{workload.metric_unit}")
            print(f"actual power: {result.total_power_w:.1f} W "
                  f"(bound respected: {result.respects_bound})")
    else:
        critical = profile_gpu_workload(platform, workload)
        decision = coord_gpu(critical, args.budget, hardware_max_w=platform.max_cap_w)
        device = NvmlDevice(platform)
        mem_op = apply_gpu_decision(device, decision, args.budget)
        print(f"status: {decision.status.value}")
        print(f"allocation: {decision.allocation} "
              f"(memory clock {mem_op.freq_mhz:.0f} MHz)")
        if args.execute:
            result = execute_on_gpu(
                platform, workload.phases, device.read_power_limit_w(),
                mem_op.freq_mhz,
            )
            print(f"performance: {workload.performance(result):.4g} "
                  f"{workload.metric_unit}")
            print(f"actual power: {result.total_power_w:.1f} W")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    workload, platform = _resolve(args.workload, args.platform)
    engine = _make_engine(args)
    if workload.device == "cpu":
        sweep = sweep_cpu_allocations(
            platform.cpu, platform.dram, workload, args.budget, step_w=args.step,
            engine=engine,
        )
        rows = [
            (p.allocation.mem_w, p.allocation.proc_w, p.performance,
             p.actual_total_w, p.scenario.roman)
            for p in sweep.points
        ]
        headers = ["P_mem (W)", "P_cpu (W)", f"perf ({workload.metric_unit})",
                   "actual (W)", "cat."]
    else:
        sweep = sweep_gpu_allocations(platform, workload, args.budget, engine=engine)
        rows = [
            (f, a, p, r.actual_total_w, r.scenario.roman)
            for f, a, p, r in zip(
                sweep.mem_freqs_mhz, sweep.mem_alloc_w,
                sweep.performances, sweep.points,
            )
        ]
        headers = ["mem clk (MHz)", "P_mem est. (W)",
                   f"perf ({workload.metric_unit})", "actual (W)", "cat."]
    print(format_table(headers, rows, float_spec=".4g"))
    perfs = [r[2] for r in rows]
    print(f"\nshape: {sparkline(perfs)}")
    best = sweep.best
    print(f"best: {best.allocation} -> {best.performance:.4g} "
          f"{workload.metric_unit}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.contract import run_chaos

    plan = FaultPlan.load(args.plan)
    report = run_chaos(plan, scale=args.scale, mode=args.sweep_mode)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    artifacts = list_experiments() if args.artifact == "all" else [args.artifact]
    # One engine across artifacts so 'all' shares the memo cache.
    engine = _make_engine(args)
    for artifact in artifacts:
        report = run_experiment(artifact, fast=args.fast, engine=engine)
        print(report.render())
        print()
    if engine is not None:
        engine.flush()
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.sched import FleetSimulator
    from repro.sched.traces import poisson_trace, read_trace

    if args.trace is not None:
        trace = read_trace(args.trace)
        source = args.trace
    else:
        trace = poisson_trace(
            n_jobs=args.gen_jobs, rate_per_s=args.rate, seed=args.seed
        )
        source = (
            f"synthetic poisson (n={args.gen_jobs}, rate={args.rate}/s, "
            f"seed={args.seed})"
        )
    bound = args.bound if args.bound is not None else 120.0 * args.nodes
    sim = FleetSimulator(
        trace,
        n_nodes=args.nodes,
        global_bound_w=bound,
        resplit_interval_s=args.interval,
        engine=_make_engine(args),
    )
    stats = sim.run()
    print(f"trace: {source} ({len(trace)} jobs)")
    print(f"fleet: {stats.n_nodes} nodes under {bound:.0f} W "
          f"(re-split every {args.interval:.0f} s)" if args.interval > 0
          else f"fleet: {stats.n_nodes} nodes under {bound:.0f} W")
    rows = [
        ("completed", str(stats.n_completed)),
        ("rejected", str(stats.n_rejected)),
        ("makespan (s)", f"{stats.makespan_s:.1f}"),
        ("throughput (jobs/h)", f"{stats.throughput_jobs_per_hour:.1f}"),
        ("mean wait (s)", f"{stats.mean_wait_s:.2f}"),
        ("total energy (MJ)", f"{stats.total_energy_j / 1e6:.2f}"),
        ("peak charged (W)", f"{stats.peak_charged_w:.0f}"),
        ("budget re-splits", str(stats.n_resplits)),
        ("grants re-timed", str(stats.n_retimed)),
        ("missed-budget holds", str(stats.n_missed_budget)),
        ("allocation rounds", str(stats.n_rounds)),
        ("kernel passes", str(stats.n_kernel_passes)),
        ("events dispatched", str(stats.n_events)),
    ]
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import run_server, run_smoke

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_us=args.max_wait_us,
        stats_interval_s=args.stats_interval,
        n_resolvers=args.resolvers,
    )
    engine = _make_engine(args)
    if args.smoke:
        # Smoke always binds an ephemeral port: CI runs must not collide.
        run_smoke(
            dataclasses.replace(config, port=0, stats_interval_s=0.0),
            engine=engine,
        )
        return 0
    run_server(config, engine=engine)
    return 0


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "coord":
        return _cmd_coord(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "lint":
        return run_lint_from_args(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "serve":
        return _cmd_serve(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 0  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    ``REPRO_FAULTS=<plan.json>`` arms the named fault plan process-wide
    for the duration of the command — the library never reads the
    environment itself (``chaos`` ignores the variable: its battery arms
    its own injectors from ``--plan``).  Every other setting is a flag.
    An armed command whose :func:`~repro.faults.report.ledger` is not
    clean prints its summary on stderr; stdout and exit code are its own.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        plan_path = os.environ.get(FAULTS_ENV_VAR)
        if plan_path and args.command != "chaos":
            with use_faults(FaultPlan.load(plan_path)), ledger() as report:
                code = _dispatch(parser, args)
            if not report.clean:
                print(report.summary(), file=sys.stderr)
            return code
        return _dispatch(parser, args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
