"""The repro performance benchmark: four workloads, end-to-end and per-layer.

Run every workload, or one, from the repository root::

    PYTHONPATH=src python benchmarks/perf/run.py --seed 2016 [--workload W]
        [--seconds S] [--trace [0|1]] [--quick] [--out F]
    python benchmarks/perf/run.py compare A.json B.json

Each workload runs in a fresh child process, one at a time.  Every
metric is printed as ``workload metric value unit`` (with quartiles and
sample count where the value summarises repeats), outputs are checked
against golden answers, and the last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.  The exit code is
non-zero when any check fails.  ``--out`` writes every metric (and,
traced, the spans of one unit per workload) for ``compare``.  Scratch
files live in a directory made under ``$TMPDIR`` (default: the
checkout) and removed at the end.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from measure import (
    END_TO_END,
    HERE,
    PER_LAYER,
    ROOT,
    SRC,
    WORKLOADS,
    child_env,
)

DEFAULT_SECONDS = 20.0
QUICK_SECONDS = 2.0
CHILD_TIMEOUT_S = 170.0


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="compare: run.py compare A.json B.json",
    )
    p.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument("--seconds", type=float, default=None,
                   help=f"measuring time per workload (default {DEFAULT_SECONDS:g}, "
                        f"--quick {QUICK_SECONDS:g})")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--quick", action="store_true",
                   help="smoke sizes: short runs, small fleet and catalogue")
    p.add_argument("--out", type=Path, help="write all results as JSON")
    p.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    p.add_argument("--probe", choices=WORKLOADS[:3], help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _probe(args: argparse.Namespace) -> int:
    """Set a workload up, say so, exit: one set-up sample."""
    from worker import setup_inputs

    setup_inputs(args.probe, args.seed, args.quick)
    print("ready", flush=True)
    return 0


def _child(args: argparse.Namespace) -> int:
    from worker import run_workload

    result = run_workload(args.child, args.seed, args.seconds, args.quick,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


def _run_child(workload: str, args: argparse.Namespace) -> dict[str, Any]:
    argv = [sys.executable, str(HERE / "run.py"), "--child", workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace)]
    argv += ["--quick"] * args.quick
    # Its own session, so a timeout also stops the servers and probes it
    # started.
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"crashed": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exited {proc.returncode}"}
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _line(workload: str, name: str, m: dict[str, Any]) -> str:
    text = f"{workload} {name} {m['value']:.6g} {m['unit']}"
    if m.get("q1") is not None:
        text += f"  q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}"
    elif m.get("n", 1) > 1:
        text += f"  n={m['n']}"
    return text


def _report(workload: str, result: dict[str, Any], trace: int) -> bool:
    """Print one workload's metrics and check failures; True when correct."""
    if "crashed" in result:
        print(f"{workload} FAILED: worker {result['crashed']}")
        return False
    wanted = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    for name in wanted:
        if name in metrics:
            print(_line(workload, name, metrics[name]))
        else:
            print(f"{workload} {name} n/a (too few samples)")
    for name, m in [*((n, m) for n, m in metrics.items() if n not in wanted),
                    *result["printed"].items()]:
        print(_line(workload, name, m))
    for error in result["errors"]:
        print(f"{workload} CHECK FAILED: {error}")
    if result["failed"]:
        print(f"{workload} {result['failed']} of {result['attempted']} failed")
    return result["failed"] == 0


def _summary_line(results: dict[str, dict[str, Any]], trace: int) -> dict[str, Any]:
    """The final JSON object; metric names carry the workload when several ran."""
    wanted = PER_LAYER if trace else END_TO_END
    metrics: dict[str, Any] = {}
    for workload, result in results.items():
        prefix = "" if len(results) == 1 else f"{workload}/"
        for name in wanted:
            m = result.get("metrics", {}).get(name)
            if m is not None:
                metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    ok = all("crashed" not in r and r["failed"] == 0 for r in results.values())
    return {
        "correct": ok,
        "attempted": sum(r.get("attempted", 0) for r in results.values()) or 1,
        "failed": sum(r.get("failed", 1) for r in results.values()),
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare(*argv[1:])
    args = _parse(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.probe:
        return _probe(args)
    if args.child:
        return _child(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a repro checkout",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results: dict[str, dict[str, Any]] = {}
    correct = True
    start = time.perf_counter()
    # Every process below inherits TMPDIR, so their disk tiers and span
    # files land in this directory.
    scratch = tempfile.mkdtemp(prefix=".perfbench-",
                               dir=os.environ.get("TMPDIR") or ROOT)
    os.environ["TMPDIR"] = scratch
    try:
        for workload in workloads:
            results[workload] = _run_child(workload, args)
            correct &= _report(workload, results[workload], args.trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"total {time.perf_counter() - start:.1f} s")
    if args.out is not None:
        args.out.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "quick": args.quick, "workloads": results,
        }))
    print(json.dumps(_summary_line(results, args.trace)))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _rel_iqr(m: dict[str, Any]) -> float:
    if m.get("q1") is None or not m["value"]:
        return 0.0
    return (m["q3"] - m["q1"]) / abs(m["value"])


def verdict(a: dict[str, Any], b: dict[str, Any], better: str,
            bound: float | None) -> str:
    """within bound / better / worse / unresolved (spread wider than bound)."""
    if bound is None or not a["value"]:
        return "-"
    if max(_rel_iqr(a), _rel_iqr(b)) > bound:
        return "unresolved"
    change = (b["value"] - a["value"]) / abs(a["value"])
    worse = change if better == "lower" else -change
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "within bound"


def compare(a_path: str, b_path: str) -> int:
    """One row per workload and metric present in both result files."""
    a = json.loads(Path(a_path).read_text())["workloads"]
    b = json.loads(Path(b_path).read_text())["workloads"]
    print(f"{'workload':16s} {'metric':26s} {'A median':>11s} {'A iqr':>7s} "
          f"{'B median':>11s} {'B iqr':>7s} {'delta':>8s}  verdict")
    worse = 0
    for workload in (w for w in WORKLOADS if w in a and w in b):
        ma, mb = a[workload].get("metrics", {}), b[workload].get("metrics", {})
        for name in (n for n in ma if n in mb):
            _, better, bound = END_TO_END.get(name, ("", "lower", None))
            v = verdict(ma[name], mb[name], better, bound)
            worse += v == "worse"
            base = ma[name]["value"]
            delta = (mb[name]["value"] - base) / abs(base) if base else float("nan")
            print(f"{workload:16s} {name:26s} {base:11.5g} {_rel_iqr(ma[name]):7.1%} "
                  f"{mb[name]['value']:11.5g} {_rel_iqr(mb[name]):7.1%} "
                  f"{delta:+8.1%}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
