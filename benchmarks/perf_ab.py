"""A/B the perf benchmark: a git ref against the working tree, alternating.

Run from anywhere inside a repro checkout::

    python benchmarks/perf_ab.py [--ref HEAD] [--workload W] [--pairs 5]
        [--seconds 20] [--seed 2016]

``make perf-ab REF=... WORKLOAD=... PAIRS=... SECONDS=... SEED=...`` is
the same.  The ref is checked out into a temporary ``git worktree``
under ``$TMPDIR``; pair ``i`` then runs ``benchmarks/perf/run.py --out``
once in each tree, the ref first in even pairs and the working tree
first in odd ones, so drift in the host's speed hits both sides alike.
Each pair's end-to-end values are printed, then for every metric the
median of each side, the ref's quartiles, the change of the medians and
how many pairs the working tree won (ties count for neither), and last
``run.py compare`` on the final pair.  Every run's scratch files,
``--out`` JSON and bytecode cache live in the temporary directory,
which is removed with the worktree at the end; nothing is written in
the checkout.  The exit code is non-zero when any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks") / "perf" / "run.py"


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--ref", default="HEAD", help="git ref to compare against")
    p.add_argument("--workload", default="", help="one workload (default: all)")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=2016)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    return args


def _git(*argv: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *argv], check=True,
                          capture_output=True, text=True).stdout.strip()


def _run(tree: Path, out: Path, args: argparse.Namespace, tmp: Path) -> dict[str, Any]:
    """One ``run.py --out`` in ``tree``; returns its workloads' results."""
    argv = [sys.executable, str(RUN), "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--out", str(out)]
    if args.workload:
        argv += ["--workload", args.workload]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), TMPDIR=str(tmp),
               PYTHONPYCACHEPREFIX=str(tmp / "pycache"))
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if not out.is_file():
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: {RUN} exited {proc.returncode} in {tree}")
    workloads: dict[str, Any] = json.loads(out.read_text())["workloads"]
    return workloads


def _values(workloads: dict[str, Any], names: list[str]) -> dict[tuple[str, str], float]:
    return {(w, n): r["metrics"][n]["value"]
            for w, r in workloads.items() for n in names
            if n in r.get("metrics", {})}


def _failures(workloads: dict[str, Any]) -> int:
    return sum(1 if "crashed" in r else r["failed"] for r in workloads.values())


def main(argv: list[str]) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = list(better)
    ref_sha = _git("rev-parse", "--verify", f"{args.ref}^{{commit}}")
    tmp = Path(tempfile.mkdtemp(prefix="perf-ab-"))
    ref_tree = tmp / "ref"
    sides = {"ref": ref_tree, "change": ROOT}
    runs: dict[str, list[dict[tuple[str, str], float]]] = {"ref": [], "change": []}
    failed = 0
    last: dict[str, Path] = {}
    try:
        _git("worktree", "add", "--quiet", "--detach", str(ref_tree), ref_sha)
        print(f"ref {args.ref} ({ref_sha[:12]}) vs the working tree; "
              f"{args.pairs} pair(s) of {args.seconds:g} s, seed {args.seed}")
        for i in range(args.pairs):
            order = ("ref", "change") if i % 2 == 0 else ("change", "ref")
            for side in order:
                last[side] = tmp / f"{side}-{i}.json"
                workloads = _run(sides[side], last[side], args, tmp)
                failed += _failures(workloads)
                runs[side].append(_values(workloads, names))
            for key in runs["ref"][i]:
                if key in runs["change"][i]:
                    print(f"pair {i + 1} {key[0]} {key[1]}: "
                          f"ref {runs['ref'][i][key]:.6g}  "
                          f"change {runs['change'][i][key]:.6g}")
        print(f"\n{'workload':16s} {'metric':12s} {'ref median':>11s} "
              f"{'ref q1..q3':>19s} {'change':>11s} {'delta':>8s}  wins")
        for key in runs["ref"][0]:
            pairs = [(r[key], c[key]) for r, c in zip(runs["ref"], runs["change"])
                     if key in r and key in c]
            if not pairs:
                continue
            ref_values = [r for r, _ in pairs]
            ref_med = statistics.median(ref_values)
            change_med = statistics.median(c for _, c in pairs)
            q1, _, q3 = (statistics.quantiles(ref_values, n=4)
                         if len(ref_values) > 1 else (ref_med, ref_med, ref_med))
            sign = 1.0 if better[key[1]] == "lower" else -1.0
            wins = sum(sign * (r - c) > 0 for r, c in pairs)
            delta = (change_med - ref_med) / ref_med if ref_med else float("nan")
            print(f"{key[0]:16s} {key[1]:12s} {ref_med:11.5g} "
                  f"{q1:9.5g}..{q3:<9.5g} {change_med:11.5g} {delta:+8.1%}  "
                  f"{wins}/{len(pairs)}")
        print(f"\nrun.py compare on pair {args.pairs}:")
        sys.stdout.flush()
        subprocess.run([sys.executable, "-B", str(ROOT / RUN), "compare",
                        str(last["ref"]), str(last["change"])], cwd=tmp)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                        str(ref_tree)], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    if failed:
        print(f"{failed} failed operation(s) across the runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
