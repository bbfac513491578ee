"""Cross-process persistent-cache smoke: two processes, one cache dir.

The disk cache's whole reason to exist is reuse *across* processes — a
cold run populates a ``--cache-dir``, a later run in a different process
is served from it.  The unit tests in ``tests/test_diskcache.py`` lock
the cache semantics in-process; this smoke exercises the real
deployment path end to end:

1. spawn a fresh interpreter that runs the fig2 fast experiment on an
   adaptive engine rooted at an empty cache directory (expected: zero
   disk hits, segments published on flush);
2. spawn a second fresh interpreter with the same arguments (expected:
   every model execution served from disk — disk hits equal the first
   process's misses, and zero new misses reach the model).

Each child gets the sweep mode and the cache directory as command-line
arguments and builds its engine from them, as the CLI does from
``--sweep-mode`` and ``--cache-dir``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Runs inside a fresh interpreter: argv is [mode, cache_dir].
_CHILD = """\
import json, sys
from repro.core.parallel import SweepEngine
from repro.experiments.registry import run_experiment

mode, cache_dir = sys.argv[1:]
engine = SweepEngine(mode=mode, cache_dir=cache_dir)
run_experiment("fig2", fast=True, engine=engine)
engine.flush()
stats = engine.stats
json.dump(
    {
        "mode": engine.mode,
        "cache_dir": str(engine.disk_cache.root),
        "misses": stats.misses,
        "disk_hits": stats.disk_hits,
    },
    sys.stdout,
)
"""


def _run_child(env: dict[str, str], mode: str, cache_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, str(cache_dir)],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cache_reuse_across_processes(tmp_path):
    src = str(REPO_ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cache_dir = tmp_path / "cache"

    cold = _run_child(env, "adaptive", cache_dir)
    warm = _run_child(env, "adaptive", cache_dir)

    for run in (cold, warm):
        assert run["mode"] == "adaptive"
        assert run["cache_dir"] == str(cache_dir)

    # Cold process starts from an empty directory and publishes on flush.
    assert cold["disk_hits"] == 0
    assert cold["misses"] > 0
    segments = list(cache_dir.glob("seg-*.jsonl"))
    assert segments, "cold process did not publish any cache segments"

    # Warm process re-executes nothing: every lookup the planner issues
    # is served by the persistent cache the cold process wrote.
    assert warm["misses"] == 0
    assert warm["disk_hits"] == cold["misses"]

    print(
        f"\ncross-process cache reuse: cold misses={cold['misses']} -> "
        f"warm disk_hits={warm['disk_hits']} (0 re-executions)"
    )
