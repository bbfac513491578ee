"""Cross-process persistent-cache smoke: two processes, one cache dir.

The disk cache's whole reason to exist is reuse *across* processes — a
cold CLI run populates ``REPRO_CACHE_DIR``, a later run in a different
process is served from it.  The unit tests in ``tests/test_diskcache.py``
lock the cache semantics in-process; this smoke exercises the real
deployment path end to end:

1. spawn a fresh interpreter that runs the fig2 fast experiment in
   adaptive mode with ``REPRO_CACHE_DIR`` pointing at an empty directory
   (expected: zero disk hits, segments published on flush);
2. spawn a second fresh interpreter with the same environment
   (expected: every model execution served from disk — disk hits equal
   the first process's misses, and zero new misses reach the model).

Both processes resolve the cache directory purely from the environment
variable, so this also smokes the ``resolve_cache_dir`` plumbing that
the CLI relies on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Runs inside a fresh interpreter.  The engine is built with defaults so
# cache_dir comes from REPRO_CACHE_DIR and mode from REPRO_SWEEP — the
# exact resolution path a CLI user hits.
_CHILD = """\
import json, sys
from repro.core.parallel import SweepEngine, resolve_cache_dir, resolve_mode
from repro.experiments.registry import run_experiment

engine = SweepEngine()
run_experiment("fig2", fast=True, engine=engine)
engine.flush()
stats = engine.stats
json.dump(
    {
        "mode": resolve_mode(None),
        "cache_dir": str(resolve_cache_dir(None)),
        "misses": stats.misses,
        "disk_hits": stats.disk_hits,
    },
    sys.stdout,
)
"""


def _run_child(env: dict[str, str]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
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
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_SWEEP"] = "adaptive"

    cold = _run_child(env)
    warm = _run_child(env)

    for run in (cold, warm):
        assert run["mode"] == "adaptive"
        assert run["cache_dir"] == env["REPRO_CACHE_DIR"]

    # Cold process starts from an empty directory and publishes on flush.
    assert cold["disk_hits"] == 0
    assert cold["misses"] > 0
    segments = list((tmp_path / "cache").glob("seg-*.jsonl"))
    assert segments, "cold process did not publish any cache segments"

    # Warm process re-executes nothing: every lookup the planner issues
    # is served by the persistent cache the cold process wrote.
    assert warm["misses"] == 0
    assert warm["disk_hits"] == cold["misses"]

    print(
        f"\ncross-process cache reuse: cold misses={cold['misses']} -> "
        f"warm disk_hits={warm['disk_hits']} (0 re-executions)"
    )
