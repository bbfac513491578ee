"""Golden digests of the CLI's output, one per verb.

Each case runs one ``repro`` command in-process from a scratch working
directory and pins its exit code and the sha256 of everything it printed
to stdout (``tests/golden/cli.json``).  The ``fleet --trace`` case reads
a seeded bursty trace written with :func:`~repro.sched.traces.write_trace`
into that directory under a fixed relative name (the verb prints the
path), and the written file's own digest is pinned too, so a generator
trace must keep writing byte-identical files.

Regenerate with ``PYTHONPATH=src python -m tests.test_cli_golden`` only
when a change is *meant* to alter what a verb prints.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.sched.traces import bursty_trace, write_trace

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
CHAOS_PLAN = Path(__file__).resolve().parents[1] / "examples" / "faults" / "chaos_smoke.json"

#: The trace file the ``fleet-trace-file`` case reads, relative to the
#: working directory the cases run in.
TRACE_FILE = "fleet.trace"

#: Case name -> argv.  The fleet cases re-split under pressure, so their
#: tables cover holds, re-timed grants and several kernel passes.
COMMANDS: dict[str, list[str]] = {
    "profile-stream": ["profile", "stream"],
    "profile-minife-json": ["profile", "minife", "--json"],
    "coord-stream-execute": ["coord", "stream", "208", "--execute"],
    "coord-minife-execute": ["coord", "minife", "150", "--execute"],
    "sweep-sra": ["sweep", "sra", "240", "--step", "16"],
    "sweep-gpu-stream": ["sweep", "gpu-stream", "150"],
    "fleet-generated": ["fleet", "--nodes", "32", "--gen-jobs", "300",
                        "--rate", "4", "--interval", "10"],
    "fleet-trace-file": ["fleet", "--trace", TRACE_FILE, "--nodes", "16",
                         "--interval", "10"],
    "chaos-smoke": ["chaos", "--plan", str(CHAOS_PLAN), "--scale", "smoke"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_trace_file(directory: Path) -> str:
    """Write the ``fleet-trace-file`` case's trace; returns its digest."""
    path = directory / TRACE_FILE
    write_trace(path, bursty_trace(n_jobs=400, burst_size=16, gap_s=15.0,
                                   seed=2016))
    return _sha256(path.read_bytes())


def _run(argv: list[str]) -> dict:
    """One in-process CLI run from the current working directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout_sha256": _sha256(out.getvalue().encode())}


def _cli_outcome() -> dict:
    """Every case's outcome, run as :class:`TestCliGolden` runs them."""
    outcome: dict = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        outcome["trace-file"] = _write_trace_file(Path(scratch))
        os.chdir(scratch)
        try:
            for name, argv in COMMANDS.items():
                outcome[name] = _run(argv)
        finally:
            os.chdir(cwd)
    return outcome


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


class TestCliGolden:
    def test_golden_covers_every_case(self, golden):
        assert sorted(golden) == sorted([*COMMANDS, "trace-file"])

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_stdout_matches_golden(self, name, golden, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        _write_trace_file(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert _run(COMMANDS[name]) == golden[name]

    def test_generated_trace_file_is_byte_stable(self, golden, tmp_path):
        assert _write_trace_file(tmp_path) == golden["trace-file"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_cli_outcome(), indent=2) + "\n")
