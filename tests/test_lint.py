"""The repro invariant linter: fixtures fire, suppressions hold, tree is clean.

Each ``tests/lint_fixtures/<rule>/`` directory is a tiny project with
known violations; the tests pin the exact rule ids and line numbers that
fire, that legitimate constructs nearby stay silent, and that the full
``src/repro`` tree (the self-check the CI gate runs) reports zero
findings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import LintConfig, LintError, rule_catalog, run_lint
from repro.lint.cli import main as lint_main

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"


def findings(directory: Path, **config) -> list:
    return run_lint([directory], LintConfig(**config))


def locations(diags, rule_id: str) -> list[tuple[str, int]]:
    return [
        (Path(d.path).name, d.line) for d in diags if d.rule_id == rule_id
    ]


# ---------------------------------------------------------------------------
# per-rule fixtures
# ---------------------------------------------------------------------------

class TestRuleFixtures:
    def test_rpl001_purity_fires_on_reachable_functions(self):
        diags = findings(FIXTURES / "rpl001")
        assert locations(diags, "RPL001") == [
            ("batchwork.py", 7),  # os.getenv
            ("batchwork.py", 8),  # print
            ("plannerwork.py", 21),  # open (disk I/O on the planner path)
            ("work.py", 12),  # np.random.default_rng
            ("work.py", 17),  # time.time
            ("work.py", 18),  # print
            ("work.py", 19),  # os.environ
            ("work.py", 20),  # global
        ]

    def test_rpl001_unreachable_functions_are_exempt(self):
        diags = findings(FIXTURES / "rpl001")
        lines = [d.line for d in diags if d.path.endswith("work.py")]
        # `unreachable_is_fine` uses time.perf_counter with no finding.
        assert all(line <= 22 for line in lines)

    def test_rpl001_explicit_entry_extends_the_graph(self):
        diags = findings(
            FIXTURES / "rpl001",
            purity_entries=("work.unreachable_is_fine",),
        )
        assert ("work.py", 27) in locations(diags, "RPL001")

    def test_rpl001_batch_entry_fires_via_engine_dispatch(self):
        # `run_batch` is only reachable through the engine's
        # execute_batch dispatch — the same shape as the real
        # SweepEngine handing whole grids to the vectorized kernel.
        diags = findings(FIXTURES / "rpl001")
        batch_hits = [loc for loc in locations(diags, "RPL001")
                      if loc[0] == "batchwork.py"]
        assert batch_hits == [("batchwork.py", 7), ("batchwork.py", 8)]

    def test_rpl001_disk_io_fires_on_planner_path_only(self):
        # Disk I/O inside the memoized planner entry fires; the same
        # I/O behind a cache object's instance method stays silent —
        # the shape that keeps DiskCache persistence off pure paths.
        diags = findings(FIXTURES / "rpl001")
        planner_hits = [loc for loc in locations(diags, "RPL001")
                        if loc[0] == "plannerwork.py"]
        assert planner_hits == [("plannerwork.py", 21)]

    def test_rpl002_lock_discipline(self):
        diags = findings(FIXTURES / "rpl002")
        assert locations(diags, "RPL002") == [
            ("asyncserve.py", 12),  # unguarded store in async def
            ("asyncserve.py", 16),  # unguarded .append in async def
            ("shared.py", 13),  # unguarded subscript store
            ("shared.py", 17),  # unguarded .append
            ("shared.py", 22),  # unguarded global rebind
        ]

    def test_rpl002_async_with_lock_guards(self):
        # `async with _STATE_LOCK:` satisfies lock discipline exactly
        # like its synchronous sibling — only the unguarded async
        # mutations in the fixture may fire.
        diags = findings(FIXTURES / "rpl002")
        async_hits = [loc for loc in locations(diags, "RPL002")
                      if loc[0] == "asyncserve.py"]
        assert async_hits == [("asyncserve.py", 12), ("asyncserve.py", 16)]

    def test_rpl002_serve_package_is_always_checked(self):
        from repro.lint.rules.locks import _always_checked

        assert _always_checked("repro.serve")
        assert _always_checked("repro.serve.service")
        assert _always_checked("repro.core.parallel")
        assert not _always_checked("repro.core.sweep")
        assert not _always_checked("repro.serves.other")

    def test_rpl003_float_equality(self):
        diags = findings(FIXTURES / "rpl003")
        assert locations(diags, "RPL003") == [
            ("floats.py", 5),
            ("floats.py", 7),
        ]

    def test_rpl003_suppression_is_honored(self):
        diags = findings(FIXTURES / "rpl003")
        assert ("floats.py", 9) not in locations(diags, "RPL003")

    def test_rpl004_budget_conservation(self):
        diags = findings(FIXTURES / "rpl004")
        assert locations(diags, "RPL004") == [
            ("alloc.py", 5),
            ("alloc.py", 6),
            ("alloc.py", 7),
        ]

    def test_rpl005_determinism(self):
        diags = findings(FIXTURES / "rpl005")
        assert locations(diags, "RPL005") == [
            ("figure.py", 12),
            ("figure.py", 14),
            ("figure.py", 15),
            ("figure.py", 16),
            ("figure.py", 17),
        ]

    def test_every_rule_has_a_firing_fixture(self):
        fired = set()
        for rule_dir in sorted(FIXTURES.iterdir()):
            if rule_dir.is_dir():
                fired.update(d.rule_id for d in findings(rule_dir))
        assert fired == set(rule_catalog())

    def test_select_restricts_rules(self):
        diags = findings(FIXTURES / "rpl003", select=frozenset({"RPL004"}))
        assert diags == []


# ---------------------------------------------------------------------------
# self-check: the real tree is clean
# ---------------------------------------------------------------------------

class TestSelfCheck:
    def test_src_repro_reports_zero_findings(self):
        assert run_lint([SRC_REPRO]) == []

    def test_default_purity_entries_name_the_batch_kernels(self):
        from repro.lint import DEFAULT_PURITY_ENTRIES

        assert DEFAULT_PURITY_ENTRIES == (
            "repro.core.diskcache.decode_result",
            "repro.core.diskcache.digest_key",
            "repro.core.diskcache.encode_result",
            "repro.core.planner._plan_axis",
            "repro.core.planner._probe_indices",
            "repro.perfmodel.batch.GpuBatchKernel.execute_indices",
            "repro.perfmodel.batch.HostBatchKernel.execute_indices",
            "repro.perfmodel.batch.execute_gpu_batch",
            "repro.perfmodel.batch.execute_host_batch",
            "repro.perfmodel.executor.execute_on_gpu",
            "repro.perfmodel.executor.execute_on_host",
        )
        assert LintConfig().purity_entries == DEFAULT_PURITY_ENTRIES
        # The scalar oracle stays under RPL001 although the engine no
        # longer calls it: its entries reach its helpers.
        from repro.lint.callgraph import CallGraph
        from repro.lint.engine import load_project

        graph = CallGraph.build(
            load_project([SRC_REPRO]), extra_entries=DEFAULT_PURITY_ENTRIES
        )
        reachable = graph.reachable()
        for helper in ("_host_phase", "_gpu_phase", "cpu_candidate_table"):
            assert f"repro.perfmodel.executor.{helper}" in reachable

    def test_batch_kernel_is_rooted_and_traversed_in_the_real_tree(self):
        # The purity contract must cover the vectorized kernels both as
        # explicit roots and via the engine-module auto-detection, and
        # reachability must descend into their private helpers.
        from repro.lint import DEFAULT_PURITY_ENTRIES
        from repro.lint.callgraph import CallGraph
        from repro.lint.engine import load_project

        project = load_project([SRC_REPRO])
        graph = CallGraph.build(project, extra_entries=DEFAULT_PURITY_ENTRIES)
        assert set(DEFAULT_PURITY_ENTRIES) <= graph.entries

        # Auto-detection alone (the SweepEngine module's cross-module
        # calls) roots the sub-grid gather door, the engine's only way
        # into the kernels; the full-axis kernels, the kernel methods,
        # the planner's axis search, and the disk-cache codecs need the
        # explicit entries.
        auto = CallGraph.build(project)
        assert {
            entry for entry in auto.entries
            if entry.startswith("repro.perfmodel.batch.")
        } == {"repro.perfmodel.batch.batch_execute_indices"}

        reachable = graph.reachable()
        for helper in (
            "repro.perfmodel.batch._resolve_cpu_batch",
            "repro.perfmodel.batch._resolve_dram_batch",
            "repro.perfmodel.batch._host_phase_batch",
            "repro.perfmodel.batch._gpu_phase_batch",
            "repro.perfmodel.batch.HostBatchKernel.execute_indices",
            "repro.perfmodel.batch.GpuBatchKernel.execute_indices",
            "repro.core.planner._one_contiguous_run",
            "repro.core.planner._unimodal_within_tol",
        ):
            assert helper in reachable

    def test_module_cli_exits_zero_on_clean_tree(self):
        assert lint_main([str(SRC_REPRO)]) == 0

    def test_repro_lint_subcommand_exits_zero(self, capsys):
        assert repro_main(["lint", str(SRC_REPRO)]) == 0
        assert "0 findings" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# CLI behavior
# ---------------------------------------------------------------------------

class TestCli:
    def test_nonzero_exit_and_rule_ids_on_violations(self, capsys):
        code = lint_main([str(FIXTURES / "rpl003")])
        out = capsys.readouterr().out
        assert code == 1
        assert "RPL003" in out
        assert "floats.py:5" in out

    def test_json_output_parses(self, capsys):
        code = lint_main([str(FIXTURES / "rpl004"), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["count"] == 3
        assert {f["rule"] for f in doc["findings"]} == {"RPL004"}
        first = doc["findings"][0]
        assert set(first) == {"path", "line", "col", "rule", "severity", "message"}

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPL001", "RPL002", "RPL003", "RPL004", "RPL005"):
            assert rule_id in out

    def test_select_option(self, capsys):
        code = lint_main([str(FIXTURES / "rpl003"), "--select", "RPL004"])
        assert code == 0

    def test_missing_path_is_a_usage_error(self, capsys):
        assert lint_main([str(FIXTURES / "does-not-exist")]) == 2
        assert "error" in capsys.readouterr().err

    def test_python_dash_m_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(FIXTURES / "rpl005")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC_REPRO.parent)},
        )
        assert proc.returncode == 1
        assert "RPL005" in proc.stdout


# ---------------------------------------------------------------------------
# engine/library details
# ---------------------------------------------------------------------------

class TestEngineDetails:
    def test_diagnostics_are_sorted_and_stable(self):
        diags = findings(FIXTURES / "rpl001")
        assert diags == sorted(diags)
        assert findings(FIXTURES / "rpl001") == diags

    def test_lint_error_on_non_python_target(self, tmp_path):
        target = tmp_path / "data.txt"
        target.write_text("not python")
        with pytest.raises(LintError):
            run_lint([target])

    def test_syntax_error_is_reported_as_lint_error(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        with pytest.raises(LintError):
            run_lint([tmp_path])

    def test_file_level_suppression(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text(
            "# repro-lint: disable-file=RPL003 -- fixture-wide waiver\n"
            "def f(proc_w, budget_w):\n"
            "    return proc_w == budget_w\n"
        )
        assert run_lint([tmp_path]) == []

    def test_directive_inside_string_is_inert(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text(
            'WAIVER = "# repro-lint: disable-file=RPL003"\n'
            "def f(proc_w, budget_w):\n"
            "    return proc_w == budget_w\n"
        )
        diags = run_lint([tmp_path])
        assert [d.rule_id for d in diags] == ["RPL003"]
