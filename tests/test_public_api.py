"""Public API surface: every exported name resolves and is documented."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.hardware",
    "repro.perfmodel",
    "repro.workloads",
    "repro.sched",
    "repro.experiments",
    "repro.util",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), package
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_sorted(self, package):
        module = importlib.import_module(package)
        assert list(module.__all__) == sorted(module.__all__), package

    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 20, package

    def test_public_callables_documented(self):
        # Every public function/class reachable from the top level has a
        # docstring.
        import repro

        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not getattr(obj, "__doc__", None):
                undocumented.append(name)
        assert not undocumented, undocumented

    def test_version_present(self):
        import repro

        assert repro.__version__.count(".") == 2


class TestEnvironment:
    """Settings enter through arguments; only the CLI reads the environment."""

    ENV_ACCESS = frozenset({"environ", "getenv", "putenv"})

    def test_only_the_cli_reads_the_environment(self):
        import repro

        root = Path(repro.__file__).parent
        found = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel == "cli.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            os_names = {"os"} | {
                alias.asname
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                for alias in node.names
                if alias.name == "os" and alias.asname
            }
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in self.ENV_ACCESS
                    and isinstance(node.value, ast.Name)
                    and node.value.id in os_names
                ):
                    found.append(f"{rel}:{node.lineno}: os.{node.attr}")
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    found.extend(
                        f"{rel}:{node.lineno}: from os import {alias.name}"
                        for alias in node.names
                        if alias.name in self.ENV_ACCESS
                    )
        assert not found, found


class TestDegradationLedger:
    """Recovery sites record into the open ledger; no caller threads a sink."""

    def test_no_function_takes_a_degradation_report(self):
        import repro

        root = Path(repro.__file__).parent
        found = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    found.extend(
                        f"{rel}:{arg.lineno}: {node.name}({arg.arg}=)"
                        for arg in (
                            args.posonlyargs + args.args + args.kwonlyargs
                            + [a for a in (args.vararg, args.kwarg) if a]
                        )
                        if arg.annotation is not None
                        and "DegradationReport" in ast.unparse(arg.annotation)
                    )
                elif (
                    isinstance(node, ast.Attribute) and node.attr == "fault_report"
                ) or (isinstance(node, ast.Name) and node.id == "fault_report"):
                    found.append(f"{rel}:{node.lineno}: fault_report")
        assert not found, found


class TestImportCost:
    def test_cli_import_loads_neither_asyncio_nor_the_server(self):
        """Every verb imports the CLI; only ``repro serve`` pays for asyncio."""
        import os
        import subprocess
        import sys

        import repro

        src = str(Path(repro.__file__).parent.parent)
        code = (
            "import sys, repro.cli; "
            "print([m for m in ('asyncio', 'repro.serve.server') if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-B", "-c", code],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "[]"


class TestExamplesRun:
    """Every shipped example executes cleanly (smoke integration)."""

    @pytest.mark.parametrize(
        "example, argv",
        [
            ("quickstart", ["208"]),
            ("scenario_atlas", ["sra", "224"]),
            ("gpu_power_steering", ["minife"]),
            ("cluster_scheduling", ["650"]),
            ("characterize_and_coordinate", ["cg"]),
            ("biglittle_crossover", ["cg"]),
            ("hybrid_offload", []),
            ("adaptive_phases", ["mg", "200"]),
        ],
    )
    def test_example(self, example, argv, capsys, monkeypatch):
        import runpy
        import sys
        from pathlib import Path

        script = Path(__file__).parent.parent / "examples" / f"{example}.py"
        assert script.exists(), script
        monkeypatch.setattr(sys, "argv", [str(script), *argv])
        runpy.run_path(str(script), run_name="__main__")
        out = capsys.readouterr().out
        assert len(out) > 100  # produced a real report
