"""The lint engine: file discovery, parsing, rule dispatch, filtering.

The engine is deliberately small: it loads every Python file under the
requested paths into a :class:`Project` (source text, AST, suppression
directives, dotted module name), hands the project to each registered
rule, and filters the returned diagnostics through the per-file
suppressions.  All rule logic lives in :mod:`repro.lint.rules`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ReproError
from repro.lint.diagnostics import Diagnostic
from repro.lint.suppressions import Suppressions

__all__ = [
    "DEFAULT_PURITY_ENTRIES",
    "LintConfig",
    "LintError",
    "Project",
    "SourceFile",
    "load_project",
    "run_lint",
]


class LintError(ReproError):
    """The linter was invoked on paths it cannot analyze."""


#: Explicit RPL001 roots that hold regardless of auto-detection: the
#: vectorized batch kernels are memoized through the SweepEngine cache
#: exactly like the scalar executors, so they (and everything they call)
#: carry the purity contract even if engine-module call shapes change.
#: The adaptive planner's axis search must replay bit-identically from
#: memoized results (it is what makes planned answers provably equal to
#: the full-sweep oracle), and the disk-cache codecs must round-trip
#: results without consulting any ambient state.  The planner *drivers*
#: (``plan_cpu_sweep`` etc.) are deliberately absent: they resolve the
#: process-default engine, which ``set_default_engine``/``use_engine``
#: swap at run time by design.  Disk *I/O* likewise stays out: it lives
#: behind ``DiskCache`` instance methods, which the memoized call graph
#: never reaches directly.  The gather kernels' ``execute_indices`` methods are rooted
#: explicitly too: the engine reaches them through
#: ``batch_execute_indices`` on an opaque kernel receiver, an attribute
#: call the graph cannot resolve on its own, yet they are the exact code
#: the planner's sub-grid batches run.  Entries not present in the
#: analyzed files are ignored, so linting fixture trees stays unaffected.
DEFAULT_PURITY_ENTRIES: tuple[str, ...] = (
    "repro.core.diskcache.decode_result",
    "repro.core.diskcache.digest_key",
    "repro.core.diskcache.encode_result",
    "repro.core.planner._plan_axis",
    "repro.core.planner._probe_indices",
    "repro.perfmodel.batch.GpuBatchKernel.execute_indices",
    "repro.perfmodel.batch.HostBatchKernel.execute_indices",
    "repro.perfmodel.batch.execute_gpu_batch",
    "repro.perfmodel.batch.execute_host_batch",
)


@dataclass(frozen=True)
class LintConfig:
    """Knobs for one lint run.

    ``select`` restricts the run to the named rule identifiers (``None``
    runs every registered rule).  ``purity_entries`` adds explicit
    call-graph roots (``module.function`` dotted names) for RPL001 on
    top of the auto-detected ``SweepEngine`` entry points; it defaults
    to :data:`DEFAULT_PURITY_ENTRIES` (the batch execution kernels).
    """

    select: frozenset[str] | None = None
    purity_entries: tuple[str, ...] = DEFAULT_PURITY_ENTRIES


@dataclass(frozen=True)
class SourceFile:
    """One parsed Python source file."""

    path: Path
    module: str
    text: str
    tree: ast.Module
    suppressions: Suppressions

    @property
    def display_path(self) -> str:
        """Path rendered for diagnostics: relative to cwd when possible."""
        try:
            return str(self.path.relative_to(Path.cwd()))
        except ValueError:
            return str(self.path)


@dataclass(frozen=True)
class Project:
    """Every source file of one lint run, addressable by module name."""

    files: tuple[SourceFile, ...]
    modules: dict[str, SourceFile] = field(default_factory=dict)

    @classmethod
    def from_files(cls, files: Iterable[SourceFile]) -> "Project":
        ordered = tuple(sorted(files, key=lambda f: str(f.path)))
        return cls(files=ordered, modules={f.module: f for f in ordered})


def _module_name(path: Path) -> str:
    """Dotted module name, walking up through ``__init__.py`` packages.

    ``src/repro/core/parallel.py`` -> ``repro.core.parallel`` (``src`` has
    no ``__init__.py``); a loose fixture file resolves to its bare stem.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:  # a package's own __init__.py at the discovery root
        parts.append(path.parent.name)
    return ".".join(reversed(parts))


def _discover(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            yield path
        else:
            raise LintError(f"not a Python file or directory: {path}")


def load_source(path: Path) -> SourceFile:
    """Parse one file into a :class:`SourceFile` (raises on syntax errors)."""
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        raise LintError(f"cannot parse {path}: {exc}") from exc
    return SourceFile(
        path=path,
        module=_module_name(path),
        text=text,
        tree=tree,
        suppressions=Suppressions.parse(text),
    )


def load_project(paths: Iterable[Path]) -> Project:
    """Discover and parse every Python file under ``paths``."""
    files = [load_source(p) for p in _discover(paths)]
    if not files:
        raise LintError("no Python files found under the given paths")
    return Project.from_files(files)


def run_lint(
    paths: Iterable[Path | str],
    config: LintConfig | None = None,
) -> list[Diagnostic]:
    """Lint ``paths`` and return suppression-filtered, sorted diagnostics."""
    from repro.lint.rules import all_rules

    config = config if config is not None else LintConfig()
    project = load_project(Path(p) for p in paths)
    by_path = {f.display_path: f for f in project.files}

    diagnostics: list[Diagnostic] = []
    for rule in all_rules():
        if config.select is not None and rule.rule_id not in config.select:
            continue
        for diag in rule.check(project, config):
            source = by_path.get(diag.path)
            if source is not None and source.suppressions.is_suppressed(
                diag.rule_id, diag.line
            ):
                continue
            diagnostics.append(diag)
    return sorted(diagnostics)
