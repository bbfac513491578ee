"""Project call graph and import resolution for reachability rules.

RPL001 (purity) needs to know which functions are reachable from the
``SweepEngine``'s memoized entry points.  This module builds a
conservative, name-based call graph over the analyzed files:

* bare-name calls resolve through each module's imports and local
  definitions;
* ``module.attr`` calls resolve through ``import``/``import as``
  aliases;
* ``self.method()`` calls resolve within the enclosing class.

Arbitrary attribute calls on objects (``cpu.demand_w(...)``) are *not*
resolved — the receiver's type is unknown statically.  That keeps the
graph precise (no false reachability), at the cost of not traversing
into polymorphic model methods; the documented contract is that those
methods are pure value computations on frozen dataclasses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.engine import Project, SourceFile

__all__ = ["CallGraph", "FunctionInfo", "ImportResolver", "dotted_name"]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a ``Name``/``Attribute`` chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportResolver:
    """Resolves dotted names in one module to project-absolute names."""

    def __init__(self, source: SourceFile) -> None:
        self.module = source.module
        #: ``local alias -> absolute dotted target`` for both import forms.
        self.aliases: dict[str, str] = {}
        package_parts = source.module.split(".")[:-1]
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[bound] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base_parts = package_parts[: len(package_parts) - node.level + 1]
                    base = ".".join(base_parts)
                    prefix = f"{base}.{node.module}" if node.module else base
                    prefix = prefix.lstrip(".")
                else:
                    prefix = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.aliases[bound] = f"{prefix}.{alias.name}" if prefix else alias.name

    def resolve(self, dotted: str) -> str:
        """Absolute dotted name for ``dotted`` (identity when unknown)."""
        head, _, rest = dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str
    module: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    source: SourceFile


@dataclass
class CallGraph:
    """Functions, resolved call edges, and SweepEngine entry points."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    edges: dict[str, set[str]] = field(default_factory=dict)
    entries: set[str] = field(default_factory=set)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, project: Project, extra_entries: tuple[str, ...] = ()) -> "CallGraph":
        graph = cls()
        resolvers = {f.module: ImportResolver(f) for f in project.files}
        for source in project.files:
            graph._index_functions(source)
        for source in project.files:
            graph._index_edges(source, resolvers[source.module])
        for source in project.files:
            graph._detect_entries(source, resolvers[source.module])
        for entry in extra_entries:
            if entry in graph.functions:
                graph.entries.add(entry)
        return graph

    def _index_functions(self, source: SourceFile) -> None:
        def visit(body: list[ast.stmt], cls_name: str | None) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = (
                        f"{source.module}.{cls_name}.{node.name}"
                        if cls_name
                        else f"{source.module}.{node.name}"
                    )
                    self.functions[qual] = FunctionInfo(
                        qualname=qual,
                        module=source.module,
                        cls=cls_name,
                        node=node,
                        source=source,
                    )
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, node.name)

        visit(source.tree.body, None)

    def _resolve_call(
        self,
        call: ast.Call,
        resolver: ImportResolver,
        module: str,
        cls_name: str | None,
    ) -> str | None:
        """Project function targeted by ``call``, or ``None``."""
        func = call.func
        if isinstance(func, ast.Name):
            local = f"{module}.{func.id}"
            if local in self.functions:
                return local
            resolved = resolver.resolve(func.id)
            return resolved if resolved in self.functions else None
        dotted = dotted_name(func)
        if dotted is None:
            return None
        if cls_name is not None and dotted.startswith("self."):
            method = f"{module}.{cls_name}.{dotted[len('self.'):]}"
            if method in self.functions:
                return method
            return None
        resolved = resolver.resolve(dotted)
        return resolved if resolved in self.functions else None

    def _index_edges(self, source: SourceFile, resolver: ImportResolver) -> None:
        for info in [f for f in self.functions.values() if f.module == source.module]:
            callees = self.edges.setdefault(info.qualname, set())
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    target = self._resolve_call(node, resolver, info.module, info.cls)
                    if target is not None:
                        callees.add(target)

    def _detect_entries(self, source: SourceFile, resolver: ImportResolver) -> None:
        """Entry points: cross-module functions the SweepEngine module calls.

        Whatever the module defining ``SweepEngine`` dispatches (directly,
        via worker tasks, or via memoizing lambdas) is what the engine
        caches and replays — those functions, and everything they reach,
        carry the purity contract.
        """
        defines_engine = any(
            isinstance(node, ast.ClassDef) and node.name == "SweepEngine"
            for node in ast.walk(source.tree)
        )
        if not defines_engine:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            target = self._resolve_call(node, resolver, source.module, None)
            if target is not None and self.functions[target].module != source.module:
                self.entries.add(target)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def reachable(self) -> dict[str, str]:
        """``qualname -> originating entry`` for every reachable function."""
        origin: dict[str, str] = {}
        stack = [(entry, entry) for entry in sorted(self.entries)]
        while stack:
            qual, entry = stack.pop()
            if qual in origin:
                continue
            origin[qual] = entry
            for callee in sorted(self.edges.get(qual, ())):
                if callee not in origin:
                    stack.append((callee, entry))
        return origin
