"""Checker framework: findings, per-file context, AST walking helpers.

A :class:`Checker` sees one :class:`FileContext` at a time (parsed AST,
source lines, suppression map, repo-relative path) and yields
:class:`Finding` objects. Checkers that need whole-program context (the
lock-order graph) accumulate state per file and emit the cross-file
findings from :meth:`Checker.finalize`, which the runner calls once
after the last file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .suppressions import Suppression, parse_suppressions

__all__ = ["Finding", "FileContext", "Checker", "dotted_name", "walk_with_ancestors"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation: where it is, which rule, and why it matters."""

    path: str  # repo-relative, forward slashes
    line: int
    rule: str  # e.g. "BW001"
    message: str

    def key(self) -> tuple[str, str, str]:
        """Baseline identity: line numbers drift, (rule, path, message) don't."""
        return (self.rule, self.path, self.message)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass
class FileContext:
    """Everything a checker may want to know about one source file."""

    path: str  # repo-relative, forward slashes
    source: str
    tree: ast.AST
    suppressions: dict[int, Suppression] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, path: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            source=source,
            tree=tree,
            suppressions=parse_suppressions(source),
        )

    @classmethod
    def from_file(cls, file_path: str | Path, rel_path: str) -> "FileContext":
        return cls.from_source(Path(file_path).read_text(), rel_path)

    def is_suppressed(self, line: int, rule: str) -> bool:
        supp = self.suppressions.get(line)
        return supp is not None and supp.covers(rule)


class Checker:
    """Base class for one family of invariant checks.

    Subclasses set ``name`` (slug) and ``rules`` (the rule ids they may
    emit) and implement :meth:`check_file`. Stateful checkers override
    :meth:`finalize` for findings that need every file first.
    """

    name: str = "checker"
    rules: tuple[str, ...] = ()

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finalize(self) -> Iterable[Finding]:
        """Cross-file findings; called once after every file was checked."""
        return ()


# ----------------------------------------------------------------------
# AST helpers shared by the concrete checkers
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    Chains rooted in anything but a plain name (calls, subscripts)
    resolve to ``None`` — the checkers only reason about names they can
    see statically.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_with_ancestors(
    tree: ast.AST,
) -> Iterator[tuple[ast.AST, tuple[ast.AST, ...]]]:
    """Yield ``(node, ancestors)`` depth-first; ancestors outermost-first."""
    stack: list[tuple[ast.AST, tuple[ast.AST, ...]]] = [(tree, ())]
    while stack:
        node, ancestors = stack.pop()
        yield node, ancestors
        child_ancestors = ancestors + (node,)
        # reversed keeps sibling order stable for deterministic output
        for child in reversed(list(ast.iter_child_nodes(node))):
            stack.append((child, child_ancestors))
