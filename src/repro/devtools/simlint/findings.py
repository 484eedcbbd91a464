"""Finding model and per-module analysis context for simlint."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is (path, line, col, rule) so reports and JSON output are
    stable regardless of rule-execution order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """Render as ``path:line:col: RULE message`` (clickable in IDEs)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one module under analysis."""

    path: str
    module: str                 # dotted name, e.g. "repro.net.trust"
    tree: ast.AST
    source: str
    #: line -> suppressed rule ids; an empty frozenset means "all rules".
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    skip_file: bool = False

    def is_suppressed(self, line: int, rule: str) -> bool:
        """True if ``rule`` is silenced on ``line`` by an ignore comment."""
        if self.skip_file:
            return True
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return not rules or rule in rules


def module_name_for(path_parts: List[str], package_root: str = "repro") -> Optional[str]:
    """Dotted module name from a file path's parts, or None if the file
    is not inside a ``repro`` package tree (e.g. a test fixture)."""
    if package_root not in path_parts:
        return None
    # Use the *last* occurrence so .../src/repro/... resolves even when a
    # parent directory happens to be called "repro" too.
    index = len(path_parts) - 1 - path_parts[::-1].index(package_root)
    parts = list(path_parts[index:])
    if not parts[-1].endswith(".py"):
        return None
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)
