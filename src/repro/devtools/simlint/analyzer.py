"""File discovery, suppression parsing, and rule execution for simlint."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .findings import Finding, ModuleContext, module_name_for
from .rules import RULES

#: ``# simlint: ignore`` silences every rule on the line;
#: ``# simlint: ignore[SL001,SL005]`` silences just those rules.
_IGNORE_RE = re.compile(
    r"simlint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)
_SKIP_FILE_RE = re.compile(r"simlint:\s*skip-file")

#: Rule id reserved for files the analyzer cannot parse at all.
PARSE_ERROR_RULE = "SL000"


def parse_suppressions(
    source: str,
) -> Tuple[Dict[int, FrozenSet[str]], bool]:
    """Scan comments for suppression pragmas.

    Returns (line -> rule ids, skip_file).  An empty frozenset means the
    whole line is exempt from every rule.
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    skip_file = False
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            if _SKIP_FILE_RE.search(token.string):
                skip_file = True
            # finditer, not search: one comment may carry several pragmas
            # (`# simlint: ignore[SL005] simlint: ignore[SL007]`), and
            # they merge — with a blanket `ignore` absorbing scoped ones.
            for match in _IGNORE_RE.finditer(token.string):
                rules = match.group("rules")
                ids = (
                    frozenset(
                        r.strip().upper() for r in rules.split(",") if r.strip()
                    )
                    if rules
                    else frozenset()
                )
                line = token.start[0]
                existing = suppressions.get(line)
                if existing is not None and (not existing or not ids):
                    ids = frozenset()  # blanket ignore wins
                elif existing is not None:
                    ids = existing | ids
                suppressions[line] = ids
    except tokenize.TokenError:
        pass  # half-written file: the ast parse below reports it
    return suppressions, skip_file


def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
    is_package: bool = False,
) -> List[Finding]:
    """Run every rule over one in-memory module."""
    if module is None:
        module = module_name_for(list(Path(path).parts))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 0) or 1,
                rule=PARSE_ERROR_RULE,
                message=f"file does not parse: {error.msg}",
            )
        ]
    suppressions, skip_file = parse_suppressions(source)
    ctx = ModuleContext(
        path=path,
        module=module or "",
        is_package=is_package,
        tree=tree,
        source=source,
        suppressions=suppressions,
        skip_file=skip_file,
    )
    findings: List[Finding] = []
    for rule in RULES:
        for finding in rule.check(ctx):
            if not ctx.is_suppressed(finding.line, finding.rule):
                findings.append(finding)
    return sorted(findings)


def lint_file(path, module: Optional[str] = None) -> List[Finding]:
    """Lint one file on disk."""
    file_path = Path(path)
    source = file_path.read_bytes().decode("utf-8")
    if module is None:
        module = module_name_for(list(file_path.parts))
    return lint_source(
        source,
        path=str(file_path),
        module=module,
        is_package=file_path.name == "__init__.py",
    )


def iter_python_files(paths: Iterable) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list.

    De-duplication is by *resolved* path, so the same file reached via
    two spellings (``src/repro`` and ``./src/repro``, a symlinked
    checkout, a redundant CLI argument) lints once; the first spelling
    given is the one findings are reported under.
    """
    seen = set()
    ordered: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Sequence[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                ordered.append(candidate)
    return ordered


def lint_paths(paths: Iterable) -> List[Finding]:
    """Lint every python file under ``paths`` (files or directories)."""
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        findings.extend(lint_file(file_path))
    return sorted(findings)
