"""Command-line front end for simlint.

Reachable three ways, all through :func:`main`:

* ``python -m repro lint [--project] [--format json|github] [paths...]``
  (``repro.cli`` hands its argv over unparsed)
* ``python -m repro.devtools.simlint ...`` (standalone)
* the CI ``lint-sim`` (``--format github``) and ``lint-project``
  (``--project --format json``) steps.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .analyzer import lint_paths
from .reporters import render
from .rules import catalog


def default_target() -> Path:
    """The installed ``repro`` package — what ``lint`` checks when no
    paths are given."""
    import repro

    return Path(repro.__file__).parent


def run(
    paths: List[str],
    fmt: str = "text",
    list_rules: bool = False,
    project: bool = False,
) -> int:
    """Lint ``paths`` and print a report; exit code 1 iff findings."""
    if list_rules:
        from .project_rules import project_catalog

        for rule_id, title, rationale in list(catalog()) + list(project_catalog()):
            print(f"{rule_id}  {title}")
            print(f"       {rationale}")
        return 0
    targets = paths or [str(default_target())]
    try:
        findings = lint_paths(targets)
        if project:
            from .project_rules import lint_project

            findings = sorted(findings + lint_project(targets))
    except FileNotFoundError as error:
        print(f"simlint: {error}", file=sys.stderr)
        return 2
    print(render(findings, fmt))
    return 1 if findings else 0


def main(argv: Optional[List[str]] = None, prog: str = "simlint") -> int:
    """Parse ``argv`` and lint; ``prog`` names the command in usage and
    error lines (``repro lint`` when reached through ``repro.cli``)."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description="AST-based determinism & unit-hygiene analyzer for centurysim",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (default: text; github = workflow annotations)",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="also run the whole-program pass (SL010-SL014: cross-module "
        "stream/metric/topology/layering/unit contracts)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)
    return run(
        args.paths,
        fmt=args.format,
        list_rules=args.list_rules,
        project=args.project,
    )
