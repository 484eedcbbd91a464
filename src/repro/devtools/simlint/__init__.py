"""simlint — AST-based determinism & unit-hygiene analyzer.

PR 1's parallel Monte-Carlo runtime promises bit-identical statistics at
any worker count.  That guarantee rests on conventions no unit test can
see: every generator must descend from
:class:`repro.core.rng.RandomStreams`, sim code must never read wall
clocks or global RNGs, and the sim layers must stay import-clean of
orchestration code.  simlint walks the AST (stdlib ``ast`` only — no new
dependencies) and enforces them:

========  =============================================================
SL001     banned nondeterminism sources (time.time, datetime.now,
          random.*, os.urandom, uuid.uuid4, secrets.*)
SL002     ad-hoc ``np.random.default_rng(...)`` outside core/rng.py
SL003     implicit-Optional annotations (``x: T = None``)
SL004     mutable default arguments
SL005     float ``==``/``!=`` against simulation time
SL007     non-tuple ``heappush`` entries
SL008     fault randomness outside RandomStreams
SL009     wall-clock reads inside sim layers
========  =============================================================

A second, *whole-program* pass (``python -m repro lint --project``)
builds a :class:`~.project.ProjectIndex` over every module at once —
symbol tables, a resolved import graph, and extracted contract facts —
and runs the cross-module rules:

========  =============================================================
SL010     one RNG stream name claimed by distinct subsystems
SL011     topology mutation without a ``topology_version`` bump
SL012     metric name registered with conflicting kind / labels / agg /
          edges across modules
SL013     import-time module cycles + the package DAG declared in
          ``[tool.simlint.layers]`` (pyproject.toml)
SL014     unit-suffixed argument (``_s``/``_m``/``_j``/``_w``) feeding
          a parameter with a different unit suffix
========  =============================================================

Suppress a finding in place with ``# simlint: ignore[SL001]`` (or a bare
``# simlint: ignore`` for every rule on that line); opt a whole file out
with ``# simlint: skip-file``.
"""

from .analyzer import (
    PARSE_ERROR_RULE,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    parse_suppressions,
)
from .cli import main, run
from .findings import Finding, ModuleContext, module_name_for
from .project import ProjectConfig, ProjectIndex, load_project_config
from .project_rules import (
    PROJECT_RULES,
    ProjectRule,
    get_project_rule,
    lint_index,
    lint_project,
    project_catalog,
)
from .reporters import (
    JSON_SCHEMA_VERSION,
    render,
    render_github,
    render_json,
    render_text,
)
from .rules import RULES, Rule, catalog, get_rule

__all__ = [
    "PARSE_ERROR_RULE",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
    "main",
    "run",
    "Finding",
    "ModuleContext",
    "module_name_for",
    "ProjectConfig",
    "ProjectIndex",
    "load_project_config",
    "PROJECT_RULES",
    "ProjectRule",
    "get_project_rule",
    "lint_index",
    "lint_project",
    "project_catalog",
    "JSON_SCHEMA_VERSION",
    "render",
    "render_github",
    "render_json",
    "render_text",
    "RULES",
    "Rule",
    "catalog",
    "get_rule",
]
