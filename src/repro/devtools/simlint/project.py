"""Whole-program analysis: the ProjectIndex and its fact extractors.

The per-file rules (SL001–SL009) see one module at a time, but the bug
classes that actually threatened this repo were *cross-module*: RNG
stream aliasing between subsystems (PR 1), topology caches gone stale
because a mutation path forgot the ``topology_version`` bump (PR 3/6),
and metric names registered with incompatible shapes (PR 5).  The
:class:`ProjectIndex` built here is the substrate the cross-module rules
(SL010–SL014, :mod:`.project_rules`) run against: it parses every module
once and extracts

* a resolved import graph (absolute targets, top-level vs. deferred,
  ``TYPE_CHECKING``-only flagged) — SL013;
* every RNG stream claim: string literals (and f-string prefixes) passed
  to ``RandomStreams.get`` / ``Simulation.rng`` / ``*.streams.get`` /
  ``*.streams.exponentials`` / ``fork`` — SL010;
* every :class:`~repro.obs.metrics.MetricsRegistry` registration
  (name, instrument kind, label keys, literal agg/edges) — SL012;
* every topology mutation site (dependency-list mutation, entity
  ``state`` assignment) and whether the enclosing function bumps
  ``topology_version`` — SL011;
* heap-entry shapes flowing into the event queue (tuple arity per
  ``heappush`` site) — recorded for auditability and future rules;
* unit-suffixed function signatures and the call sites that feed them
  (``_s`` seconds, ``_m`` meters, ``_j`` joules, ``_w`` watts) — SL014.

Everything is stdlib ``ast``; nothing imports the modules under
analysis, so a broken tree still indexes (unparsable files are skipped
here and reported by the per-file pass as SL000).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .analyzer import iter_python_files, parse_suppressions
from .findings import module_name_for
from .rules import import_map, terminal_identifier

#: Parameter/argument suffixes that declare a unit (SI base units used
#: throughout centurysim — see core/units.py).
UNIT_SUFFIXES = frozenset({"s", "m", "j", "w"})

#: Stream-name prefixes reserved for one subsystem (SL010): the fault
#: controller derives ``faults:<content-key>`` streams, and any other
#: subsystem claiming that namespace would alias fault targeting draws.
RESERVED_STREAM_PREFIXES = {"faults:": "faults"}

#: List-mutating method names that count as a dependency-graph mutation
#: when called on ``depends_on`` / ``dependents``.
_LIST_MUTATORS = frozenset({"append", "remove", "clear", "extend", "insert", "pop"})


def unit_suffix(name: Optional[str]) -> Optional[str]:
    """The unit suffix a name carries, or None (``airtime_s`` -> ``s``)."""
    if not name or "_" not in name:
        return None
    tail = name.rsplit("_", 1)[1]
    return tail if tail in UNIT_SUFFIXES else None


# ----------------------------------------------------------------------
# Fact records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ImportFact:
    """One import statement edge, pre-resolution."""

    module: str              # importer (dotted)
    base: str                # absolute module named by the statement
    names: Tuple[str, ...]   # imported names ("" for plain `import X`)
    line: int
    top_level: bool          # executed at module import time
    type_only: bool          # inside `if TYPE_CHECKING:` — erased at runtime


@dataclass(frozen=True)
class StreamFact:
    """One RNG stream claim (``sim.rng("radio")``, ``streams.get(n)``)."""

    module: str
    path: str
    line: int
    api: str                      # "rng" | "get" | "exponentials" | "fork"
    name: Optional[str]           # literal stream name, if statically known
    prefix: Optional[str] = None  # leading literal of an f-string argument


@dataclass(frozen=True)
class MetricFact:
    """One MetricsRegistry registration site."""

    module: str
    path: str
    line: int
    api: str                      # "counter" | "gauge" | "gauge_fn" | "histogram"
    name: Optional[str]           # literal metric name, if statically known
    label_keys: FrozenSet[str]
    dynamic_labels: bool          # **kwargs present: label keys unknowable
    agg: Optional[str] = None     # literal gauge agg ("max" when defaulted)
    edges: Optional[Tuple[float, ...]] = None  # literal histogram edges

    @property
    def kind(self) -> str:
        """Instrument kind the registration binds the name to."""
        return "gauge" if self.api == "gauge_fn" else self.api


@dataclass(frozen=True)
class TopologyMutationFact:
    """One function that mutates the entity graph directly."""

    module: str
    path: str
    line: int                 # first mutating statement
    function: str             # qualname of the nearest enclosing function
    mutations: Tuple[str, ...]  # human-readable mutation descriptions
    bumps_version: bool       # same function writes topology_version


@dataclass(frozen=True)
class HeapEntryFact:
    """Shape of one entry pushed onto a heap (the event queue contract)."""

    module: str
    path: str
    line: int
    arity: Optional[int]      # tuple length, or None for non-tuple entries


@dataclass(frozen=True)
class FunctionFact:
    """A function/method signature carrying unit-suffixed parameters."""

    module: str
    path: str
    line: int
    qualname: str             # "ClassName.method" or "function"
    name: str
    params: Tuple[str, ...]   # positional params, self/cls stripped
    kwonly: Tuple[str, ...]   # keyword-only params
    is_method: bool

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")


@dataclass(frozen=True)
class CallFact:
    """A call feeding at least one unit-suffixed argument somewhere."""

    module: str
    path: str
    line: int
    callee: str                               # terminal identifier
    resolved: Optional[str]                   # dotted name via import map
    is_attribute: bool                        # obj.method(...) style
    positional: Tuple[Optional[str], ...]     # terminal ids (None = expr)
    keywords: Tuple[Tuple[str, Optional[str]], ...]  # (kw name, value id)


@dataclass
class ModuleInfo:
    """Everything the project rules need to know about one module."""

    path: str
    module: str
    is_package: bool
    tree: ast.AST
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    skip_file: bool = False
    imports: List[ImportFact] = field(default_factory=list)
    streams: List[StreamFact] = field(default_factory=list)
    metrics: List[MetricFact] = field(default_factory=list)
    topology_mutations: List[TopologyMutationFact] = field(default_factory=list)
    heap_entries: List[HeapEntryFact] = field(default_factory=list)
    functions: List[FunctionFact] = field(default_factory=list)
    calls: List[CallFact] = field(default_factory=list)

    @property
    def package(self) -> str:
        """Top-level package under the project root ("repro.net.x" -> "net")."""
        parts = self.module.split(".")
        return parts[1] if len(parts) > 1 else parts[0]

    def is_suppressed(self, line: int, rule: str) -> bool:
        """Same pragma semantics as the per-file pass."""
        if self.skip_file:
            return True
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return not rules or rule in rules


# ----------------------------------------------------------------------
# Project configuration ([tool.simlint] in pyproject.toml)
# ----------------------------------------------------------------------

@dataclass
class ProjectConfig:
    """Declared layering DAG: package -> packages it may import.

    Missing entirely (no pyproject, or no ``[tool.simlint.layers]``
    table) disables the DAG half of SL013; cycle detection always runs.
    """

    layers: Optional[Dict[str, Tuple[str, ...]]] = None
    pyproject_path: Optional[str] = None


_SECTION_RE = re.compile(r"^\s*\[(?P<name>[^\]]+)\]\s*$")
_ARRAY_RE = re.compile(
    r"^\s*(?P<key>[A-Za-z0-9_\-\"']+)\s*=\s*\[(?P<items>[^\]]*)\]\s*$"
)
_ARRAY_OPEN_RE = re.compile(
    r"^\s*(?P<key>[A-Za-z0-9_\-\"']+)\s*=\s*\[(?P<items>[^\]]*)$"
)


def _parse_layers_minimal(text: str) -> Optional[Dict[str, Tuple[str, ...]]]:
    """Extract ``[tool.simlint.layers]`` without a TOML library.

    Understands exactly the subset the table uses: a section header and
    ``key = ["a", "b"]`` string arrays, which may span several lines.
    Python < 3.11 lacks ``tomllib`` and the repo adds no dependencies,
    so this keeps the DAG check alive there too.
    """
    layers: Dict[str, Tuple[str, ...]] = {}
    in_section = False
    found = False
    pending: Optional[Tuple[str, str]] = None  # (key, accumulated items)
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0]
        if pending is not None:
            key, acc = pending
            acc += " " + line.strip()
            if "]" in line:
                layers[key] = _split_array_items(acc.split("]", 1)[0])
                pending = None
            else:
                pending = (key, acc)
            continue
        section = _SECTION_RE.match(line)
        if section:
            in_section = section.group("name").strip() == "tool.simlint.layers"
            found = found or in_section
            continue
        if not in_section or not line.strip():
            continue
        match = _ARRAY_RE.match(line)
        if match is not None:
            key = match.group("key").strip().strip("\"'")
            layers[key] = _split_array_items(match.group("items"))
            continue
        opener = _ARRAY_OPEN_RE.match(line)
        if opener is not None:
            key = opener.group("key").strip().strip("\"'")
            pending = (key, opener.group("items").strip())
    return layers if found else None


def _split_array_items(items: str) -> Tuple[str, ...]:
    return tuple(
        item.strip().strip("\"'") for item in items.split(",") if item.strip()
    )


def load_project_config(start: Path) -> ProjectConfig:
    """Find and parse the nearest ``pyproject.toml`` at or above ``start``."""
    probe = start if start.is_dir() else start.parent
    for directory in [probe, *probe.parents]:
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return _read_config(candidate)
    return ProjectConfig()


def _read_config(pyproject: Path) -> ProjectConfig:
    text = pyproject.read_text(encoding="utf-8")
    layers: Optional[Dict[str, Tuple[str, ...]]] = None
    try:
        import tomllib  # Python >= 3.11

        table = (
            tomllib.loads(text).get("tool", {}).get("simlint", {}).get("layers")
        )
        if table is not None:
            layers = {
                key: tuple(str(v) for v in values) for key, values in table.items()
            }
    except ImportError:
        layers = _parse_layers_minimal(text)
    return ProjectConfig(layers=layers, pyproject_path=str(pyproject))


# ----------------------------------------------------------------------
# The extraction visitor
# ----------------------------------------------------------------------

class _FactExtractor(ast.NodeVisitor):
    """Single-pass scope-tracking walk filling a :class:`ModuleInfo`."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        self.names = import_map(info.tree)
        self._function_depth = 0
        self._type_checking_depth = 0
        self._class_stack: List[str] = []
        #: Per-function mutation accumulation: (qualname, line, descs, bumps)
        self._function_stack: List[List] = []
        self._references_entity_state = self._module_references("EntityState")

    # -- helpers -------------------------------------------------------

    def _module_references(self, identifier: str) -> bool:
        for node in ast.walk(self.info.tree):
            if isinstance(node, ast.Name) and node.id == identifier:
                return True
            if isinstance(node, ast.ImportFrom) and any(
                alias.name == identifier for alias in node.names
            ):
                return True
        return False

    def _resolve_relative(self, level: int, module: Optional[str]) -> Optional[str]:
        base = self.info.module.split(".")
        if not self.info.is_package:
            base = base[:-1]
        drop = level - 1
        if drop > len(base):
            return None
        if drop:
            base = base[:-drop]
        if module:
            base = base + module.split(".")
        return ".".join(base) if base else None

    @staticmethod
    def _is_type_checking_test(test: ast.AST) -> bool:
        return terminal_identifier(test) == "TYPE_CHECKING"

    # -- scope tracking ------------------------------------------------

    def visit_If(self, node: ast.If) -> None:
        if self._is_type_checking_test(node.test):
            self._type_checking_depth += 1
            for child in node.body:
                self.visit(child)
            self._type_checking_depth -= 1
            for child in node.orelse:
                self.visit(child)
            return
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def _handle_function(self, node) -> None:
        self._record_signature(node)
        qual = ".".join(self._class_stack + [node.name])
        self._function_depth += 1
        self._function_stack.append([qual, None, [], False])
        self.generic_visit(node)
        frame = self._function_stack.pop()
        self._function_depth -= 1
        if frame[2]:
            self.info.topology_mutations.append(
                TopologyMutationFact(
                    module=self.info.module,
                    path=self.info.path,
                    line=frame[1],
                    function=frame[0],
                    mutations=tuple(frame[2]),
                    bumps_version=frame[3],
                )
            )

    def _record_signature(self, node) -> None:
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        is_method = bool(self._class_stack) and self._function_depth == 0
        if is_method and params and params[0] in ("self", "cls"):
            params = params[1:]
        kwonly = [a.arg for a in args.kwonlyargs]
        if not any(unit_suffix(p) for p in params + kwonly):
            return
        self.info.functions.append(
            FunctionFact(
                module=self.info.module,
                path=self.info.path,
                line=node.lineno,
                qualname=".".join(self._class_stack + [node.name]),
                name=node.name,
                params=tuple(params),
                kwonly=tuple(kwonly),
                is_method=is_method,
            )
        )

    # -- imports -------------------------------------------------------

    def _add_import(self, base: str, names: Tuple[str, ...], line: int) -> None:
        self.info.imports.append(
            ImportFact(
                module=self.info.module,
                base=base,
                names=names,
                line=line,
                top_level=self._function_depth == 0,
                type_only=self._type_checking_depth > 0,
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add_import(alias.name, ("",), node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0:
            base = node.module
        else:
            base = self._resolve_relative(node.level, node.module)
        if base is not None:
            self._add_import(
                base,
                tuple(alias.name for alias in node.names if alias.name != "*"),
                node.lineno,
            )

    # -- statements: topology mutations --------------------------------

    def _current_frame(self) -> Optional[List]:
        return self._function_stack[-1] if self._function_stack else None

    def _note_mutation(self, line: int, desc: str) -> None:
        frame = self._current_frame()
        if frame is None:
            return  # module-level mutation of an entity graph: not seen in
            # practice; functions are the unit the bump contract names.
        if frame[1] is None:
            frame[1] = line
        frame[2].append(desc)

    def _note_bump(self) -> None:
        frame = self._current_frame()
        if frame is not None:
            frame[3] = True

    def _check_assign_target(self, target: ast.AST, line: int) -> None:
        if not isinstance(target, ast.Attribute):
            return
        if target.attr == "topology_version":
            self._note_bump()
            return
        if self._is_constructor_self_init(target):
            # `self.state = ...` inside __init__ initializes a brand-new
            # entity; there is no pre-existing graph state to go stale.
            return
        if target.attr in ("depends_on", "dependents"):
            self._note_mutation(line, f"rebinds .{target.attr}")
        elif target.attr == "state" and self._references_entity_state:
            self._note_mutation(line, "assigns entity .state")

    def _is_constructor_self_init(self, target: ast.Attribute) -> bool:
        frame = self._current_frame()
        return (
            frame is not None
            and frame[0].endswith("__init__")
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_assign_target(target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_assign_target(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_assign_target(node.target, node.lineno)
        self.generic_visit(node)

    # -- calls: streams, metrics, heaps, unit args, list mutations -----

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in _LIST_MUTATORS and isinstance(func.value, ast.Attribute):
                owner = func.value.attr
                if owner in ("depends_on", "dependents"):
                    self._note_mutation(node.lineno, f".{owner}.{attr}(...)")
            if attr in ("rng", "get", "exponentials", "fork"):
                self._maybe_stream_claim(node, attr)
            if attr in ("counter", "gauge", "gauge_fn", "histogram"):
                self._maybe_metric_registration(node, attr)
        self._maybe_heap_entry(node)
        self._maybe_unit_call(node)
        self.generic_visit(node)

    # RNG stream claims

    @staticmethod
    def _streamsish(node: ast.AST) -> bool:
        """Receiver plausibly a RandomStreams family (not a dict)."""
        name = terminal_identifier(node)
        if name is not None:
            return name.lower().endswith("streams")
        if isinstance(node, ast.Call):
            return terminal_identifier(node.func) == "RandomStreams"
        return False

    def _maybe_stream_claim(self, node: ast.Call, api: str) -> None:
        assert isinstance(node.func, ast.Attribute)
        if api != "rng" and not self._streamsish(node.func.value):
            return
        if not node.args:
            return
        arg = node.args[0]
        name: Optional[str] = None
        prefix: Optional[str] = None
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            name = arg.value
        elif isinstance(arg, ast.JoinedStr) and arg.values:
            head = arg.values[0]
            if isinstance(head, ast.Constant) and isinstance(head.value, str):
                prefix = head.value
        elif api == "fork":
            return  # fork(i) with a dynamic index claims no name
        self.info.streams.append(
            StreamFact(
                module=self.info.module,
                path=self.info.path,
                line=node.lineno,
                api=api,
                name=name,
                prefix=prefix,
            )
        )

    # Metric registrations

    _NON_LABEL_KWARGS = frozenset({"agg", "fn", "edges"})

    @staticmethod
    def _metricsish(node: ast.AST) -> bool:
        name = terminal_identifier(node)
        if name is None:
            return False
        return name == "registry" or name.endswith("metrics")

    def _maybe_metric_registration(self, node: ast.Call, api: str) -> None:
        assert isinstance(node.func, ast.Attribute)
        if not self._metricsish(node.func.value):
            return
        name: Optional[str] = None
        if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
            node.args[0].value, str
        ):
            name = node.args[0].value
        label_keys = set()
        dynamic = False
        agg: Optional[str] = "max" if api in ("gauge", "gauge_fn") else None
        edges: Optional[Tuple[float, ...]] = None
        for kw in node.keywords:
            if kw.arg is None:
                dynamic = True
            elif kw.arg == "agg":
                value = kw.value
                agg = (
                    value.value
                    if isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                    else None
                )
            elif kw.arg == "edges":
                edges = self._literal_edges(kw.value)
            elif kw.arg not in self._NON_LABEL_KWARGS:
                label_keys.add(kw.arg)
        if api == "histogram" and len(node.args) > 1 and edges is None:
            edges = self._literal_edges(node.args[1])
        self.info.metrics.append(
            MetricFact(
                module=self.info.module,
                path=self.info.path,
                line=node.lineno,
                api=api,
                name=name,
                label_keys=frozenset(label_keys),
                dynamic_labels=dynamic,
                agg=agg,
                edges=edges,
            )
        )

    @staticmethod
    def _literal_edges(node: ast.AST) -> Optional[Tuple[float, ...]]:
        if isinstance(node, (ast.Tuple, ast.List)) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, (int, float))
            for e in node.elts
        ):
            return tuple(float(e.value) for e in node.elts)  # type: ignore[union-attr]
        return None

    # Heap entry shapes

    _PUSH_CALLS = frozenset({"heappush", "heappushpop", "heapreplace"})

    def _maybe_heap_entry(self, node: ast.Call) -> None:
        if len(node.args) < 2:
            return
        resolved = self._resolve(node.func)
        if resolved is None:
            return
        parts = resolved.split(".")
        if parts[0] != "heapq" or parts[-1] not in self._PUSH_CALLS:
            return
        entry = node.args[1]
        arity = len(entry.elts) if isinstance(entry, ast.Tuple) else None
        self.info.heap_entries.append(
            HeapEntryFact(
                module=self.info.module,
                path=self.info.path,
                line=node.lineno,
                arity=arity,
            )
        )

    def _resolve(self, node: ast.AST) -> Optional[str]:
        parts: List[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        parts.append(self.names.get(cursor.id, cursor.id))
        return ".".join(reversed(parts))

    # Unit-suffixed call arguments

    def _maybe_unit_call(self, node: ast.Call) -> None:
        callee = terminal_identifier(node.func)
        if callee is None:
            return
        positional = tuple(terminal_identifier(a) for a in node.args)
        keywords = tuple(
            (kw.arg, terminal_identifier(kw.value))
            for kw in node.keywords
            if kw.arg is not None
        )
        if not any(unit_suffix(p) for p in positional) and not any(
            unit_suffix(v) for _, v in keywords
        ):
            return
        self.info.calls.append(
            CallFact(
                module=self.info.module,
                path=self.info.path,
                line=node.lineno,
                callee=callee,
                resolved=self._resolve(node.func),
                is_attribute=isinstance(node.func, ast.Attribute),
                positional=positional,
                keywords=keywords,
            )
        )


# ----------------------------------------------------------------------
# The index
# ----------------------------------------------------------------------

class ProjectIndex:
    """Symbol tables, import graph, and contract facts over many modules."""

    def __init__(self, config: Optional[ProjectConfig] = None) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.config = config or ProjectConfig()

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, paths: Iterable) -> "ProjectIndex":
        """Index every python file under ``paths`` (files or directories)."""
        files = iter_python_files(paths)
        config = (
            load_project_config(Path(files[0]).parent) if files else ProjectConfig()
        )
        index = cls(config)
        for file_path in files:
            index.add_file(file_path)
        return index

    def add_file(self, path) -> None:
        file_path = Path(path)
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return
        module = module_name_for(list(file_path.parts))
        self.add_source(
            source,
            path=str(file_path),
            module=module,
            is_package=file_path.name == "__init__.py",
        )

    def add_source(
        self,
        source: str,
        path: str = "<string>",
        module: Optional[str] = None,
        is_package: bool = False,
    ) -> Optional[ModuleInfo]:
        """Index one in-memory module; returns its ModuleInfo (or None
        if it does not parse — the per-file pass owns SL000)."""
        if module is None:
            module = module_name_for(list(Path(path).parts)) or path
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return None
        suppressions, skip_file = parse_suppressions(source)
        info = ModuleInfo(
            path=path,
            module=module,
            is_package=is_package,
            tree=tree,
            suppressions=suppressions,
            skip_file=skip_file,
        )
        _FactExtractor(info).visit(tree)
        # First spelling wins on duplicate module names (mirrors the
        # file-discovery dedup; identical content either way).
        self.modules.setdefault(module, info)
        return info

    # -- aggregate views -----------------------------------------------

    def infos(self) -> List[ModuleInfo]:
        """Indexed modules in deterministic (module-name) order."""
        return [self.modules[name] for name in sorted(self.modules)]

    def stream_claims(self) -> List[StreamFact]:
        return [fact for info in self.infos() for fact in info.streams]

    def metric_registrations(self) -> List[MetricFact]:
        return [fact for info in self.infos() for fact in info.metrics]

    def topology_mutations(self) -> List[TopologyMutationFact]:
        return [fact for info in self.infos() for fact in info.topology_mutations]

    def heap_entry_shapes(self) -> List[HeapEntryFact]:
        return [fact for info in self.infos() for fact in info.heap_entries]

    def functions_by_name(self) -> Dict[str, List[FunctionFact]]:
        """Unit-suffixed signatures grouped by bare function name."""
        table: Dict[str, List[FunctionFact]] = {}
        for info in self.infos():
            for fact in info.functions:
                table.setdefault(fact.name, []).append(fact)
        return table

    def resolve_import_target(self, fact: ImportFact, name: str) -> str:
        """Most specific indexed module an imported name binds to.

        ``from repro.core import engine`` resolves to ``repro.core.engine``
        when that module is indexed (importing it executes it), else to
        the base module.
        """
        if name:
            candidate = f"{fact.base}.{name}"
            if candidate in self.modules:
                return candidate
        return fact.base

    def import_graph(
        self, top_level_only: bool = True, include_type_only: bool = False
    ) -> Dict[str, List[str]]:
        """Resolved module-level import edges within the index.

        Only edges between indexed modules are returned; external
        imports (numpy, stdlib) are not graph nodes.  Parent-package
        edges implied by Python's import machinery (importing
        ``repro.core.engine`` runs ``repro.core.__init__``) are *not*
        synthesized: they would put every package in a trivial cycle
        with its own ``__init__``.
        """
        graph: Dict[str, List[str]] = {name: [] for name in sorted(self.modules)}
        for info in self.infos():
            targets = set()
            for fact in info.imports:
                if top_level_only and not fact.top_level:
                    continue
                if fact.type_only and not include_type_only:
                    continue
                for name in fact.names:
                    resolved = self.resolve_import_target(fact, name)
                    if resolved in self.modules and resolved != info.module:
                        targets.add(resolved)
            graph[info.module] = sorted(targets)
        return graph

    def package_edges(
        self, top_level_only: bool = True
    ) -> Dict[Tuple[str, str], List[ImportFact]]:
        """Cross-package runtime import edges with their witness sites."""
        edges: Dict[Tuple[str, str], List[ImportFact]] = {}
        for info in self.infos():
            for fact in info.imports:
                if fact.type_only or (top_level_only and not fact.top_level):
                    continue
                for name in fact.names:
                    resolved = self.resolve_import_target(fact, name)
                    if resolved not in self.modules:
                        continue
                    src = info.package
                    dst = self.modules[resolved].package
                    if src != dst:
                        edges.setdefault((src, dst), []).append(fact)
        return edges

    def import_line(self, module: str, target: str) -> int:
        """Line of the first import in ``module`` that reaches ``target``."""
        info = self.modules.get(module)
        if info is None:
            return 1
        for fact in info.imports:
            for name in fact.names:
                if self.resolve_import_target(fact, name) == target:
                    return fact.line
        return 1

    def __repr__(self) -> str:
        return f"ProjectIndex(modules={len(self.modules)})"
