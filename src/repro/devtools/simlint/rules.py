"""The simlint rule registry and the eight shipped rules.

Each rule guards one determinism or hygiene invariant of the simulator
(see DESIGN.md "simlint" for the full rationale).  Rules are plain
objects with a ``check(ctx)`` generator; registration order fixes the
catalog order shown by ``python -m repro lint --list-rules``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .findings import Finding, ModuleContext

#: Packages whose modules form the deterministic simulation core: no
#: wall-clock reads here (SL009).  Which packages each may import is
#: declared in ``[tool.simlint.layers]`` and checked by SL013.
SIM_LAYERS = frozenset(
    {
        "core",
        "reliability",
        "energy",
        "radio",
        "net",
        "obsolescence",
        "econ",
        "city",
        "experiment",
        "faults",
        "obs",
    }
)

#: The one module allowed to construct numpy generators directly.
RNG_MODULE = "repro.core.rng"


class Rule:
    """Base class: subclasses set ``id``/``title``/``rationale`` and
    implement :meth:`check`."""

    id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` for ``node`` under this rule."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


#: Registry in registration order; keyed access via :func:`get_rule`.
RULES: List[Rule] = []


def register(cls: type) -> type:
    """Class decorator adding one instance of ``cls`` to the registry."""
    instance = cls()
    if not instance.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if any(rule.id == instance.id for rule in RULES):
        raise ValueError(f"duplicate rule id {instance.id}")
    RULES.append(instance)
    return cls


def get_rule(rule_id: str) -> Rule:
    """Look a rule up by id (raises ``KeyError`` if unknown)."""
    for rule in RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(rule_id)


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------

def import_map(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the qualified names they were bound from.

    ``import numpy as np`` -> {"np": "numpy"};
    ``from numpy.random import default_rng as rng`` ->
    {"rng": "numpy.random.default_rng"}.  Relative imports are skipped —
    they can only name modules inside ``repro`` itself, which the banned
    lists never match (layering is SL013's job).
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                qualified = alias.name if alias.asname else alias.name.split(".")[0]
                mapping[local] = qualified
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def resolve_dotted(node: ast.AST, names: Dict[str, str]) -> Optional[str]:
    """Qualified dotted name for a Name/Attribute chain, or None.

    ``np.random.default_rng`` with {"np": "numpy"} resolves to
    ``numpy.random.default_rng``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(names.get(node.id, node.id))
    return ".".join(reversed(parts))


def terminal_identifier(node: ast.AST) -> Optional[str]:
    """The last identifier of a Name/Attribute expression (``sim.now`` ->
    ``now``), or None for other expression kinds."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


# ----------------------------------------------------------------------
# SL001 — banned nondeterminism sources
# ----------------------------------------------------------------------

@register
class BannedNondeterminism(Rule):
    """Wall clocks, the stdlib global RNG, and entropy taps are banned in
    sim code: any of them makes a run irreproducible from its seed."""

    id = "SL001"
    title = "banned nondeterminism source"
    rationale = (
        "Simulation results must be a pure function of the seed; wall-clock "
        "reads, the process-global stdlib RNG, and OS entropy are not."
    )

    BANNED_CALLS = {
        "time.time": "wall-clock read",
        "time.time_ns": "wall-clock read",
        "datetime.datetime.now": "wall-clock read",
        "datetime.datetime.utcnow": "wall-clock read",
        "datetime.datetime.today": "wall-clock read",
        "datetime.date.today": "wall-clock read",
        "os.urandom": "OS entropy tap",
        "os.getrandom": "OS entropy tap",
        "uuid.uuid1": "time/entropy-derived id",
        "uuid.uuid4": "entropy-derived id",
    }
    BANNED_MODULES = {
        "random": "the process-global stdlib RNG",
        "secrets": "OS entropy",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        names = import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self.BANNED_MODULES:
                        yield self.finding(
                            ctx,
                            node,
                            f"import of {root!r} ({self.BANNED_MODULES[root]}); "
                            "derive randomness from RandomStreams",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                root = node.module.split(".")[0]
                if root in self.BANNED_MODULES:
                    yield self.finding(
                        ctx,
                        node,
                        f"import from {root!r} ({self.BANNED_MODULES[root]}); "
                        "derive randomness from RandomStreams",
                    )
            elif isinstance(node, ast.Call):
                resolved = resolve_dotted(node.func, names)
                if resolved is None:
                    continue
                reason = self.BANNED_CALLS.get(resolved)
                root = resolved.split(".")[0]
                if reason is None and root in self.BANNED_MODULES:
                    reason = self.BANNED_MODULES[root]
                if reason is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"call to {resolved} ({reason}) breaks seed-determinism",
                    )


# ----------------------------------------------------------------------
# SL002 — ad-hoc numpy generator construction
# ----------------------------------------------------------------------

@register
class AdHocNumpyRng(Rule):
    """Every generator must descend from ``RandomStreams``; an ad-hoc
    ``np.random.default_rng(...)`` silently re-uses or fixes a seed and
    escapes the named-stream independence guarantee."""

    id = "SL002"
    title = "ad-hoc numpy generator outside core/rng"
    rationale = (
        "RandomStreams gives every subsystem an independent, named, "
        "reproducible stream; raw default_rng() calls alias seeds (e.g. two "
        "registries both seeded 0) and perturb other subsystems' draws."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module == RNG_MODULE:
            return
        names = import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_dotted(node.func, names)
            if resolved is None:
                continue
            if resolved == "numpy.random.default_rng" or resolved.startswith(
                "numpy.random."
            ) and resolved.split(".")[-1] in {
                "RandomState",
                "seed",
                "SeedSequence",
            }:
                yield self.finding(
                    ctx,
                    node,
                    f"{resolved}(...) outside {RNG_MODULE}; derive generators "
                    "from RandomStreams.get(name) / .fork(i)",
                )
            elif resolved.startswith("numpy.random.") and resolved.count(".") == 2:
                # Module-level distribution calls (np.random.random(), ...)
                # draw from numpy's hidden global RandomState.
                attr = resolved.split(".")[-1]
                if attr[:1].islower():
                    yield self.finding(
                        ctx,
                        node,
                        f"{resolved}(...) uses numpy's global RNG state; "
                        "derive generators from RandomStreams",
                    )


# ----------------------------------------------------------------------
# SL003 — implicit Optional annotations
# ----------------------------------------------------------------------

def _annotation_allows_none(node: Optional[ast.AST]) -> bool:
    """True if the annotation already admits ``None``."""
    if node is None:
        # Unannotated: out of scope (that is mypy's job, not simlint's).
        return True
    if isinstance(node, ast.Constant):
        if node.value is None:
            return True
        if isinstance(node.value, str):
            text = node.value
            return "Optional" in text or "None" in text or "Any" in text
        return False
    if isinstance(node, ast.Name):
        return node.id in {"Any", "object", "None"}
    if isinstance(node, ast.Attribute):
        return node.attr in {"Any", "object"}
    if isinstance(node, ast.Subscript):
        head = terminal_identifier(node.value)
        if head == "Optional":
            return True
        if head == "Union":
            inner = node.slice
            # Py<3.9 wraps the slice in ast.Index; unwrap defensively.
            inner = getattr(inner, "value", inner)
            elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            return any(_annotation_allows_none(element) for element in elements)
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_allows_none(node.left) or _annotation_allows_none(
            node.right
        )
    return False


def _is_none(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


@register
class ImplicitOptional(Rule):
    """``x: T = None`` lies about the type: every consumer sees ``T`` but
    may receive ``None`` — the exact shape of PR 1's latent crashes."""

    id = "SL003"
    title = "implicit-Optional annotation"
    rationale = (
        "A None default (or None-initialised attribute) with a non-Optional "
        "annotation defeats strict-Optional type checking and hides "
        "AttributeErrors until a rarely-taken path runs."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_signature(ctx, node)
            elif isinstance(node, ast.AnnAssign):
                if _is_none(node.value) and not _annotation_allows_none(
                    node.annotation
                ):
                    target = ast.unparse(node.target)
                    yield self.finding(
                        ctx,
                        node,
                        f"{target} annotated "
                        f"{ast.unparse(node.annotation)!r} but initialised to "
                        "None; annotate Optional[...] explicitly",
                    )

    def _check_signature(
        self, ctx: ModuleContext, node: ast.FunctionDef
    ) -> Iterator[Finding]:
        args = node.args
        positional = args.posonlyargs + args.args
        padded: List[Tuple[ast.arg, Optional[ast.AST]]] = []
        defaults: List[Optional[ast.AST]] = list(args.defaults)
        defaults = [None] * (len(positional) - len(defaults)) + defaults
        padded.extend(zip(positional, defaults))
        padded.extend(zip(args.kwonlyargs, args.kw_defaults))
        for arg, default in padded:
            if _is_none(default) and not _annotation_allows_none(arg.annotation):
                yield self.finding(
                    ctx,
                    arg,
                    f"parameter {arg.arg!r} annotated "
                    f"{ast.unparse(arg.annotation)!r} but defaults to None; "
                    "annotate Optional[...] explicitly",
                )


# ----------------------------------------------------------------------
# SL004 — mutable default arguments
# ----------------------------------------------------------------------

@register
class MutableDefault(Rule):
    """A mutable default is shared across calls — state leaks between
    simulation runs that must be independent."""

    id = "SL004"
    title = "mutable default argument"
    rationale = (
        "Default values are evaluated once at def time; a list/dict/set "
        "default carries state from one call (and one run) into the next, "
        "breaking run independence."
    )

    MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque",
         "OrderedDict"}
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default {ast.unparse(default)!r} is shared "
                        "across calls; default to None and construct inside",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = terminal_identifier(node.func)
            return name in self.MUTABLE_CALLS
        return False


# ----------------------------------------------------------------------
# SL005 — float equality against simulation time
# ----------------------------------------------------------------------

@register
class FloatTimeEquality(Rule):
    """Simulation timestamps are accumulated floats; ``==`` on them is a
    coin flip that changes with event ordering."""

    id = "SL005"
    title = "float equality against simulation time"
    rationale = (
        "Timestamps come out of repeated float addition, so exact equality "
        "depends on accumulation order; compare with <=/>= windows instead. "
        "(x != x self-comparison is exempt: it is the NaN guard idiom.)"
    )

    TIME_NAMES = frozenset(
        {"t", "time", "now", "clock", "timestamp", "sim_time", "horizon",
         "deadline"}
    )
    TIME_SUFFIXES = ("_time", "_at")

    def _is_time_like(self, node: ast.AST) -> bool:
        name = terminal_identifier(node)
        if name is None:
            return False
        return name in self.TIME_NAMES or name.endswith(self.TIME_SUFFIXES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if ast.dump(left) == ast.dump(right):
                    continue  # NaN-guard idiom (x != x)
                if _is_none(left) or _is_none(right):
                    continue  # == None is odd but not a float hazard
                if self._is_time_like(left) or self._is_time_like(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        ctx,
                        node,
                        f"{symbol} comparison against simulation time "
                        f"({ast.unparse(left)} {symbol} {ast.unparse(right)}); "
                        "use an ordered comparison or an epsilon window",
                    )


# ----------------------------------------------------------------------
# SL007 — non-tuple heap entries
# ----------------------------------------------------------------------

@register
class NonTupleHeapEntry(Rule):
    """Heap entries must be tuple literals keyed ``(time, priority, seq,
    payload)`` so ordering is decided by the key, never by comparing
    payload objects."""

    id = "SL007"
    title = "heappush entry is not a tuple literal"
    rationale = (
        "A non-tuple heap entry makes heapq compare payload objects; that "
        "either needs a total order on the payload (slow rich-comparison "
        "dispatch on the hottest loop in the simulator) or raises TypeError "
        "at the first tie.  Tuple-keyed entries keep ordering explicit, "
        "deterministic, and cheap.  Re-pushing an entry popped from the "
        "same heap is the one legitimate exception — suppress it with "
        "`# simlint: ignore[SL007]`."
    )

    PUSH_CALLS = frozenset({"heappush", "heappushpop", "heapreplace"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        names = import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or len(node.args) < 2:
                continue
            resolved = resolve_dotted(node.func, names)
            if resolved is None:
                continue
            parts = resolved.split(".")
            if parts[0] != "heapq" or parts[-1] not in self.PUSH_CALLS:
                continue
            entry = node.args[1]
            if not isinstance(entry, ast.Tuple):
                yield self.finding(
                    ctx,
                    entry,
                    f"{parts[-1]} entry {ast.unparse(entry)!r} is not a tuple "
                    "literal; push an explicit (time, priority, seq, payload) "
                    "key so ordering never falls back to payload comparison",
                )


# ----------------------------------------------------------------------
# SL008 — fault code must draw randomness via RandomStreams
# ----------------------------------------------------------------------

@register
class FaultRandomnessOutsideStreams(Rule):
    """Fault scheduling and targeting may only draw from named
    ``RandomStreams`` generators — that is the whole bit-reproducibility
    contract of ``repro.faults`` (plan + seed identical at any worker
    count, plans composing commutatively)."""

    id = "SL008"
    title = "fault code draws randomness outside RandomStreams"
    rationale = (
        "repro.faults promises that a plan + seed is bit-reproducible at "
        "any worker count and that disjoint plans compose commutatively; "
        "both hold only because every draw comes from a stream named by "
        "the spec's content key.  A draw from any other generator (or a "
        "shared simulation stream) silently re-couples fault targeting to "
        "install order and run layout."
    )

    #: numpy Generator sampling methods a fault could plausibly reach for.
    DRAW_METHODS = frozenset(
        {"random", "integers", "choice", "shuffle", "permutation", "uniform",
         "normal", "standard_normal", "exponential", "poisson", "binomial",
         "weibull", "lognormal", "gamma", "beta"}
    )
    #: Producers whose return value is a RandomStreams-derived generator.
    STREAM_PRODUCERS = frozenset({"rng", "stream_for", "get", "fork"})

    def _stream_derived(self, node: ast.AST) -> bool:
        """True if ``node`` plausibly evaluates to a RandomStreams
        generator: an identifier ending in ``rng``/``stream``, or a
        direct call to a stream producer (``sim.rng("…")``,
        ``controller.stream_for(spec)``, ``streams.get(name)``)."""
        name = terminal_identifier(node)
        if name is not None:
            lowered = name.lower()
            return lowered.endswith("rng") or lowered.endswith("stream")
        if isinstance(node, ast.Call):
            producer = terminal_identifier(node.func)
            return producer in self.STREAM_PRODUCERS
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        module = ctx.module or ""
        if module != "repro.faults" and not module.startswith("repro.faults."):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in self.DRAW_METHODS:
                continue
            if self._stream_derived(node.func.value):
                continue
            yield self.finding(
                ctx,
                node,
                f"draw {ast.unparse(node.func)!r} does not come from a "
                "RandomStreams generator; use controller.stream_for(spec) "
                "(or sim.rng('faults:…')) so plan+seed stays bit-reproducible",
            )


# ----------------------------------------------------------------------
# SL009 — wall-clock reads inside sim layers
# ----------------------------------------------------------------------

@register
class WallClockInSimLayer(Rule):
    """Sim layers must never read any process clock — not even the
    monotonic ones SL001 deliberately allows for benchmark timing."""

    id = "SL009"
    title = "wall-clock read in a sim layer"
    rationale = (
        "SL001 bans epoch clocks everywhere, but perf_counter/monotonic "
        "stay legal for timing harnesses.  Inside sim layers even those "
        "are wrong: a monotonic read can only feed a decision or an "
        "artifact, and either way identical seeds stop producing "
        "identical runs (or identical snapshots).  Timing belongs one "
        "layer up — repro.runtime stamps wall_clock_s around the task "
        "call, and repro.obs snapshots deliberately exclude it."
    )

    WALL_CLOCK_CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
        }
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module or not ctx.module.startswith("repro."):
            return
        layer = ctx.module.split(".")[1]
        if layer not in SIM_LAYERS:
            return
        names = import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_dotted(node.func, names)
            if resolved in self.WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"call to {resolved} inside sim layer {layer!r}; clocks "
                    "live in repro.runtime/cli/benchmarks — use sim.now for "
                    "simulated time",
                )


def catalog() -> Sequence[Tuple[str, str, str]]:
    """(id, title, rationale) for every registered rule, in order."""
    return [(rule.id, rule.title, rule.rationale) for rule in RULES]
