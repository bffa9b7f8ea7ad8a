"""Simulator-specific AST lint rules the type checker cannot express.

The rules are catalogued once, in :data:`LINT_RULES` (``python -m
repro.verify lint --list-rules`` prints it); the rule table in
``docs/verification.md`` says what each one matches and why it exists.

Suppressions are **line-targeted**: ``# lint: ignore[rule-name]`` (or a
bare ``# lint: ignore`` for all rules) silences findings anchored to the
annotated line only.  For an intentional whole-file opt-out use the
``-file`` suffix form — ``# lint: ignore-file[rule-name]`` (or bare
``# lint: ignore-file``) anywhere in the file.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.machine.cache import LineState
from repro.machine.faults import FaultKind
from repro.machine.messages import MsgClass
from repro.machine.stats import InvalCause

#: rule name -> one-line description (the catalog, also used by the CLI)
LINT_RULES: Dict[str, str] = {
    "enum-dispatch": "enum-keyed dispatch must cover every member",
    "unseeded-random": "no unseeded randomness (random/uuid/secrets) in "
    "machine/ and core/",
    "wall-clock": "no wall-clock time or OS entropy (time.*, "
    "datetime.now, os.urandom) in machine/ and core/",
    "unordered-iteration": "no direct iteration over sets or "
    "invalidation_targets(); sort first",
    "unregistered-scheme": "every concrete DirectoryScheme must appear in "
    "core/registry.py",
    "undeclared-stat": "stats counters must be declared before incremented",
    "undeclared-obs-name": "trace event / metric names must be declared in "
    "obs/registry.py",
    "dead-metric": "metrics declared in obs/registry.py must be "
    "incremented somewhere (tree-wide runs only)",
    "span-leak": "a split span opened (kind=BEGIN) in machine/ needs a "
    "same-module kind=END close with the same name",
    "unpicklable-continuation": "event-queue callbacks in machine/ must be "
    "bound methods, not lambdas/closures (checkpointing cannot "
    "serialize them)",
}

#: enums whose dispatch must be exhaustive, with their member names
_ENUMS: tuple[type[Enum], ...] = (MsgClass, FaultKind, InvalCause, LineState)
_DISPATCH_ENUMS: Dict[str, FrozenSet[str]] = {
    enum.__name__: frozenset(enum.__members__) for enum in _ENUMS
}

_BANNED_TIME = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)
_ALLOWED_RANDOM = frozenset({"Random", "SystemRandom", "getstate", "setstate"})
_BANNED_UUID = frozenset({"uuid1", "uuid4"})
#: ``datetime.datetime`` / ``datetime.date`` classmethods that read the clock
_BANNED_DATETIME = frozenset({"now", "utcnow", "today"})


@dataclass(frozen=True)
class Finding:
    """One lint violation."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """``path:line:col: [rule] message`` — the compiler-style form."""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class _IgnoreIndex:
    """Parsed suppression comments of one module."""

    file_all: bool  #: ``# lint: ignore-file`` anywhere
    file_rules: FrozenSet[str]  #: ``# lint: ignore-file[...]`` rule names
    line_all: FrozenSet[int]  #: lines carrying a bare ``# lint: ignore``
    line_rules: Dict[int, FrozenSet[str]]  #: line -> ignored rule names


_IGNORE_MARKER = "# lint: ignore"


def _parse_ignores(source_lines: List[str]) -> _IgnoreIndex:
    file_all = False
    file_rules: Set[str] = set()
    line_all: Set[int] = set()
    line_rules: Dict[int, FrozenSet[str]] = {}
    for lineno, text in enumerate(source_lines, start=1):
        marker = text.rfind(_IGNORE_MARKER)
        if marker == -1:
            continue
        spec = text[marker + len(_IGNORE_MARKER):]
        file_wide = spec.startswith("-file")
        if file_wide:
            spec = spec[len("-file"):]
        spec = spec.strip()
        if not spec.startswith("["):
            # bare ignore: all rules
            if file_wide:
                file_all = True
            else:
                line_all.add(lineno)
            continue
        names = spec[1:spec.find("]")] if "]" in spec else spec[1:]
        rules = frozenset(n.strip() for n in names.split(","))
        if file_wide:
            file_rules |= rules
        else:
            line_rules[lineno] = line_rules.get(lineno, frozenset()) | rules
    return _IgnoreIndex(file_all, frozenset(file_rules), frozenset(line_all),
                        line_rules)


@dataclass
class _Module:
    path: Path
    rel: str
    tree: ast.Module
    source_lines: List[str]
    ignores: _IgnoreIndex

    def determinism_scoped(self) -> bool:
        """Rules about nondeterminism apply to machine/ and core/ only."""
        parts = Path(self.rel).parts
        return "machine" in parts or "core" in parts


def _finding(
    module: _Module, line: int, col: int, rule: str, message: str
) -> Iterator[Finding]:
    """The finding, unless a line or file annotation silences it."""
    ig = module.ignores
    if ig.file_all or rule in ig.file_rules:
        return
    if line in ig.line_all or rule in ig.line_rules.get(line, frozenset()):
        return
    yield Finding(str(module.path), line, col, rule, message)


# -- rule: enum-dispatch ----------------------------------------------------


def _enum_member(node: ast.expr) -> Optional[Tuple[str, str]]:
    """``MsgClass.REQUEST`` -> ("MsgClass", "REQUEST")."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in _DISPATCH_ENUMS
        and node.attr in _DISPATCH_ENUMS[node.value.id]
    ):
        return node.value.id, node.attr
    return None


def _check_enum_dispatch(module: _Module) -> Iterator[Finding]:
    elif_bodies = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.If) and len(node.orelse) == 1 and isinstance(
            node.orelse[0], ast.If
        ):
            elif_bodies.add(id(node.orelse[0]))
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Dict):
            yield from _check_enum_dict(module, node)
        elif isinstance(node, ast.If) and id(node) not in elif_bodies:
            yield from _check_enum_chain(module, node)


def _check_enum_dict(module: _Module, node: ast.Dict) -> Iterator[Finding]:
    seen: Dict[str, Set[str]] = {}
    for key in node.keys:
        if key is None:  # dict unpacking
            return
        member = _enum_member(key)
        if member is None:
            return
        seen.setdefault(member[0], set()).add(member[1])
    if len(seen) != 1:
        return
    enum_name, members = next(iter(seen.items()))
    if len(members) < 2:
        return
    missing = _DISPATCH_ENUMS[enum_name] - members
    if missing:
        yield from _finding(
            module, node.lineno, node.col_offset, "enum-dispatch",
            f"dict keyed by {enum_name} misses "
            f"{', '.join(sorted(missing))}",
        )


def _check_enum_chain(module: _Module, node: ast.If) -> Iterator[Finding]:
    """``if x == E.A: ... elif x == E.B: ...`` with no else must cover E."""
    seen: Dict[str, Set[str]] = {}
    cursor: ast.stmt = node
    first_line = node.lineno
    while True:
        assert isinstance(cursor, ast.If)
        test = cursor.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Eq, ast.Is))
            and len(test.comparators) == 1
        ):
            return
        member = _enum_member(test.comparators[0]) or _enum_member(test.left)
        if member is None:
            return
        seen.setdefault(member[0], set()).add(member[1])
        if len(cursor.orelse) == 1 and isinstance(cursor.orelse[0], ast.If):
            cursor = cursor.orelse[0]
            continue
        has_else = bool(cursor.orelse)
        break
    if has_else or len(seen) != 1:
        return
    enum_name, members = next(iter(seen.items()))
    if len(members) < 2:
        return
    missing = _DISPATCH_ENUMS[enum_name] - members
    if missing:
        yield from _finding(
            module, first_line, node.col_offset, "enum-dispatch",
            f"if/elif chain over {enum_name} misses "
            f"{', '.join(sorted(missing))} and has no else",
        )


# -- rules: unseeded-random / wall-clock ------------------------------------


def _check_nondeterminism(module: _Module) -> Iterator[Finding]:
    """Both determinism rules share one import-alias scan.

    ``unseeded-random`` covers randomness sources (``random``, ``uuid``,
    ``secrets``); ``wall-clock`` covers host-time and OS-entropy reads
    (``time``, ``datetime``, ``os.urandom``).
    """
    if not module.determinism_scoped():
        return
    module_aliases: Dict[str, str] = {}
    #: bare name -> (rule, dotted origin), from ``from X import Y``
    banned_names: Dict[str, Tuple[str, str]] = {}
    #: alias -> clock-bearing class, from ``from datetime import datetime``
    datetime_classes: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in (
                    "random", "time", "uuid", "secrets", "os", "datetime"
                ):
                    module_aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "random":
                for alias in node.names:
                    if alias.name not in _ALLOWED_RANDOM:
                        banned_names[alias.asname or alias.name] = (
                            "unseeded-random", f"random.{alias.name}"
                        )
            elif node.module == "time":
                for alias in node.names:
                    if alias.name in _BANNED_TIME:
                        banned_names[alias.asname or alias.name] = (
                            "wall-clock", f"time.{alias.name}"
                        )
            elif node.module in ("uuid", "secrets"):
                for alias in node.names:
                    banned_names[alias.asname or alias.name] = (
                        "unseeded-random", f"{node.module}.{alias.name}"
                    )
            elif node.module == "os":
                for alias in node.names:
                    if alias.name == "urandom":
                        banned_names[alias.asname or alias.name] = (
                            "wall-clock", "os.urandom"
                        )
            elif node.module == "datetime":
                for alias in node.names:
                    if alias.name in ("datetime", "date"):
                        datetime_classes[alias.asname or alias.name] = (
                            alias.name
                        )
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        rule: Optional[str] = None
        origin = ""
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            mod = module_aliases.get(func.value.id)
            cls = datetime_classes.get(func.value.id)
            if mod == "random" and func.attr not in _ALLOWED_RANDOM:
                rule, origin = "unseeded-random", f"random.{func.attr}"
            elif mod == "time" and func.attr in _BANNED_TIME:
                rule, origin = "wall-clock", f"time.{func.attr}"
            elif mod == "uuid" and func.attr in _BANNED_UUID:
                rule, origin = "unseeded-random", f"uuid.{func.attr}"
            elif mod == "secrets":
                rule, origin = "unseeded-random", f"secrets.{func.attr}"
            elif mod == "os" and func.attr == "urandom":
                rule, origin = "wall-clock", "os.urandom"
            elif cls is not None and func.attr in _BANNED_DATETIME:
                rule, origin = "wall-clock", f"datetime.{cls}.{func.attr}"
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and module_aliases.get(func.value.value.id) == "datetime"
            and func.value.attr in ("datetime", "date")
            and func.attr in _BANNED_DATETIME
        ):
            rule = "wall-clock"
            origin = f"datetime.{func.value.attr}.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in banned_names:
            rule, origin = banned_names[func.id]
        if rule is None:
            continue
        hint = (
            "draw from a seeded random.Random instance instead"
            if rule == "unseeded-random"
            else "simulated time lives on the event queue"
        )
        yield from _finding(
            module, node.lineno, node.col_offset, rule,
            f"call to {origin} is nondeterministic; {hint}",
        )


# -- rule: unordered-iteration ----------------------------------------------


def _unordered_reason(node: ast.expr) -> Optional[str]:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set display"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
        if isinstance(func, ast.Attribute) and func.attr == "invalidation_targets":
            return "invalidation_targets() (a frozenset)"
        if (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple")
            and len(node.args) == 1
        ):
            inner = _unordered_reason(node.args[0])
            if inner is not None:
                return f"{func.id}() of {inner}"
    return None


def _check_unordered_iteration(module: _Module) -> Iterator[Finding]:
    if not module.determinism_scoped():
        return
    sources: List[Tuple[int, int, ast.expr]] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.For):
            sources.append((node.lineno, node.col_offset, node.iter))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            for gen in node.generators:
                sources.append(
                    (gen.iter.lineno, gen.iter.col_offset, gen.iter)
                )
    for lineno, col, iter_node in sources:
        reason = _unordered_reason(iter_node)
        if reason is not None:
            yield from _finding(
                module, lineno, col, "unordered-iteration",
                f"iterating over {reason} has no deterministic order; "
                f"wrap in sorted(...)",
            )


# -- rule: unregistered-scheme ----------------------------------------------


def _scheme_findings(modules: List[_Module]) -> Iterator[Finding]:
    registry: Optional[_Module] = None
    class_sites: Dict[str, Tuple[_Module, int, int, List[str]]] = {}
    for module in modules:
        parts = Path(module.rel).parts
        if "core" not in parts:
            continue
        if Path(module.rel).name == "registry.py":
            registry = module
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                bases = [
                    b.id if isinstance(b, ast.Name) else
                    b.attr if isinstance(b, ast.Attribute) else ""
                    for b in node.bases
                ]
                class_sites[node.name] = (
                    module, node.lineno, node.col_offset, bases
                )
    if registry is None:
        return  # nothing to check against (partial lint run)
    # transitively collect DirectoryScheme descendants among core classes
    schemes: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, (_m, _l, _c, bases) in class_sites.items():
            if name in schemes:
                continue
            if "DirectoryScheme" in bases or any(b in schemes for b in bases):
                schemes.add(name)
                changed = True
    referenced = {
        node.id
        for node in ast.walk(registry.tree)
        if isinstance(node, ast.Name)
    }
    for name in sorted(schemes):
        module, lineno, col, _bases = class_sites[name]
        if name.startswith("_"):
            continue  # private helper base, not a user-facing scheme
        if name not in referenced:
            yield from _finding(
                module, lineno, col, "unregistered-scheme",
                f"{name} subclasses DirectoryScheme but core/registry.py "
                f"never references it; add an alias or pattern",
            )


# -- rule: undeclared-stat --------------------------------------------------


def _declared_stats(modules: List[_Module]) -> Optional[FrozenSet[str]]:
    stats_module = next(
        (m for m in modules if Path(m.rel).name == "stats.py"
         and "machine" in Path(m.rel).parts),
        None,
    )
    if stats_module is None:
        return None
    declared: Set[str] = set()
    for node in ast.walk(stats_module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name not in ("SimStats", "ProcessorStats"):
            continue
        for item in ast.walk(node):
            # self.x = ... inside methods (SimStats.__init__)
            if isinstance(item, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    item.targets
                    if isinstance(item, ast.Assign)
                    else [item.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        declared.add(target.attr)
                    elif isinstance(target, ast.Name) and isinstance(
                        item, ast.AnnAssign
                    ):
                        declared.add(target.id)  # dataclass field
            elif isinstance(item, ast.FunctionDef):
                declared.add(item.name)  # properties / helper methods
    return frozenset(declared)


def _check_undeclared_stat(
    module: _Module, declared: FrozenSet[str]
) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.AugAssign):
            continue
        target = node.target
        if not isinstance(target, ast.Attribute):
            continue
        base = target.value
        is_stats = (isinstance(base, ast.Attribute) and base.attr == "stats") or (
            isinstance(base, ast.Name) and base.id == "stats"
        )
        if not is_stats:
            continue
        if target.attr not in declared:
            yield from _finding(
                module, node.lineno, node.col_offset, "undeclared-stat",
                f"stats.{target.attr} is incremented but not declared on "
                f"SimStats/ProcessorStats",
            )


# -- rule: undeclared-obs-name ----------------------------------------------

#: tracer methods whose first positional argument is an event name
_EMIT_METHODS = frozenset({"record", "emit", "emit_now", "emit_counter"})
#: metrics-registry factory methods keyed by metric name
_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})


def _obs_registry(modules: List[_Module]) -> Optional[_Module]:
    """``obs/registry.py``, when it is part of this run."""
    return next(
        (m for m in modules if Path(m.rel).name == "registry.py"
         and "obs" in Path(m.rel).parts),
        None,
    )


def _registry_keys(registry: _Module, table: str) -> List[ast.Constant]:
    """The literal string keys of ``table = {...}`` (plain or annotated
    assignment) in the registry, whatever the values are."""
    keys: List[ast.Constant] = []
    for node in ast.walk(registry.tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if isinstance(node.value, ast.Dict) and any(
            isinstance(t, ast.Name) and t.id == table for t in targets
        ):
            keys.extend(
                k for k in node.value.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            )
    return keys


def _declared_obs_names(
    modules: List[_Module],
) -> Optional[Tuple[FrozenSet[str], FrozenSet[str]]]:
    """(event names, metric names) from ``obs/registry.py``; ``None``
    (rule skipped) when the registry is not part of this run."""
    registry = _obs_registry(modules)
    if registry is None:
        return None
    events, metrics = (
        frozenset(k.value for k in _registry_keys(registry, table))
        for table in ("EVENTS", "METRICS")
    )
    return events, metrics


def _literal_first_arg(node: ast.Call) -> Optional[str]:
    if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
        node.args[0].value, str
    ):
        return node.args[0].value
    return None


def _fed_metric(node: ast.Call) -> Optional[Tuple[str, bool]]:
    """``(metric, is a prefix)`` of an event declaration's literal
    ``feeds=(metric, field[, key field])``, else ``None``."""
    for kw in node.keywords:
        elts = getattr(kw.value, "elts", None)
        if kw.arg == "feeds" and elts and isinstance(elts[0], ast.Constant):
            return str(elts[0].value), len(elts) > 2
    return None


def _is_metrics_receiver(func: ast.Attribute) -> bool:
    """``metrics.counter(...)`` or ``<x>.metrics.counter(...)``."""
    base = func.value
    if isinstance(base, ast.Name):
        return base.id == "metrics" or base.id.endswith("_metrics")
    if isinstance(base, ast.Attribute):
        return base.attr == "metrics"
    return False


def _check_undeclared_obs_name(
    module: _Module, events: FrozenSet[str], metrics: FrozenSet[str]
) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        func = node.func
        name = _literal_first_arg(node)
        if name is None:
            continue
        if func.attr in _EMIT_METHODS:
            what, table, declared = "trace event", "EVENTS", events
        elif func.attr in _METRIC_METHODS and _is_metrics_receiver(func):
            what, table, declared = "metric", "METRICS", metrics
        else:
            continue
        if name not in declared:
            yield from _finding(
                module, node.lineno, node.col_offset, "undeclared-obs-name",
                f"{what} {name!r} is not declared in obs/registry.py {table}",
            )


# -- rule: span-leak ---------------------------------------------------------


def _split_span_half(node: ast.Call) -> Optional[str]:
    """``"begin"``/``"end"`` when the emit opens/closes a split span.

    Recognizes the tracer constants by name (``kind=BEGIN``, a
    ``tracer.END`` attribute, an import alias ending in BEGIN/END) and
    the raw string forms ``kind="begin"`` / ``kind="end"``.
    """
    for kw in node.keywords:
        if kw.arg != "kind":
            continue
        value = kw.value
        if isinstance(value, ast.Constant) and value.value in ("begin", "end"):
            return str(value.value)
        if isinstance(value, ast.Name) and value.id in ("BEGIN", "END"):
            return value.id.lower()
        if isinstance(value, ast.Attribute) and value.attr in ("BEGIN", "END"):
            return value.attr.lower()
    return None


def _check_span_leak(module: _Module) -> Iterator[Finding]:
    """Unpaired ``kind=BEGIN`` emits in the instrumented machine layer."""
    if "machine" not in Path(module.rel).parts:
        return
    begins: List[Tuple[str, int, int]] = []
    ends: Set[str] = set()
    for node in ast.walk(module.tree):
        if (
            not isinstance(node, ast.Call)
            or not isinstance(node.func, ast.Attribute)
            or node.func.attr not in _EMIT_METHODS
        ):
            continue
        name = _literal_first_arg(node)
        if name is None:
            continue
        half = _split_span_half(node)
        if half == "begin":
            begins.append((name, node.lineno, node.col_offset))
        elif half == "end":
            ends.add(name)
    for name, lineno, col in begins:
        if name in ends:
            continue
        yield from _finding(
            module, lineno, col, "span-leak",
            f"split span {name!r} is opened with kind=BEGIN but this "
            f"module never emits a matching kind=END close",
        )


# -- rule: unpicklable-continuation ------------------------------------------

#: event-queue scheduling methods whose callback argument is serialized
#: into checkpoints
_SCHEDULE_METHODS = frozenset({"at", "after"})


def _is_events_receiver(func: ast.Attribute) -> bool:
    """``X.at(...)`` / ``X.after(...)`` where X is an event queue.

    Matched structurally by name: ``events``, ``self.events``,
    ``self._events``, ``machine.events`` — any receiver whose terminal
    identifier mentions ``events`` or is ``queue``.  Unrelated objects
    with ``.at``/``.after`` methods are out of scope by naming
    convention, same as the metrics-receiver heuristic.
    """
    value = func.value
    name = None
    if isinstance(value, ast.Name):
        name = value.id
    elif isinstance(value, ast.Attribute):
        name = value.attr
    if name is None:
        return False
    return "events" in name or name == "queue"


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined inside another function (closures)."""
    nested: Set[str] = set()

    def walk(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                if in_function:
                    nested.add(child.name)
                walk(child, True)
            elif isinstance(child, ast.Lambda):
                walk(child, True)
            else:
                walk(child, in_function)

    walk(tree, False)
    return nested


def _check_unpicklable_continuation(module: _Module) -> Iterator[Finding]:
    """Lambdas/closures scheduled into the event queue in ``machine/``.

    The checkpoint serializer can only encode bound methods of machine
    components (see ``CONTINUATIONS`` in ``machine/checkpoint.py``); an
    anonymous callable on the heap makes the whole machine state
    unsnapshottable.  ``functools.partial`` over a bound method is fine
    — the encoder unwraps it — so only the partial's *inner* callable
    is inspected when one appears literally.
    """
    if "machine" not in Path(module.rel).parts:
        return
    nested = _nested_function_names(module.tree)
    for node in ast.walk(module.tree):
        if (
            not isinstance(node, ast.Call)
            or not isinstance(node.func, ast.Attribute)
            or node.func.attr not in _SCHEDULE_METHODS
            or not _is_events_receiver(node.func)
            or len(node.args) < 2
        ):
            continue
        callback = node.args[1]
        # partial(f, ...) schedules f: lint the inner callable
        if (
            isinstance(callback, ast.Call)
            and isinstance(callback.func, ast.Name)
            and callback.func.id == "partial"
            and callback.args
        ):
            callback = callback.args[0]
        kind = None
        if isinstance(callback, ast.Lambda):
            kind = "a lambda"
        elif isinstance(callback, ast.Name) and callback.id in nested:
            kind = f"nested function {callback.id!r}"
        if kind is None:
            continue
        yield from _finding(
            module, node.lineno, node.col_offset, "unpicklable-continuation",
            f"{kind} scheduled into the event queue cannot be "
            f"checkpointed; use a bound method of a machine component "
            f"(registered in machine/checkpoint.py CONTINUATIONS)",
        )


# -- rule: dead-metric -------------------------------------------------------


def _metric_name_uses(
    modules: List[_Module],
) -> Tuple[Set[str], Set[str]]:
    """(exact literal names, literal prefixes) passed to the metrics
    factory methods, or fed by an event declaration, anywhere in the
    linted tree."""
    exact: Set[str] = set()
    prefixes: Set[str] = set()
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            fed = _fed_metric(node)
            if fed is not None:
                (prefixes if fed[1] else exact).add(fed[0])
            if (
                not isinstance(node.func, ast.Attribute)
                or node.func.attr not in _METRIC_METHODS
                or not _is_metrics_receiver(node.func)
                or not node.args
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                exact.add(arg.value)
            elif isinstance(arg, ast.JoinedStr) and arg.values:
                head = arg.values[0]
                if isinstance(head, ast.Constant) and isinstance(
                    head.value, str
                ):
                    prefixes.add(head.value)
                else:
                    prefixes.add("")  # fully dynamic: covers everything
    return exact, prefixes


def _dead_metric_findings(modules: List[_Module]) -> Iterator[Finding]:
    """Declared-but-never-incremented metrics, on tree-wide runs only.

    Requires both ``obs/registry.py`` (the declarations) and at least one
    ``machine/`` module (the instrumented layer) in the lint set — a
    partial run cannot see every increment site, so everything would
    read as dead.
    """
    registry = _obs_registry(modules)
    if registry is None or not any(
        "machine" in Path(m.rel).parts for m in modules
    ):
        return
    exact, prefixes = _metric_name_uses(modules)
    for key in _registry_keys(registry, "METRICS"):
        name = key.value
        if name in exact or any(name.startswith(p) for p in prefixes):
            continue
        yield from _finding(
            registry, key.lineno, key.col_offset, "dead-metric",
            f"metric {name!r} is declared in METRICS but never "
            f"passed to .counter()/.gauge()/.histogram() or fed by "
            f"an event declaration anywhere",
        )


# -- driver -----------------------------------------------------------------


def _collect_files(paths: Iterable[str]) -> List[Tuple[Path, Path]]:
    """``(root, file)`` pairs; ``file`` is scoped relative to its ``root``.

    The root is the directory argument the file was found under (or the
    file's parent for file arguments), so path-scoped rules see
    ``machine/...`` / ``core/...`` prefixes regardless of how the lint
    run was invoked.
    """
    files: List[Tuple[Path, Path]] = []
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                if file not in seen:
                    seen.add(file)
                    files.append((path, file))
        elif path.suffix == ".py" and path not in seen:
            seen.add(path)
            files.append((path.parent, path))
    return files


def _load(files: List[Tuple[Path, Path]]) -> Tuple[List[_Module], List[Finding]]:
    modules: List[_Module] = []
    errors: List[Finding] = []
    for root, file in files:
        try:
            source = file.read_text()
            tree = ast.parse(source, filename=str(file))
        except (OSError, SyntaxError) as exc:
            errors.append(
                Finding(str(file), getattr(exc, "lineno", 0) or 0, 0,
                        "parse-error", str(exc))
            )
            continue
        try:
            rel = os.path.join(root.name, str(file.relative_to(root)))
        except ValueError:  # pragma: no cover - absolute/relative mix
            rel = str(file)
        lines = source.splitlines()
        modules.append(_Module(file, rel, tree, lines, _parse_ignores(lines)))
    return modules, errors


def run_lint(paths: Iterable[str]) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; returns sorted findings."""
    modules, findings = _load(_collect_files(paths))
    declared = _declared_stats(modules)
    obs_names = _declared_obs_names(modules)
    for module in modules:
        findings.extend(_check_enum_dispatch(module))
        findings.extend(_check_nondeterminism(module))
        findings.extend(_check_unordered_iteration(module))
        findings.extend(_check_span_leak(module))
        findings.extend(_check_unpicklable_continuation(module))
        if declared is not None:
            findings.extend(_check_undeclared_stat(module, declared))
        if obs_names is not None:
            findings.extend(
                _check_undeclared_obs_name(module, obs_names[0], obs_names[1])
            )
    findings.extend(_scheme_findings(modules))
    findings.extend(_dead_metric_findings(modules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
