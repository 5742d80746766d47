"""AST code rules: determinism, layering, obs discipline, Vinci contract.

All rules work on stdlib ``ast`` trees — no third-party dependency, no
imports of the code under analysis.  Each rule states the invariant it
protects; DESIGN.md's "Static analysis & invariants" section mirrors
this list.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..obs.metrics import METRIC_NAME_RE
from .engine import CodeRule
from .findings import Finding, Severity

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _dotted(node: ast.AST) -> str | None:
    """The dotted name of an attribute chain rooted at a Name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _receiver_text(node: ast.AST) -> str:
    """Lower-cased source text of a call receiver (best effort)."""
    dotted = _dotted(node)
    if dotted is not None:
        return dotted.lower()
    try:
        return ast.unparse(node).lower()
    except Exception:  # pragma: no cover — unparse is total on valid trees
        return ""


def _str_constants(tree: ast.Module) -> dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments."""
    out: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out[target.id] = node.value.value
    return out


def _class_str_constants(cls: ast.ClassDef) -> dict[str, str]:
    """Class-level ``NAME = "literal"`` assignments."""
    out: dict[str, str] = {}
    for node in cls.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out[target.id] = node.value.value
    return out


# ---------------------------------------------------------------------------
# DET001 — wall-clock ban
# ---------------------------------------------------------------------------

#: Attribute chains that read the host clock (nondeterministic under
#: simulation — all timing must come from the SimClock).
_WALL_CLOCK_CHAINS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)

#: Names that must not be imported from ``time`` directly.
_WALL_CLOCK_TIME_NAMES = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "sleep",
    }
)


class WallClockRule(CodeRule):
    """Byte-determinism: no host-clock reads anywhere in the system."""

    rule_id = "DET001"
    name = "determinism-wall-clock"
    severity = Severity.ERROR
    invariant = (
        "simulated runs are byte-deterministic: all timing flows through "
        "repro.obs.clock.SimClock, never the host clock"
    )

    def check(self, path: str, modpath: str, tree: ast.Module) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                chain = _dotted(node)
                if chain in _WALL_CLOCK_CHAINS:
                    yield self.finding(
                        f"wall-clock read {chain!r}: use the SimClock "
                        "(repro.obs.clock) so runs stay deterministic",
                        path=path,
                        line=node.lineno,
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _WALL_CLOCK_TIME_NAMES:
                        yield self.finding(
                            f"import of time.{alias.name}: use the SimClock "
                            "(repro.obs.clock) so runs stay deterministic",
                            path=path,
                            line=node.lineno,
                        )


# ---------------------------------------------------------------------------
# DET002 — seeded RNG discipline
# ---------------------------------------------------------------------------


class SeededRngRule(CodeRule):
    """Every RNG is an explicitly seeded ``random.Random(seed)`` instance."""

    rule_id = "DET002"
    name = "determinism-rng"
    severity = Severity.ERROR
    invariant = (
        "every random draw comes from an explicitly seeded random.Random "
        "instance — never the shared module-level RNG or OS entropy"
    )

    def check(self, path: str, modpath: str, tree: ast.Module) -> Iterator[Finding]:
        random_aliases = {"random"}  # names bound to the random module
        bare_random_class: set[str] = set()  # names bound to random.Random
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name == "Random":
                        bare_random_class.add(alias.asname or "Random")
                    else:
                        yield self.finding(
                            f"import of random.{alias.name}: module-level random "
                            "functions share hidden global state; construct a "
                            "seeded random.Random instead",
                            path=path,
                            line=node.lineno,
                        )
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if func.value.id not in random_aliases:
                    continue
                if func.attr == "Random":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            "unseeded random.Random(): pass an explicit seed "
                            "so runs stay reproducible",
                            path=path,
                            line=node.lineno,
                        )
                elif func.attr == "SystemRandom":
                    yield self.finding(
                        "random.SystemRandom draws OS entropy and can never "
                        "be reproduced; use a seeded random.Random",
                        path=path,
                        line=node.lineno,
                    )
                else:
                    yield self.finding(
                        f"module-level random.{func.attr}(): shared global RNG "
                        "state breaks run-to-run determinism; use a seeded "
                        "random.Random instance",
                        path=path,
                        line=node.lineno,
                    )
            elif isinstance(func, ast.Name) and func.id in bare_random_class:
                if not node.args and not node.keywords:
                    yield self.finding(
                        "unseeded Random(): pass an explicit seed so runs "
                        "stay reproducible",
                        path=path,
                        line=node.lineno,
                    )


# ---------------------------------------------------------------------------
# ARCH001 — import layering
# ---------------------------------------------------------------------------

#: Package → rank in the import DAG.  An import is legal only when the
#: importing package's rank is strictly greater than the imported one's
#: (intra-package imports are always fine).  This encodes
#: ``lexicons/nlp → core/miners → platform → cli`` plus the auxiliary
#: packages that grew around it.
LAYER_RANKS: dict[str, int] = {
    # foundation: pure data + leaf utilities, import nothing from repro
    "obs": 0,
    "lexicons": 0,
    "nlp": 0,
    # the sentiment core (also hosts the entity model + miner framework)
    "core": 1,
    # adapters and generators over the core
    "miners": 2,
    "corpora": 2,
    "baselines": 2,
    # the simulated WebFountain platform
    "platform": 3,
    # evaluation harness and applications
    "eval": 4,
    "apps": 5,
    # tooling and entry points
    "analysis": 6,
    "__init__": 7,
    "cli": 8,
    "__main__": 9,
}


def _source_package(modpath: str) -> str | None:
    """The layer name of a module path like ``repro/platform/vinci.py``."""
    parts = modpath.split("/")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    if len(parts) == 2:  # repro/cli.py, repro/__init__.py, repro/__main__.py
        return parts[1].removesuffix(".py")
    return parts[1]


class LayeringRule(CodeRule):
    """No upward imports in the package DAG."""

    rule_id = "ARCH001"
    name = "import-layering"
    severity = Severity.ERROR
    invariant = (
        "imports respect the DAG lexicons/nlp -> core/miners -> platform -> "
        "cli (full rank table in repro.analysis.code_rules.LAYER_RANKS)"
    )

    def check(self, path: str, modpath: str, tree: ast.Module) -> Iterator[Finding]:
        source = _source_package(modpath)
        if source is None or source not in LAYER_RANKS:
            return
        source_rank = LAYER_RANKS[source]
        for node in ast.walk(tree):
            for target, lineno in _import_targets(node, modpath):
                if target == source or target not in LAYER_RANKS:
                    continue
                target_rank = LAYER_RANKS[target]
                if target_rank >= source_rank:
                    yield self.finding(
                        f"layering violation: {source!r} (rank {source_rank}) "
                        f"imports {target!r} (rank {target_rank}); the DAG "
                        "only allows imports of strictly lower-ranked layers",
                        path=path,
                        line=lineno,
                    )


def _import_targets(node: ast.AST, modpath: str) -> list[tuple[str, int]]:
    """Top-level repro packages referenced by one import statement."""
    depth = modpath.count("/")  # repro/cli.py → 1; repro/platform/x.py → 2
    targets: list[tuple[str, int]] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro":
                targets.append((parts[1] if len(parts) > 1 else "__init__", node.lineno))
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            if parts[0] == "repro":
                targets.append((parts[1] if len(parts) > 1 else "__init__", node.lineno))
        else:
            # Relative import: resolve against this module's depth.  From
            # repro/<pkg>/mod.py, level 1 is the same package (never a
            # violation) and level 2 reaches repro's top level; from
            # repro/mod.py, level 1 already reaches the top level.
            top_level = node.level == depth
            if top_level:
                if node.module:
                    targets.append((node.module.split(".")[0], node.lineno))
                else:  # "from . import x" at the top level
                    for alias in node.names:
                        if alias.name == "__version__":
                            continue  # metadata from the facade, not a layer
                        targets.append((alias.name, node.lineno))
    return targets


# ---------------------------------------------------------------------------
# OBS001 — spans only via context manager
# ---------------------------------------------------------------------------


class SpanContextRule(CodeRule):
    """Tracer spans are opened with ``with`` so they always close."""

    rule_id = "OBS001"
    name = "obs-span-context"
    severity = Severity.ERROR
    invariant = (
        "tracer spans are only opened as context managers (with "
        "tracer.span(...)), so every span closes and nests correctly"
    )

    def check(self, path: str, modpath: str, tree: ast.Module) -> Iterator[Finding]:
        with_items: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_items.add(id(item.context_expr))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "span"):
                continue
            if "tracer" not in _receiver_text(func.value):
                continue
            if id(node) not in with_items:
                yield self.finding(
                    "tracer span opened outside a with-statement; spans must "
                    "be context-managed so they always close",
                    path=path,
                    line=node.lineno,
                )


# ---------------------------------------------------------------------------
# OBS002 — metric names match the registry's naming regex
# ---------------------------------------------------------------------------

_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})


class MetricNameRule(CodeRule):
    """Literal metric names satisfy the registry's naming regex."""

    rule_id = "OBS002"
    name = "obs-metric-name"
    severity = Severity.ERROR
    invariant = (
        "every metric name statically resolvable at a registry call site "
        "matches repro.obs.metrics.METRIC_NAME_RE"
    )

    def check(self, path: str, modpath: str, tree: ast.Module) -> Iterator[Finding]:
        module_consts = _str_constants(tree)
        class_consts: dict[str, dict[str, str]] = {}
        enclosing: dict[int, str] = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                class_consts[cls.name] = _class_str_constants(cls)
                for child in ast.walk(cls):
                    enclosing.setdefault(id(child), cls.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in _METRIC_METHODS):
                continue
            receiver = _receiver_text(func.value)
            if "metric" not in receiver and "registry" not in receiver:
                continue
            name = self._resolve_name(node, module_consts, class_consts,
                                      enclosing.get(id(node)))
            if name is None:
                continue  # not statically resolvable — runtime check covers it
            if not METRIC_NAME_RE.match(name):
                yield self.finding(
                    f"metric name {name!r} does not match the registry "
                    f"naming regex {METRIC_NAME_RE.pattern}",
                    path=path,
                    line=node.lineno,
                )

    @staticmethod
    def _resolve_name(
        call: ast.Call,
        module_consts: dict[str, str],
        class_consts: dict[str, dict[str, str]],
        enclosing_class: str | None,
    ) -> str | None:
        arg: ast.expr | None = call.args[0] if call.args else None
        if arg is None:
            for keyword in call.keywords:
                if keyword.arg == "name":
                    arg = keyword.value
                    break
        if arg is None:
            return None
        if isinstance(arg, ast.Constant):
            return arg.value if isinstance(arg.value, str) else None
        if isinstance(arg, ast.Name):
            return module_consts.get(arg.id)
        if isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name):
            owner = arg.value.id
            if owner in ("self", "cls") and enclosing_class:
                return class_consts.get(enclosing_class, {}).get(arg.attr)
            return class_consts.get(owner, {}).get(arg.attr)
        return None


# ---------------------------------------------------------------------------
# PLAT001 — Vinci handler contract
# ---------------------------------------------------------------------------


def _is_dictish_annotation(node: ast.expr) -> bool:
    # "Envelope" is repro.platform.api's dict alias for v1 responses.
    if isinstance(node, ast.Name):
        return node.id in ("dict", "Dict", "Envelope")
    if isinstance(node, ast.Subscript):
        return _is_dictish_annotation(node.value)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[")[0].strip() in ("dict", "Dict", "Envelope")
    if isinstance(node, ast.Attribute):
        return node.attr in ("Dict", "Envelope")
    return False


def _obviously_not_dict(node: ast.expr) -> bool:
    return isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.ListComp,
                             ast.SetComp, ast.GeneratorExp, ast.JoinedStr)) or (
        isinstance(node, ast.Constant) and not isinstance(node.value, dict)
    )


class VinciHandlerRule(CodeRule):
    """Registered Vinci service handlers take/return dict envelopes."""

    rule_id = "PLAT001"
    name = "vinci-handler-contract"
    severity = Severity.ERROR
    invariant = (
        "every handler registered on a Vinci bus takes exactly one dict "
        "payload and returns a dict envelope"
    )
    scope = ("repro/platform/*", "repro/apps/*", "repro/cli.py")

    def check(self, path: str, modpath: str, tree: ast.Module) -> Iterator[Finding]:
        functions: dict[str, ast.FunctionDef] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Last definition wins; ambiguity is fine for a lint pass.
                functions[node.name] = node
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "register"):
                continue
            if "bus" not in _receiver_text(func.value):
                continue
            if len(node.args) < 2:
                continue
            handler = node.args[1]
            if isinstance(handler, ast.Lambda):
                yield from self._check_lambda(handler, path)
            elif isinstance(handler, ast.Name) and handler.id in functions:
                yield from self._check_function(functions[handler.id], path)

    def _check_lambda(self, handler: ast.Lambda, path: str) -> Iterator[Finding]:
        args = handler.args
        n_params = len(args.posonlyargs) + len(args.args)
        if n_params != 1 or args.vararg or args.kwarg or args.kwonlyargs:
            yield self.finding(
                "Vinci handler must take exactly one dict payload argument",
                path=path,
                line=handler.lineno,
            )
        if _obviously_not_dict(handler.body):
            yield self.finding(
                "Vinci handler must return a dict envelope",
                path=path,
                line=handler.lineno,
            )

    def _check_function(self, fn: ast.FunctionDef, path: str) -> Iterator[Finding]:
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args]
        if params and params[0] in ("self", "cls"):
            params = params[1:]
        if len(params) != 1 or args.vararg or args.kwarg or args.kwonlyargs:
            yield self.finding(
                f"Vinci handler {fn.name!r} must take exactly one dict "
                "payload argument",
                path=path,
                line=fn.lineno,
            )
        if fn.returns is not None and not _is_dictish_annotation(fn.returns):
            yield self.finding(
                f"Vinci handler {fn.name!r} must be annotated to return a "
                "dict envelope",
                path=path,
                line=fn.lineno,
            )
        for node in ast.walk(fn):
            if isinstance(node, ast.Return):
                if node.value is None or _obviously_not_dict(node.value):
                    yield self.finding(
                        f"Vinci handler {fn.name!r} must return a dict "
                        "envelope on every path",
                        path=path,
                        line=node.lineno,
                    )


# ---------------------------------------------------------------------------
# PLAT002 — serving discipline: deadlines propagate, queues are bounded
# ---------------------------------------------------------------------------


def _deque_maxlen_bounded(call: ast.Call) -> bool:
    """True when a ``deque(...)`` call has a non-None maxlen."""
    if len(call.args) >= 2:
        arg = call.args[1]
        return not (isinstance(arg, ast.Constant) and arg.value is None)
    for keyword in call.keywords:
        if keyword.arg == "maxlen":
            value = keyword.value
            return not (isinstance(value, ast.Constant) and value.value is None)
    return False


def _queue_maxsize_bounded(call: ast.Call) -> bool:
    """True when a ``queue.Queue(...)`` call has a bounding maxsize."""
    candidates: list[ast.expr] = list(call.args[:1])
    candidates.extend(k.value for k in call.keywords if k.arg == "maxsize")
    for value in candidates:
        if isinstance(value, ast.Constant) and (
            value.value is None or (isinstance(value.value, int) and value.value <= 0)
        ):
            return False
        return True
    return False


class ServingDisciplineRule(CodeRule):
    """Serving handlers honour deadlines; serving queues are bounded.

    Two invariants from the overload model (DESIGN.md §5e):

    * every ``answer*`` handler in the serving layer takes a ``deadline``
      parameter and actually consults it — a handler that ignores its
      deadline can serve work late;
    * no unbounded queues: every ``deque`` carries a ``maxlen`` and every
      ``queue.Queue`` a positive ``maxsize``, so overload sheds requests
      explicitly instead of growing memory without bound.
    """

    rule_id = "PLAT002"
    name = "serving-discipline"
    severity = Severity.ERROR
    invariant = (
        "serving answer* handlers accept and consult a 'deadline' parameter, "
        "and every queue in platform/serving is bounded"
    )
    scope = ("repro/platform/serving/*",)

    def check(self, path: str, modpath: str, tree: ast.Module) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("answer"):
                    yield from self._check_handler(node, path)
            elif isinstance(node, ast.Call):
                yield from self._check_queue(node, path)

    def _check_handler(self, fn: ast.FunctionDef, path: str) -> Iterator[Finding]:
        args = fn.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        if "deadline" not in params:
            yield self.finding(
                f"serving handler {fn.name!r} must accept a 'deadline' "
                "parameter so request budgets propagate downstream",
                path=path,
                line=fn.lineno,
            )
            return
        used = any(
            isinstance(node, ast.Name) and node.id == "deadline"
            for body_node in fn.body
            for node in ast.walk(body_node)
        )
        if not used:
            yield self.finding(
                f"serving handler {fn.name!r} accepts a deadline but never "
                "consults it; expired work could be served late",
                path=path,
                line=fn.lineno,
            )

    def _check_queue(self, call: ast.Call, path: str) -> Iterator[Finding]:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else None
        if name is None and isinstance(func, ast.Attribute):
            name = func.attr
        if name == "deque":
            if not _deque_maxlen_bounded(call):
                yield self.finding(
                    "unbounded deque in the serving layer: pass maxlen= so "
                    "overload sheds explicitly instead of growing memory",
                    path=path,
                    line=call.lineno,
                )
        elif name == "Queue" or (_dotted(func) or "").endswith("queue.Queue"):
            if name in ("Queue",) and not _queue_maxsize_bounded(call):
                yield self.finding(
                    "unbounded Queue in the serving layer: pass a positive "
                    "maxsize so overload sheds explicitly",
                    path=path,
                    line=call.lineno,
                )


# ---------------------------------------------------------------------------
# PLAT003 — the v1 envelope is the only response shape
# ---------------------------------------------------------------------------

#: Names whose call results are v1 envelopes by construction.
_ENVELOPE_BUILDERS = frozenset({"ok_envelope", "error_envelope"})

#: Modules whose client-facing handlers must return envelopes.
_HANDLER_MODULES = (
    "repro/platform/services.py",
    "repro/platform/serving/router.py",
)


def _envelope_keyset(node: ast.Dict) -> set[str]:
    return {
        key.value
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def _looks_like_envelope(node: ast.Dict) -> bool:
    """A dict literal shaped like a response envelope."""
    keys = _envelope_keyset(node)
    if "api_version" in keys:
        return True
    return "ok" in keys and bool(keys & {"data", "error", "meta"})


def _terminal_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class EnvelopeSchemaRule(CodeRule):
    """Responses are v1 envelopes built only through ``repro.platform.api``.

    Two checks (DESIGN.md §5f / the v1 API contract):

    * no raw envelope-shaped dict literals (``api_version`` key, or
      ``ok`` alongside ``data``/``error``/``meta``) anywhere in the
      platform or apps outside ``platform/api.py`` — the constructors
      are the single source of the schema;
    * every client-facing handler in ``platform/services.py`` and
      ``platform/serving/router.py`` (functions registered on the bus,
      ``handle`` methods, ``answer_*`` methods, and entries of a
      ``bindings`` dict) returns through the envelope constructors on
      every path, directly or via helpers that do (computed to a
      fixpoint over the module's functions).
    """

    rule_id = "PLAT003"
    name = "api-envelope-schema"
    severity = Severity.ERROR
    invariant = (
        "every service/router response is a v1 envelope built by "
        "repro.platform.api constructors; no raw envelope dict literals "
        "outside platform/api.py"
    )
    scope = ("repro/platform/*", "repro/apps/*")

    def check(self, path: str, modpath: str, tree: ast.Module) -> Iterator[Finding]:
        if modpath == "repro/platform/api.py":
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict) and _looks_like_envelope(node):
                yield self.finding(
                    "raw envelope dict literal: build responses with "
                    "repro.platform.api.ok_envelope/error_envelope so the "
                    "v1 schema has a single source",
                    path=path,
                    line=node.lineno,
                )
        if modpath in _HANDLER_MODULES:
            yield from self._check_handlers(tree, path)

    def _check_handlers(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        functions: dict[str, ast.FunctionDef] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[node.name] = node
        envelope_fns = self._envelope_fixpoint(functions)
        for name in sorted(self._handler_names(tree)):
            fn = functions.get(name)
            if fn is None or name in envelope_fns:
                continue
            for ret in ast.walk(fn):
                if isinstance(ret, ast.Return) and not self._returns_envelope(
                    ret, envelope_fns
                ):
                    yield self.finding(
                        f"handler {name!r} has a return path that does not "
                        "flow through the v1 envelope constructors "
                        "(api.ok_envelope/api.error_envelope)",
                        path=path,
                        line=ret.lineno,
                    )

    @staticmethod
    def _handler_names(tree: ast.Module) -> set[str]:
        """Client-facing handlers: bus registrations + handle/answer_*."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == "handle" or node.name.startswith("answer_"):
                    names.add(node.name)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "register"
                    and "bus" in _receiver_text(func.value)
                    and len(node.args) >= 2
                ):
                    handler = _terminal_name(node.args[1])
                    if handler is not None:
                        names.add(handler)
            elif isinstance(node, ast.Assign):
                # bindings = {"service.name": obj.method, ...}
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
                if "bindings" in targets and isinstance(node.value, ast.Dict):
                    for value in node.value.values:
                        handler = _terminal_name(value)
                        if handler is not None:
                            names.add(handler)
        return names

    def _envelope_fixpoint(self, functions: dict[str, ast.FunctionDef]) -> set[str]:
        """Functions all of whose return paths produce envelopes."""
        known = set(_ENVELOPE_BUILDERS)
        changed = True
        while changed:
            changed = False
            for name, fn in functions.items():
                if name in known:
                    continue
                returns = [
                    node
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Return) and node.value is not None
                ]
                if not returns:
                    continue
                if all(self._returns_envelope(r, known) for r in returns):
                    known.add(name)
                    changed = True
        return known

    @staticmethod
    def _returns_envelope(ret: ast.Return, known: set[str]) -> bool:
        value = ret.value
        if value is None:
            return False
        if isinstance(value, ast.Call):
            name = _terminal_name(value.func)
            return name is not None and name in known
        # A bare name (e.g. a pre-built error envelope held in a local)
        # is not statically resolvable; trust it — the dict-literal check
        # above still catches hand-rolled envelopes feeding it.
        return isinstance(value, ast.Name)


def default_code_rules() -> list[CodeRule]:
    """The full per-file rule set, in report order.

    Trace-context threading is checked whole-program by OBS003i in
    :mod:`repro.analysis.program_rules`.
    """
    return [
        WallClockRule(),
        SeededRngRule(),
        LayeringRule(),
        SpanContextRule(),
        MetricNameRule(),
        VinciHandlerRule(),
        ServingDisciplineRule(),
        EnvelopeSchemaRule(),
    ]
