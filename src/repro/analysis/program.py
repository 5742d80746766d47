"""Whole-program model for ``repro lint``: modules, symbols, call graph.

Per-file AST rules (PR 4) cannot see a deadline dropped two calls deep
or a version pin that escapes through a helper.  This module builds the
project-wide picture those checks need, once per lint run:

* a **module import graph** over the ``repro`` package (every static
  and function-local import, resolved through relative imports), with
  the reverse-dependency cone used by ``--changed-only`` and the
  incremental cache;
* a **symbol table** — module-level functions, classes and assignments,
  class methods with ``self``-attribute types inferred from
  constructor assignments in any method;
* a **conservative call graph** — call sites resolved through import
  aliases, local constructor assignments, ``self`` attributes, and
  intra-module names; unresolvable receivers simply contribute no edge
  (rules that need them fall back to method-name indexes);
* per-function **CFG summaries** (:mod:`repro.analysis.dataflow`) so
  rules can run path-sensitive analyses without re-walking the AST.

Everything is dependency-free (stdlib ``ast``), deterministic (all
iteration orders are sorted), and JSON-serializable so the incremental
lint cache (:mod:`repro.analysis.cache`) can persist summaries keyed by
file content hash: a warm run re-analyzes nothing that did not change.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .dataflow import EV_ASSIGN, EV_CALL, CfgNode, FunctionCfg, build_cfg

# ---------------------------------------------------------------------------
# tokens: compact, serializable expression descriptions
# ---------------------------------------------------------------------------


def expr_token(node: ast.expr | None) -> str:
    """A compact token for an expression: dotted names kept, rest folded.

    ``self._index.pin`` stays dotted; calls become ``f()``; dict
    literals become ``{}``; constants ``<const>``; anything else ``?``.
    """
    if node is None:
        return "<none>"
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = expr_token(node.value)
        return f"{base}.{node.attr}"
    if isinstance(node, ast.Call):
        return f"{expr_token(node.func)}()"
    if isinstance(node, ast.Dict):
        return "{}"
    if isinstance(node, ast.Constant):
        return "<const>"
    if isinstance(node, ast.Starred):
        return expr_token(node.value)
    return "?"


def _identifiers(node: ast.AST) -> set[str]:
    """Every Name id and Attribute attr appearing under *node*."""
    out: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            out.add(child.id)
        elif isinstance(child, ast.Attribute):
            out.add(child.attr)
    return out


def _dict_keys(node: ast.AST) -> set[str]:
    """String keys of every dict literal under *node* (recursively)."""
    keys: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Dict):
            for key in child.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
    return keys


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


@dataclass
class CallSite:
    """One call expression inside a function."""

    callee: str  # dotted token of the call target, e.g. "self._index.pin"
    lineno: int
    args: tuple[str, ...] = ()  # token per positional argument
    kwargs: tuple[tuple[str, str], ...] = ()  # (keyword, token) pairs
    mentions: tuple[str, ...] = ()  # sorted identifiers under the whole call
    dict_keys: tuple[str, ...] = ()  # string keys of dict literals in the args
    target: str = ""  # local name the result is bound to ("" if none)

    @property
    def terminal(self) -> str:
        """Last component of the callee token (the method/function name)."""
        return self.callee.rsplit(".", 1)[-1]

    @property
    def receiver(self) -> str:
        """Everything before the last dot ("" for bare names)."""
        if "." not in self.callee:
            return ""
        return self.callee.rsplit(".", 1)[0]

    def kwarg(self, name: str) -> str | None:
        for key, token in self.kwargs:
            if key == name:
                return token
        return None

    def to_dict(self) -> dict:
        return {
            "callee": self.callee,
            "lineno": self.lineno,
            "args": list(self.args),
            "kwargs": [list(kv) for kv in self.kwargs],
            "mentions": list(self.mentions),
            "dict_keys": list(self.dict_keys),
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CallSite":
        return cls(
            callee=payload["callee"],
            lineno=payload["lineno"],
            args=tuple(payload["args"]),
            kwargs=tuple((k, v) for k, v in payload["kwargs"]),
            mentions=tuple(payload["mentions"]),
            dict_keys=tuple(payload["dict_keys"]),
            target=payload["target"],
        )


@dataclass
class FunctionSummary:
    """One function or method: signature, call sites, CFG."""

    qname: str  # "helper" or "Class.method" or "outer.inner"
    name: str
    lineno: int
    class_name: str = ""  # enclosing class ("" for module level)
    params: tuple[str, ...] = ()  # positional + kw-only, minus self/cls
    decorators: tuple[str, ...] = ()
    calls: list[CallSite] = field(default_factory=list)
    cfg: FunctionCfg = field(default_factory=FunctionCfg)
    mentions: frozenset[str] = frozenset()  # identifiers anywhere in the body
    #: local name → callee token of the call whose result it holds (last wins).
    local_calls: dict[str, str] = field(default_factory=dict)
    #: local name → string keys of the dict literal assigned to it.
    dict_assigns: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def call_sites(self, terminal: str | None = None) -> Iterator[CallSite]:
        for call in self.calls:
            if terminal is None or call.terminal == terminal:
                yield call

    def to_dict(self) -> dict:
        return {
            "qname": self.qname,
            "name": self.name,
            "lineno": self.lineno,
            "class_name": self.class_name,
            "params": list(self.params),
            "decorators": list(self.decorators),
            "calls": [c.to_dict() for c in self.calls],
            "cfg": self.cfg.to_dict(),
            "mentions": sorted(self.mentions),
            "local_calls": dict(sorted(self.local_calls.items())),
            "dict_assigns": {
                k: list(v) for k, v in sorted(self.dict_assigns.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FunctionSummary":
        return cls(
            qname=payload["qname"],
            name=payload["name"],
            lineno=payload["lineno"],
            class_name=payload["class_name"],
            params=tuple(payload["params"]),
            decorators=tuple(payload["decorators"]),
            calls=[CallSite.from_dict(c) for c in payload["calls"]],
            cfg=FunctionCfg.from_dict(payload["cfg"]),
            mentions=frozenset(payload["mentions"]),
            local_calls=dict(payload["local_calls"]),
            dict_assigns={
                k: tuple(v) for k, v in payload["dict_assigns"].items()
            },
        )


@dataclass
class ClassSummary:
    """One class: bases, methods, and inferred self-attribute types."""

    name: str
    lineno: int
    bases: tuple[str, ...] = ()  # tokens, e.g. "CodeRule", "abc.ABC"
    methods: tuple[str, ...] = ()  # method names (summaries live on the module)
    #: self attribute → callee token of the constructor that filled it,
    #: e.g. {"_rng": "random.Random", "_latency": "LatencyModel"}.
    attr_types: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lineno": self.lineno,
            "bases": list(self.bases),
            "methods": list(self.methods),
            "attr_types": dict(sorted(self.attr_types.items())),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ClassSummary":
        return cls(
            name=payload["name"],
            lineno=payload["lineno"],
            bases=tuple(payload["bases"]),
            methods=tuple(payload["methods"]),
            attr_types=dict(payload["attr_types"]),
        )


@dataclass
class ModuleSummary:
    """Everything the program model keeps about one source file."""

    modpath: str  # "repro/platform/serving/router.py"
    path: str  # display path as given to the linter
    digest: str  # content hash (sha256 hex) of the source
    module: str = ""  # dotted name, "repro.platform.serving.router"
    package: str = ""  # top-level subsystem, e.g. "platform"
    #: local alias → ("module", dotted) or ("member", base_module, member).
    aliases: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: absolute dotted import targets (module or module-member) + lineno.
    import_targets: list[tuple[str, int]] = field(default_factory=list)
    #: module-level symbol name → (kind, lineno); kind in
    #: {"function", "class", "assign", "import"}.
    top_symbols: dict[str, tuple[str, int]] = field(default_factory=dict)
    all_exports: tuple[str, ...] = ()  # names listed in __all__
    star_imports: tuple[str, ...] = ()  # modules star-imported (dotted)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    name_refs: frozenset[str] = frozenset()  # every Name load in the module
    attr_refs: frozenset[str] = frozenset()  # every attribute name used
    #: (base_name, attr) pairs — possible module-alias member accesses.
    base_attr_refs: tuple[tuple[str, str], ...] = ()

    def functions_named(self, name: str) -> Iterator[FunctionSummary]:
        for fn in self.functions.values():
            if fn.name == name:
                yield fn

    def to_dict(self) -> dict:
        return {
            "modpath": self.modpath,
            "path": self.path,
            "digest": self.digest,
            "module": self.module,
            "package": self.package,
            "aliases": {k: list(v) for k, v in sorted(self.aliases.items())},
            "import_targets": [list(t) for t in self.import_targets],
            "top_symbols": {k: list(v) for k, v in sorted(self.top_symbols.items())},
            "all_exports": list(self.all_exports),
            "star_imports": list(self.star_imports),
            "functions": {k: f.to_dict() for k, f in sorted(self.functions.items())},
            "classes": {k: c.to_dict() for k, c in sorted(self.classes.items())},
            "name_refs": sorted(self.name_refs),
            "attr_refs": sorted(self.attr_refs),
            "base_attr_refs": sorted([list(p) for p in self.base_attr_refs]),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModuleSummary":
        return cls(
            modpath=payload["modpath"],
            path=payload["path"],
            digest=payload["digest"],
            module=payload["module"],
            package=payload["package"],
            aliases={k: tuple(v) for k, v in payload["aliases"].items()},
            import_targets=[(t, n) for t, n in payload["import_targets"]],
            top_symbols={k: (v[0], v[1]) for k, v in payload["top_symbols"].items()},
            all_exports=tuple(payload["all_exports"]),
            star_imports=tuple(payload["star_imports"]),
            functions={
                k: FunctionSummary.from_dict(f)
                for k, f in payload["functions"].items()
            },
            classes={
                k: ClassSummary.from_dict(c) for k, c in payload["classes"].items()
            },
            name_refs=frozenset(payload["name_refs"]),
            attr_refs=frozenset(payload["attr_refs"]),
            base_attr_refs=tuple((b, a) for b, a in payload["base_attr_refs"]),
        )


# ---------------------------------------------------------------------------
# summary construction
# ---------------------------------------------------------------------------


def content_digest(source: bytes) -> str:
    return hashlib.sha256(source).hexdigest()


def module_dotted(modpath: str) -> str:
    """``repro/platform/api.py`` → ``repro.platform.api``."""
    dotted = modpath.removesuffix(".py").replace("/", ".")
    return dotted.removesuffix(".__init__")


def module_package(modpath: str) -> str:
    """Top-level subsystem of a module path (``platform``, ``core``, …)."""
    parts = modpath.split("/")
    if len(parts) < 2 or parts[0] != "repro":
        return ""
    if len(parts) == 2:
        return parts[1].removesuffix(".py")
    return parts[1]


def _resolve_relative(modpath: str, level: int, module: str | None) -> str | None:
    """Absolute dotted target of a relative import from *modpath*."""
    parts = modpath.removesuffix(".py").split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    else:
        parts = parts[:-1]  # the containing package
    # level 1 = this package, each extra level pops one more.
    for _ in range(level - 1):
        if not parts:
            return None
        parts = parts[:-1]
    if not parts:
        return None
    base = ".".join(parts)
    return f"{base}.{module}" if module else base


class _FunctionVisitor:
    """Builds one FunctionSummary: call table, CFG events, mentions."""

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef, qname: str,
                 class_name: str):
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if params and params[0] in ("self", "cls"):
            params = params[1:]
        self.summary = FunctionSummary(
            qname=qname,
            name=fn.name,
            lineno=fn.lineno,
            class_name=class_name,
            params=tuple(params),
            decorators=tuple(expr_token(d) for d in fn.decorator_list),
            mentions=frozenset(_identifiers(fn)),
        )
        self.summary.cfg = build_cfg(fn, self._register)

    # -- event extraction --------------------------------------------------------

    def _own_exprs(self, stmt: ast.stmt) -> list[ast.expr]:
        """Expressions evaluated by *stmt* itself (not nested statements)."""
        if isinstance(stmt, (ast.If, ast.While)):
            return [stmt.test]
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return [item.context_expr for item in stmt.items]
        if isinstance(stmt, ast.Try):
            return []
        if isinstance(stmt, ast.Assign):
            return [stmt.value]
        if isinstance(stmt, ast.AnnAssign):
            return [stmt.value] if stmt.value is not None else []
        if isinstance(stmt, ast.AugAssign):
            return [stmt.value]
        if isinstance(stmt, ast.Return):
            return [stmt.value] if stmt.value is not None else []
        if isinstance(stmt, ast.Expr):
            return [stmt.value]
        if isinstance(stmt, ast.Raise):
            return [e for e in (stmt.exc, stmt.cause) if e is not None]
        if isinstance(stmt, ast.Assert):
            return [e for e in (stmt.test, stmt.msg) if e is not None]
        if isinstance(stmt, ast.Delete):
            return list(stmt.targets)
        return []

    def _register(self, stmt: ast.stmt, node: CfgNode) -> None:
        target = ""
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            if isinstance(stmt.targets[0], ast.Name):
                target = stmt.targets[0].id
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            target = stmt.target.id
        calls: list[ast.Call] = []
        for expr in self._own_exprs(stmt):
            for child in ast.walk(expr):
                if isinstance(child, ast.Call):
                    calls.append(child)
        for call in calls:
            # The assignment target belongs to the outermost call only.
            is_outer = isinstance(stmt, (ast.Assign, ast.AnnAssign)) and (
                call is getattr(stmt, "value", None)
            )
            index = len(self.summary.calls)
            site = CallSite(
                callee=expr_token(call.func),
                lineno=call.lineno,
                args=tuple(expr_token(a) for a in call.args),
                kwargs=tuple(
                    (k.arg or "**", expr_token(k.value)) for k in call.keywords
                ),
                mentions=tuple(sorted(_identifiers(call))),
                dict_keys=tuple(sorted(_dict_keys(call))),
                target=target if is_outer else "",
            )
            self.summary.calls.append(site)
            node.events.append((EV_CALL, index))
            if site.target:
                self.summary.local_calls[site.target] = site.callee
        if target and isinstance(getattr(stmt, "value", None), (ast.Name, ast.Attribute)):
            node.events.append((EV_ASSIGN, target, expr_token(stmt.value)))
        if target and isinstance(getattr(stmt, "value", None), ast.Dict):
            self.summary.dict_assigns[target] = tuple(
                sorted(_dict_keys(stmt.value))
            )


class _ModuleVisitor:
    """Builds one :class:`ModuleSummary` from a parsed module."""

    def __init__(self, modpath: str, path: str, digest: str):
        self.summary = ModuleSummary(
            modpath=modpath,
            path=path,
            digest=digest,
            module=module_dotted(modpath),
            package=module_package(modpath),
        )

    def visit(self, tree: ast.Module) -> ModuleSummary:
        summary = self.summary
        self._collect_imports(tree)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                summary.top_symbols[stmt.name] = ("function", stmt.lineno)
                self._function(stmt, prefix="", class_name="")
            elif isinstance(stmt, ast.ClassDef):
                summary.top_symbols[stmt.name] = ("class", stmt.lineno)
                self._class(stmt)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if target.id == "__all__":
                            summary.all_exports = self._string_list(stmt.value)
                        else:
                            summary.top_symbols.setdefault(
                                target.id, ("assign", stmt.lineno)
                            )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                summary.top_symbols.setdefault(
                    stmt.target.id, ("assign", stmt.lineno)
                )
        refs: set[str] = set()
        attrs: set[str] = set()
        base_attrs: set[tuple[str, str]] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name):
                    base_attrs.add((node.value.id, node.attr))
        summary.name_refs = frozenset(refs)
        summary.attr_refs = frozenset(attrs)
        summary.base_attr_refs = tuple(sorted(base_attrs))
        return summary

    @staticmethod
    def _string_list(node: ast.expr) -> tuple[str, ...]:
        if isinstance(node, (ast.List, ast.Tuple)):
            return tuple(
                e.value
                for e in node.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
        return ()

    def _collect_imports(self, tree: ast.Module) -> None:
        summary = self.summary
        module_level = set(id(s) for s in tree.body)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    summary.import_targets.append((alias.name, node.lineno))
                    bound = alias.asname or alias.name.split(".")[0]
                    dotted = alias.name if alias.asname else alias.name.split(".")[0]
                    entry = ("module", dotted)
                    summary.aliases.setdefault(bound, entry)
                    if id(node) in module_level and alias.asname:
                        summary.top_symbols.setdefault(
                            bound, ("import", node.lineno)
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = _resolve_relative(
                        summary.modpath, node.level, node.module
                    )
                else:
                    base = node.module
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        summary.star_imports = summary.star_imports + (base,)
                        continue
                    summary.import_targets.append(
                        (f"{base}.{alias.name}", node.lineno)
                    )
                    bound = alias.asname or alias.name
                    summary.aliases.setdefault(
                        bound, ("member", base, alias.name)
                    )
                    if id(node) in module_level:
                        summary.top_symbols.setdefault(
                            bound, ("import", node.lineno)
                        )

    def _function(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        prefix: str,
        class_name: str,
    ) -> None:
        qname = f"{prefix}{fn.name}"
        visitor = _FunctionVisitor(fn, qname, class_name)
        self.summary.functions[qname] = visitor.summary
        for stmt in ast.walk(fn):
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt is not fn
                and self._innermost_parent(fn, stmt) is fn
            ):
                self._function(stmt, prefix=f"{qname}.", class_name=class_name)

    @staticmethod
    def _innermost_parent(root: ast.AST, target: ast.AST) -> ast.AST | None:
        """The innermost function/class enclosing *target* inside *root*."""
        parent: ast.AST | None = None

        def walk(node: ast.AST, current: ast.AST) -> None:
            nonlocal parent
            for child in ast.iter_child_nodes(node):
                if child is target:
                    parent = current
                    return
                next_scope = (
                    child
                    if isinstance(
                        child,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    )
                    else current
                )
                walk(child, next_scope)

        walk(root, root)
        return parent

    def _class(self, cls: ast.ClassDef) -> None:
        methods: list[str] = []
        attr_types: dict[str, str] = {}
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
                self._function(stmt, prefix=f"{cls.name}.", class_name=cls.name)
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                        continue
                    target = node.targets[0]
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and isinstance(node.value, ast.Call)
                    ):
                        attr_types.setdefault(
                            target.attr, expr_token(node.value.func)
                        )
        self.summary.classes[cls.name] = ClassSummary(
            name=cls.name,
            lineno=cls.lineno,
            bases=tuple(expr_token(b) for b in cls.bases),
            methods=tuple(methods),
            attr_types=attr_types,
        )


def summarize_module(
    modpath: str, path: str, tree: ast.Module, digest: str
) -> ModuleSummary:
    """Build the serializable summary of one parsed module."""
    return _ModuleVisitor(modpath, path, digest).visit(tree)


# ---------------------------------------------------------------------------
# the program
# ---------------------------------------------------------------------------

#: A function's project-wide id: (modpath, qname).
FunctionId = tuple[str, str]


class Program:
    """The whole-program model rules query (see module docstring)."""

    def __init__(self, modules: Iterable[ModuleSummary]):
        self.modules: dict[str, ModuleSummary] = {
            m.modpath: m for m in sorted(modules, key=lambda m: m.modpath)
        }
        self.by_dotted: dict[str, str] = {}
        for modpath, summary in self.modules.items():
            self.by_dotted.setdefault(summary.module, modpath)
        self._import_graph: dict[str, set[str]] | None = None
        self._reverse_imports: dict[str, set[str]] | None = None
        self._call_edges: dict[FunctionId, set[FunctionId]] | None = None
        self._reverse_calls: dict[FunctionId, set[FunctionId]] | None = None

    # -- lookup ------------------------------------------------------------------

    def module(self, modpath: str) -> ModuleSummary | None:
        return self.modules.get(modpath)

    def function(self, fid: FunctionId) -> FunctionSummary | None:
        summary = self.modules.get(fid[0])
        if summary is None:
            return None
        return summary.functions.get(fid[1])

    def functions(self) -> Iterator[tuple[FunctionId, FunctionSummary]]:
        for modpath in self.modules:
            for qname, fn in sorted(self.modules[modpath].functions.items()):
                yield (modpath, qname), fn

    def resolve_module(self, dotted: str) -> str | None:
        """Project modpath of a dotted module name, if it is ours."""
        return self.by_dotted.get(dotted)

    # -- import graph ------------------------------------------------------------

    @property
    def import_graph(self) -> dict[str, set[str]]:
        """modpath → set of project modpaths it imports."""
        if self._import_graph is None:
            graph: dict[str, set[str]] = {m: set() for m in self.modules}
            for modpath, summary in self.modules.items():
                for dotted, _lineno in summary.import_targets:
                    target = self.by_dotted.get(dotted)
                    if target is None and "." in dotted:
                        # "pkg.mod.symbol" → try the containing module.
                        target = self.by_dotted.get(dotted.rsplit(".", 1)[0])
                    if target is not None and target != modpath:
                        graph[modpath].add(target)
                for dotted in summary.star_imports:
                    target = self.by_dotted.get(dotted)
                    if target is not None and target != modpath:
                        graph[modpath].add(target)
            self._import_graph = graph
        return self._import_graph

    @property
    def reverse_imports(self) -> dict[str, set[str]]:
        if self._reverse_imports is None:
            reverse: dict[str, set[str]] = {m: set() for m in self.modules}
            for modpath, targets in self.import_graph.items():
                for target in targets:
                    reverse[target].add(modpath)
            self._reverse_imports = reverse
        return self._reverse_imports

    def dependency_cone(self, modpaths: Iterable[str]) -> set[str]:
        """*modpaths* plus every module that transitively imports them."""
        cone: set[str] = set()
        frontier = [m for m in modpaths if m in self.modules]
        while frontier:
            modpath = frontier.pop()
            if modpath in cone:
                continue
            cone.add(modpath)
            frontier.extend(self.reverse_imports.get(modpath, ()))
        return cone

    # -- call graph --------------------------------------------------------------

    def _resolve_call(
        self, summary: ModuleSummary, fn: FunctionSummary, site: CallSite
    ) -> FunctionId | None:
        parts = site.callee.split(".")
        # Bare name: local function, imported symbol, or class constructor.
        if len(parts) == 1:
            return self._resolve_name(summary, parts[0])
        head, rest = parts[0], parts[1:]
        if head == "self" and fn.class_name:
            cls = summary.classes.get(fn.class_name)
            if cls is None:
                return None
            if len(rest) == 1:
                return self._resolve_method(summary, fn.class_name, rest[0])
            # self.attr.method — via the inferred attribute type.
            if len(rest) == 2 and rest[0] in cls.attr_types:
                return self._resolve_constructed(
                    summary, cls.attr_types[rest[0]], rest[1]
                )
            return None
        if len(rest) == 1:
            # local = Class(...); local.method(...)
            ctor = fn.local_calls.get(head)
            if ctor is not None:
                resolved = self._resolve_constructed(summary, ctor, rest[0])
                if resolved is not None:
                    return resolved
            # alias.member(...) — module alias call.
            entry = summary.aliases.get(head)
            if entry is not None and entry[0] == "module":
                target = self.by_dotted.get(entry[1])
                if target is not None:
                    return self._resolve_name(self.modules[target], rest[0], local_only=True)
        return None

    def _resolve_name(
        self, summary: ModuleSummary, name: str, local_only: bool = False
    ) -> FunctionId | None:
        if name in summary.functions:
            return (summary.modpath, name)
        if name in summary.classes:
            init = f"{name}.__init__"
            if init in summary.functions:
                return (summary.modpath, init)
            return None
        if local_only:
            return None
        entry = summary.aliases.get(name)
        if entry is not None and entry[0] == "member":
            target = self.by_dotted.get(entry[1])
            if target is not None:
                return self._resolve_name(
                    self.modules[target], entry[2], local_only=False
                )
        return None

    def _resolve_method(
        self, summary: ModuleSummary, class_name: str, method: str
    ) -> FunctionId | None:
        cls = summary.classes.get(class_name)
        if cls is None:
            return None
        qname = f"{class_name}.{method}"
        if qname in summary.functions:
            return (summary.modpath, qname)
        for base in cls.bases:
            base_name = base.split(".")[-1]
            resolved = self._resolve_class(summary, base_name)
            if resolved is None:
                continue
            base_mod, base_cls = resolved
            found = self._resolve_method(self.modules[base_mod], base_cls, method)
            if found is not None:
                return found
        return None

    def _resolve_class(
        self, summary: ModuleSummary, name: str
    ) -> tuple[str, str] | None:
        """(modpath, class name) for a class token seen in *summary*."""
        if name in summary.classes:
            return (summary.modpath, name)
        entry = summary.aliases.get(name)
        if entry is not None and entry[0] == "member":
            target = self.by_dotted.get(entry[1])
            if target is not None and entry[2] in self.modules[target].classes:
                return (target, entry[2])
        return None

    def _resolve_constructed(
        self, summary: ModuleSummary, ctor_token: str, method: str
    ) -> FunctionId | None:
        """Resolve ``<ctor_token> instance>.method`` to a project method."""
        name = ctor_token.split(".")[-1].removesuffix("()")
        resolved = self._resolve_class(summary, name)
        if resolved is None:
            return None
        return self._resolve_method(self.modules[resolved[0]], resolved[1], method)

    @property
    def call_edges(self) -> dict[FunctionId, set[FunctionId]]:
        """Conservatively resolved call graph (sorted, deterministic)."""
        if self._call_edges is None:
            edges: dict[FunctionId, set[FunctionId]] = {}
            for fid, fn in self.functions():
                summary = self.modules[fid[0]]
                out: set[FunctionId] = set()
                for site in fn.calls:
                    resolved = self._resolve_call(summary, fn, site)
                    if resolved is not None:
                        out.add(resolved)
                edges[fid] = out
            self._call_edges = edges
        return self._call_edges

    @property
    def reverse_calls(self) -> dict[FunctionId, set[FunctionId]]:
        if self._reverse_calls is None:
            reverse: dict[FunctionId, set[FunctionId]] = {}
            for caller, callees in self.call_edges.items():
                for callee in callees:
                    reverse.setdefault(callee, set()).add(caller)
            self._reverse_calls = reverse
        return self._reverse_calls

    def resolve_call_site(
        self, modpath: str, fn: FunctionSummary, site: CallSite
    ) -> FunctionId | None:
        """Public per-site resolution (used by rules for argument flow)."""
        summary = self.modules.get(modpath)
        if summary is None:
            return None
        return self._resolve_call(summary, fn, site)

    def transitive_closure(
        self, seeds: Iterable[FunctionId], reverse: bool = False
    ) -> set[FunctionId]:
        """All functions reachable from *seeds* along (reverse) call edges."""
        graph = self.reverse_calls if reverse else self.call_edges
        seen: set[FunctionId] = set()
        frontier = list(seeds)
        while frontier:
            fid = frontier.pop()
            if fid in seen:
                continue
            seen.add(fid)
            frontier.extend(graph.get(fid, ()))
        return seen

    # -- debug export ------------------------------------------------------------

    def graph_dict(self) -> dict:
        """Deterministic nodes/edges export for ``--graph-out``."""
        nodes = [
            {
                "id": f"{fid[0]}::{fid[1]}",
                "module": fid[0],
                "qname": fid[1],
                "lineno": fn.lineno,
            }
            for fid, fn in self.functions()
        ]
        edges = sorted(
            {
                (f"{caller[0]}::{caller[1]}", f"{callee[0]}::{callee[1]}")
                for caller, callees in self.call_edges.items()
                for callee in callees
            }
        )
        imports = sorted(
            (source, target)
            for source, targets in self.import_graph.items()
            for target in targets
        )
        return {
            "functions": nodes,
            "call_edges": [{"caller": c, "callee": e} for c, e in edges],
            "import_edges": [{"importer": s, "imported": t} for s, t in imports],
        }


def build_program(
    summaries: Iterable[ModuleSummary],
) -> Program:
    return Program(summaries)
