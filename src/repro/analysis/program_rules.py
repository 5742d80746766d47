"""Interprocedural lint rules over the whole-program model.

Per-file rules (:mod:`repro.analysis.code_rules`) cannot see a deadline
dropped two calls deep or a version pin that escapes through a helper.
These rules query the :class:`~repro.analysis.program.Program` — call
graph, summaries, CFGs — built once per lint run:

* **RES001** paired-resource discipline: every ``pin`` reaches a
  matching ``release`` on all paths out of the function, including the
  paths an exception takes (the acquire's own failure excepted — a
  ``pin`` that raised never pinned).
* **SRV001** deadline-propagation completeness: on every call chain
  from an ``answer*`` handler to a platform bus read, each hop threads
  the remaining deadline and the bus payload carries the budget.
  Upgrades PLAT002 from syntactic to call-graph-based.
* **OBS003i** trace-context threading: bus payloads demonstrably carry
  the trace context, where "demonstrably" now crosses function
  boundaries — a payload parameter is trusted only while every resolved
  caller passes a traced value.  Replaces the per-file OBS003.
* **DET002i** RNG stream isolation: an RNG constructed in one
  subsystem (top-level package) must not flow into another subsystem's
  draw sites — mechanical prep for the named-stream RNGManager item on
  the roadmap (paper §6 requires byte-identical reruns, which named
  per-subsystem streams make robust to reordering).
* **PLAT004** WAL ordering: in ingest-path code, every store/index
  mutation must be dominated by a write-ahead-log append on every CFG
  path — append-before-mutate is what makes crash replay exact
  (DESIGN.md §5j).
* **DEAD001** dead public symbols: module-level functions, classes and
  assignments referenced nowhere in src or the *reference roots*, which
  count as users but are not themselves analyzed.  ``repro lint`` passes
  tests/, benchmarks/, examples/ and perfbench/, so a definition only
  tests reach passes the lint; the tier-1 guard
  (``tests/analysis/test_src_clean.py``) runs the rule again without
  tests/, so every public definition must be reached outside tests.  An
  ``__all__`` re-export is reported when nothing imports through it, and
  it keeps the name it binds alive only while something uses the
  re-export.

All rules yield findings sorted by (path, line, message) so report
order is stable run to run.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from .dataflow import EXIT, EV_CALL, CfgNode, forward_fixpoint
from .engine import ProgramRule
from .findings import Finding, Severity
from .program import (
    CallSite,
    FunctionId,
    FunctionSummary,
    ModuleSummary,
    Program,
)


def _sorted(findings: list[Finding]) -> Iterator[Finding]:
    return iter(sorted(findings, key=lambda f: (f.path, f.line, f.message)))


def _map_args(
    site: CallSite, callee: FunctionSummary
) -> list[tuple[str, str]]:
    """(param name, argument token) pairs for a resolved call site.

    Positional arguments map onto the callee's parameter list (which
    already excludes ``self``/``cls``); keywords map by name.  Starred
    arguments make the mapping approximate, which is acceptable — every
    consumer of this mapping errs toward trusting what it cannot see.
    """
    pairs = list(zip(callee.params, site.args))
    for key, token in site.kwargs:
        if key in callee.params:
            pairs.append((key, token))
    return pairs


# ---------------------------------------------------------------------------
# RES001 — paired-resource discipline
# ---------------------------------------------------------------------------


class ResourcePairRule(ProgramRule):
    """Every ``pin`` reaches a ``release`` on all paths (RES001).

    The serving layer's snapshot discipline (DESIGN.md §5h) hinges on
    :meth:`ReplicatedIndex.pin` / ``release``: a leaked pin blocks
    compaction forever, a leak on the exception path only under chaos.
    For each acquire site the rule walks the function CFG — normal and
    exceptional edges — and reports any path that reaches the function
    exit without a matching release.  A release matches when its
    receiver equals the acquire's receiver (``self._index``), when it
    consumes the pinned value, or when the pinned value is handed to a
    function whose transitive closure releases (or that we cannot
    resolve — unresolvable handoffs are trusted).

    Paths on which the acquire itself raised are exempt: a ``pin`` that
    failed never pinned.
    """

    rule_id = "RES001"
    name = "resource-pairing"
    severity = Severity.ERROR
    invariant = (
        "every pin/acquire reaches a matching release on all paths out of "
        "the acquiring function, including exception paths"
    )

    ACQUIRE = "pin"
    RELEASE = "release"

    def check(self, program: Program) -> Iterator[Finding]:
        findings: list[Finding] = []
        direct = {
            fid
            for fid, fn in program.functions()
            if any(c.terminal == self.RELEASE for c in fn.calls)
        }
        releasers = program.transitive_closure(direct, reverse=True)
        for fid, fn in program.functions():
            if not self.applies_to(fid[0]):
                continue
            if not any(c.terminal == self.ACQUIRE for c in fn.calls):
                continue
            summary = program.modules[fid[0]]
            for index in sorted(self._leaked(program, fid, fn, releasers)):
                site = fn.calls[index]
                held = site.target or site.callee
                findings.append(
                    self.finding(
                        f"{site.callee}() result {held!r} can reach the "
                        f"exit of {fn.qname!r} without a matching "
                        f"{self.RELEASE} (check exception paths; release "
                        "in a finally block)",
                        path=summary.path,
                        line=site.lineno,
                    )
                )
        return _sorted(findings)

    def _leaked(
        self,
        program: Program,
        fid: FunctionId,
        fn: FunctionSummary,
        releasers: set[FunctionId],
    ) -> frozenset:
        """Call indices of acquires that may still be held at EXIT.

        A forward may-analysis over the function CFG: a fact is the call
        index of an acquire still held.  The exceptional out-set omits
        the node's own acquires — an acquire that raised never acquired
        — which is exactly the asymmetry
        :func:`~repro.analysis.dataflow.forward_fixpoint` models.
        """

        def transfer(node: CfgNode, facts: frozenset) -> tuple:
            held = set(facts)
            for event in node.events:
                if event[0] != EV_CALL:
                    continue
                site = fn.calls[event[1]]
                for acquired in list(held):
                    if self._releases(
                        program, fid, fn, site, fn.calls[acquired], releasers
                    ):
                        held.discard(acquired)
            out_exc = frozenset(held)
            for event in node.events:
                if event[0] == EV_CALL and fn.calls[event[1]].terminal == self.ACQUIRE:
                    held.add(event[1])
            return frozenset(held), out_exc

        in_facts = forward_fixpoint(fn.cfg, transfer)
        return in_facts[EXIT]

    def _releases(
        self,
        program: Program,
        fid: FunctionId,
        fn: FunctionSummary,
        site: CallSite,
        acquire: CallSite,
        releasers: set[FunctionId],
    ) -> bool:
        if site.terminal == self.RELEASE:
            if acquire.receiver and site.receiver == acquire.receiver:
                return True
            if acquire.target and acquire.target in site.mentions:
                return True
            return False
        if acquire.target and acquire.target in site.args:
            # Pinned value handed to another function: trust it when
            # unresolvable, require a releasing closure otherwise.
            resolved = program.resolve_call_site(fid[0], fn, site)
            return resolved is None or resolved in releasers
        return False


# ---------------------------------------------------------------------------
# SRV001 — deadline-propagation completeness
# ---------------------------------------------------------------------------


class DeadlinePropagationRule(ProgramRule):
    """Handler→bus call chains thread the deadline (SRV001).

    PLAT002 checks each serving handler *accepts* a deadline; this rule
    checks the deadline actually *travels*: starting from every
    ``answer*`` handler, walk the call graph to each platform bus read
    and require (a) the bus payload to carry the remaining budget and
    (b) every intermediate call into a bus-reaching function to pass a
    deadline.  Tail-latency containment under chaos (DESIGN.md §5g) is
    exactly as strong as the weakest hop.
    """

    rule_id = "SRV001"
    name = "deadline-propagation"
    severity = Severity.ERROR
    invariant = (
        "every call chain from an answer* handler to a platform bus read "
        "threads the remaining deadline, and the bus payload carries the "
        "budget"
    )
    scope = ("repro/platform/*",)

    DEADLINE_TOKENS = frozenset({"deadline", "budget", "remaining"})
    PAYLOAD_KEYS = frozenset({"budget", "deadline"})

    @staticmethod
    def _is_bus_read(site: CallSite) -> bool:
        return site.terminal == "request" and "bus" in site.receiver.lower()

    def check(self, program: Program) -> Iterator[Finding]:
        findings: list[Finding] = []
        direct = {
            fid
            for fid, fn in program.functions()
            if any(self._is_bus_read(c) for c in fn.calls)
        }
        bus_reach = program.transitive_closure(direct, reverse=True)
        seeds = [
            fid
            for fid, fn in program.functions()
            if fn.name.lstrip("_").startswith("answer")
            and self.applies_to(fid[0])
        ]
        live = program.transitive_closure(seeds)
        for fid in sorted(live & bus_reach):
            fn = program.function(fid)
            if fn is None or not self.applies_to(fid[0]):
                continue
            summary = program.modules[fid[0]]
            for site in fn.calls:
                if self._is_bus_read(site):
                    if not (
                        set(site.dict_keys) & self.PAYLOAD_KEYS
                        or set(site.mentions) & self.DEADLINE_TOKENS
                    ):
                        findings.append(
                            self.finding(
                                f"bus read in {fn.qname!r} is reachable from "
                                "an answer* handler but its payload carries "
                                "no remaining budget (add a 'budget' key "
                                "from deadline.remaining)",
                                path=summary.path,
                                line=site.lineno,
                            )
                        )
                    continue
                resolved = program.resolve_call_site(fid[0], fn, site)
                if resolved is None or resolved not in bus_reach:
                    continue
                if not (
                    set(site.mentions) & self.DEADLINE_TOKENS
                    or any(
                        key in self.DEADLINE_TOKENS for key, _ in site.kwargs
                    )
                ):
                    callee = program.function(resolved)
                    findings.append(
                        self.finding(
                            f"{fn.qname!r} calls {callee.qname!r} (which "
                            "reaches a bus read) without passing the "
                            "deadline; the remaining budget is lost on "
                            "this hop",
                            path=summary.path,
                            line=site.lineno,
                        )
                    )
        return _sorted(findings)


# ---------------------------------------------------------------------------
# OBS003i — interprocedural trace-context threading
# ---------------------------------------------------------------------------


class TraceThreadingRule(ProgramRule):
    """Bus payloads carry trace context, across function boundaries.

    Replaces the per-file OBS003 heuristic, which had to *assume* any
    payload parameter was traced.  Here a parameter starts trusted and
    loses that trust if any resolved caller passes a value that is not
    demonstrably traced (greatest-fixpoint over the call graph);
    unresolvable callers keep the trust, so precision only ever adds
    findings the per-file rule provably missed.

    The companion check — envelope handlers that open tracer spans must
    consult the incoming context — also goes interprocedural: a helper
    that calls ``extract_context`` two frames down now counts.
    """

    rule_id = "OBS003i"
    name = "obs-trace-threading"
    severity = Severity.ERROR
    invariant = (
        "every platform bus request payload demonstrably carries the trace "
        "context along every resolved call chain, and span-opening envelope "
        "handlers consult the incoming context"
    )
    scope = ("repro/platform/*",)

    TRACE_WRAPPERS = frozenset({"with_trace"})
    TRACE_KEY = "trace"
    CONSULT_MARKERS = frozenset({"extract_context", "current_context"})
    CONTEXT_PARAMS = frozenset({"trace_id", "ctx", "parent"})

    @staticmethod
    def _is_bus_request(site: CallSite) -> bool:
        return site.terminal == "request" and "bus" in site.receiver.lower()

    @staticmethod
    def _payload_token(site: CallSite) -> str | None:
        if len(site.args) >= 2:
            return site.args[1]
        return site.kwarg("payload")

    def _traced_locals(self, fn: FunctionSummary) -> set[str]:
        traced = {
            name
            for name, callee in fn.local_calls.items()
            if callee.rsplit(".", 1)[-1] in self.TRACE_WRAPPERS
        }
        traced |= {
            name
            for name, keys in fn.dict_assigns.items()
            if self.TRACE_KEY in keys
        }
        assigns = [
            (event[1], event[2])
            for node in fn.cfg.nodes
            for event in node.events
            if event[0] == "assign"
        ]
        changed = True
        while changed:
            changed = False
            for target, source in assigns:
                if target not in traced and source in traced:
                    traced.add(target)
                    changed = True
        return traced

    def _expr_traced(
        self,
        fid: FunctionId,
        fn: FunctionSummary,
        token: str,
        dict_keys: tuple[str, ...],
        traced_params: dict[tuple[FunctionId, str], bool],
        traced_locals: set[str],
    ) -> bool:
        if token.endswith("()"):
            return token[:-2].rsplit(".", 1)[-1] in self.TRACE_WRAPPERS
        if token == "{}":
            return self.TRACE_KEY in dict_keys
        base = token.split(".", 1)[0]
        if base == "self":
            return True  # state-held payloads are the owner's business
        if "." in token:
            return False
        if token in traced_locals:
            return True
        if token in fn.params:
            return traced_params.get((fid, token), True)
        return False

    def _solve_params(
        self, program: Program
    ) -> dict[tuple[FunctionId, str], bool]:
        """Greatest fixpoint: which parameters always receive traced values."""
        traced: dict[tuple[FunctionId, str], bool] = {}
        locals_cache = {
            fid: self._traced_locals(fn) for fid, fn in program.functions()
        }
        changed = True
        while changed:
            changed = False
            for fid, fn in program.functions():
                for site in fn.calls:
                    resolved = program.resolve_call_site(fid[0], fn, site)
                    if resolved is None:
                        continue
                    callee = program.function(resolved)
                    for pname, token in _map_args(site, callee):
                        key = (resolved, pname)
                        if traced.get(key, True) and not self._expr_traced(
                            fid,
                            fn,
                            token,
                            site.dict_keys,
                            traced,
                            locals_cache[fid],
                        ):
                            traced[key] = False
                            changed = True
        return traced

    def check(self, program: Program) -> Iterator[Finding]:
        findings: list[Finding] = []
        traced_params = self._solve_params(program)
        consult_direct = set()
        for fid, fn in program.functions():
            if fn.mentions & self.CONSULT_MARKERS:
                consult_direct.add(fid)
            elif any(c.terminal in self.TRACE_WRAPPERS for c in fn.calls):
                consult_direct.add(fid)
        consulters = program.transitive_closure(consult_direct, reverse=True)
        for fid, fn in program.functions():
            if not self.applies_to(fid[0]):
                continue
            summary = program.modules[fid[0]]
            traced_locals = self._traced_locals(fn)
            for site in fn.calls:
                if not self._is_bus_request(site):
                    continue
                token = self._payload_token(site)
                if token is None:
                    continue
                if not self._expr_traced(
                    fid, fn, token, site.dict_keys, traced_params, traced_locals
                ):
                    findings.append(
                        self.finding(
                            f"bus request payload in {fn.qname!r} drops the "
                            "trace context on some call chain: wrap it with "
                            "repro.obs.with_trace(...) (or carry an explicit "
                            "'trace' key) so the cross-node span tree stays "
                            "connected",
                            path=summary.path,
                            line=site.lineno,
                        )
                    )
            findings.extend(
                self._envelope_span_findings(fid, fn, summary, consulters)
            )
        return _sorted(findings)

    def _envelope_span_findings(
        self,
        fid: FunctionId,
        fn: FunctionSummary,
        summary: ModuleSummary,
        consulters: set[FunctionId],
    ) -> Iterator[Finding]:
        if not set(fn.params) & {"payload", "envelope"}:
            return
        if set(fn.params) & self.CONTEXT_PARAMS:
            return
        span_sites = [
            c
            for c in fn.calls
            if c.terminal == "span" and "tracer" in c.receiver.lower()
        ]
        if not span_sites:
            return
        if any(c.kwarg("parent") is not None for c in span_sites):
            return
        if fid in consulters:
            return
        yield self.finding(
            f"{fn.name!r} takes an envelope payload and opens spans but "
            "never consults the incoming trace context (extract_context "
            "or span(parent=...), directly or via a callee); its subtree "
            "disconnects from the caller's trace",
            path=summary.path,
            line=fn.lineno,
        )


# ---------------------------------------------------------------------------
# DET002i — RNG stream isolation across subsystems
# ---------------------------------------------------------------------------


class RngFlowRule(ProgramRule):
    """An RNG built in one subsystem must not cross into another (DET002i).

    Byte-identical reruns (paper §6; DESIGN.md §2) survive refactors
    only while each subsystem's draw order is locally determined.  An
    ``random.Random`` instance constructed in package A and handed into
    package B couples B's draw sequence to A's call order — exactly the
    coupling the roadmap's named-stream RNGManager will forbid.  The
    rule tracks RNG origins through the call graph and reports every
    call edge where an RNG value crosses a top-level package boundary.
    """

    rule_id = "DET002i"
    name = "rng-stream-isolation"
    severity = Severity.WARNING
    invariant = (
        "RNG instances do not flow across top-level subsystem boundaries; "
        "each subsystem draws from its own (named) stream"
    )

    RNG_CTORS = frozenset({"Random", "SystemRandom"})

    def _local_origins(
        self, fn: FunctionSummary, package: str
    ) -> dict[str, frozenset[str]]:
        return {
            name: frozenset({package})
            for name, callee in fn.local_calls.items()
            if callee.rsplit(".", 1)[-1] in self.RNG_CTORS
        }

    def _token_origins(
        self,
        token: str,
        fid: FunctionId,
        fn: FunctionSummary,
        summary: ModuleSummary,
        param_origins: dict[tuple[FunctionId, str], frozenset[str]],
        local_origins: dict[str, frozenset[str]],
    ) -> frozenset[str]:
        if token.endswith("()"):
            name = token[:-2].rsplit(".", 1)[-1]
            if name in self.RNG_CTORS:
                return frozenset({summary.package})
            return frozenset()
        if token.startswith("self.") and fn.class_name:
            cls = summary.classes.get(fn.class_name)
            attr = token.split(".", 1)[1]
            if cls is not None and "." not in attr:
                ctor = cls.attr_types.get(attr, "")
                if ctor.rsplit(".", 1)[-1] in self.RNG_CTORS:
                    return frozenset({summary.package})
            return frozenset()
        if "." in token:
            return frozenset()
        origins = local_origins.get(token, frozenset())
        if token in fn.params:
            origins |= param_origins.get((fid, token), frozenset())
        return origins

    def check(self, program: Program) -> Iterator[Finding]:
        findings: list[Finding] = []
        param_origins: dict[tuple[FunctionId, str], frozenset[str]] = {}
        local_cache = {
            fid: self._local_origins(fn, program.modules[fid[0]].package)
            for fid, fn in program.functions()
        }
        changed = True
        while changed:
            changed = False
            for fid, fn in program.functions():
                summary = program.modules[fid[0]]
                for site in fn.calls:
                    resolved = program.resolve_call_site(fid[0], fn, site)
                    if resolved is None:
                        continue
                    callee = program.function(resolved)
                    for pname, token in _map_args(site, callee):
                        origins = self._token_origins(
                            token,
                            fid,
                            fn,
                            summary,
                            param_origins,
                            local_cache[fid],
                        )
                        if not origins:
                            continue
                        key = (resolved, pname)
                        merged = param_origins.get(key, frozenset()) | origins
                        if merged != param_origins.get(key, frozenset()):
                            param_origins[key] = merged
                            changed = True
        for fid, fn in program.functions():
            if not self.applies_to(fid[0]):
                continue
            summary = program.modules[fid[0]]
            for site in fn.calls:
                resolved = program.resolve_call_site(fid[0], fn, site)
                if resolved is None:
                    continue
                callee_pkg = program.modules[resolved[0]].package
                if not callee_pkg:
                    continue
                callee = program.function(resolved)
                for pname, token in _map_args(site, callee):
                    origins = self._token_origins(
                        token,
                        fid,
                        fn,
                        summary,
                        param_origins,
                        local_cache[fid],
                    )
                    for origin in sorted(origins):
                        if origin and origin != callee_pkg:
                            findings.append(
                                self.finding(
                                    f"RNG created in subsystem {origin!r} "
                                    f"crosses into {callee_pkg!r} via "
                                    f"{callee.qname!r} parameter {pname!r}; "
                                    "draw order now couples the two "
                                    "subsystems (roadmap: named RNG streams)",
                                    path=summary.path,
                                    line=site.lineno,
                                )
                            )
        return _sorted(findings)


# ---------------------------------------------------------------------------
# PLAT004 — WAL append dominates index mutation
# ---------------------------------------------------------------------------


class WalOrderingRule(ProgramRule):
    """WAL append dominates every index mutation in ingest code (PLAT004).

    The durability contract (DESIGN.md §5j) is *append-before-mutate*: a
    batch must be in the write-ahead log before any store or index
    mutation it causes, so a crash mid-batch can always be replayed.
    For every ingest-path function that appends to a WAL, the rule
    demands the append **dominate** each mutation — happen on *every*
    CFG path leading to it, not just the happy one.

    Must-dominance rides the shared may-solver via its complement: the
    tracked fact is ``bare`` ("no append has happened yet"), seeded at
    entry and cleared by an append's *normal* out-edge only — an append
    that raised may never have logged, the same asymmetry RES001 uses
    for acquires.  Union-join then means a mutation node keeps ``bare``
    if *any* path reaches it un-logged, which is exactly the violation.
    """

    rule_id = "PLAT004"
    name = "wal-ordering"
    severity = Severity.ERROR
    invariant = (
        "in ingest-path code, every store/index mutation is dominated by a "
        "write-ahead-log append on every CFG path (append-before-mutate)"
    )
    #: The ingest-path modules plus ``serving/loadgen.py``, where the one
    #: live append/apply pair sits (``_apply_batches``).  Only functions
    #: that append are checked, so the scenario's offline bootstrap in
    #: ``build_scenario`` and the cli layer, which predate the WAL by
    #: design, stay out of it.
    scope = (
        "repro/platform/ingestion.py",
        "repro/platform/segments.py",
        "repro/platform/wal.py",
        "repro/platform/serving/loadgen.py",
    )

    BARE = "bare"
    MUTATORS = frozenset(
        {
            "store",
            "store_all",
            "delete",
            "absorb",
            "apply_batch",
            "index_batch",
            "add_entity",
            "add_entities",
            "add_judgment",
            "add_judgments",
        }
    )
    MUTABLE_RECEIVERS = ("store", "index", "live", "shard")

    @staticmethod
    def _is_append(site: CallSite) -> bool:
        return site.terminal == "append" and "wal" in site.receiver.lower()

    def _is_mutation(self, site: CallSite) -> bool:
        if site.terminal not in self.MUTATORS:
            return False
        receiver = site.receiver.lower()
        return any(token in receiver for token in self.MUTABLE_RECEIVERS)

    def check(self, program: Program) -> Iterator[Finding]:
        findings: list[Finding] = []
        for fid, fn in program.functions():
            if not self.applies_to(fid[0]):
                continue
            if not any(self._is_append(c) for c in fn.calls):
                continue
            summary = program.modules[fid[0]]
            for index in sorted(self._undominated(fn)):
                site = fn.calls[index]
                findings.append(
                    self.finding(
                        f"{site.callee}() in {fn.qname!r} mutates the "
                        "store/index on a CFG path where no WAL append has "
                        "happened yet; append the batch to the write-ahead "
                        "log before touching the index "
                        "(append-before-mutate)",
                        path=summary.path,
                        line=site.lineno,
                    )
                )
        return _sorted(findings)

    def _undominated(self, fn: FunctionSummary) -> set[int]:
        """Call indices of mutations some un-logged path can reach."""

        def transfer(node: CfgNode, facts: frozenset) -> tuple:
            # Exceptional exit keeps the in-facts: an append that raised
            # may never have reached the log.
            bare = set(facts)
            for event in node.events:
                if event[0] == EV_CALL and self._is_append(fn.calls[event[1]]):
                    bare.discard(self.BARE)
            return frozenset(bare), facts

        in_facts = forward_fixpoint(
            fn.cfg, transfer, init=frozenset({self.BARE})
        )
        flagged: set[int] = set()
        for idx, node in enumerate(fn.cfg.nodes):
            bare = self.BARE in in_facts[idx]
            for event in node.events:
                if event[0] != EV_CALL:
                    continue
                site = fn.calls[event[1]]
                if self._is_append(site):
                    bare = False
                elif bare and self._is_mutation(site):
                    flagged.add(event[1])
        return flagged


# ---------------------------------------------------------------------------
# DEAD001 — dead public symbols
# ---------------------------------------------------------------------------


class DeadSymbolRule(ProgramRule):
    """Module-level symbols nothing references anywhere (DEAD001).

    "Anywhere" means the analyzed program plus the *reference roots* —
    files that are scanned for imports and attribute accesses but not
    themselves analyzed.  The rule holds at two tiers.  ``repro lint``
    passes tests/, benchmarks/, examples/ and perfbench/, so there a
    test-only API is alive and only a symbol reached nowhere is dead.
    The tier-1 guard (``tests/analysis/test_src_clean.py``) passes
    benchmarks/, examples/ and perfbench/ alone and fails on any public
    definition it reports, so a definition only tests reach is dead
    there; package re-exports stay out of that tier, being the
    packages' import surface.  A *re-export* is an import binding the
    module lists in ``__all__``: it is not itself a use of the name it
    binds, but every use of the re-export is (``repro.nlp.X`` keeps
    ``repro/nlp/<module>.X`` alive), so a package ``__init__`` cannot
    keep a name alive by re-exporting it.  Import bindings are reported
    only when re-exported, and never when they bind a module (a
    submodule is reached by its own dotted name); underscore names,
    dunders, ``main`` and ``__main__`` files are exempt.
    """

    rule_id = "DEAD001"
    name = "dead-symbols"
    severity = Severity.WARNING
    invariant = (
        "every public module-level symbol is reached somewhere in the "
        "project (src, tests, benchmarks, examples, or perfbench); the "
        "tier-1 guard also requires every public definition to be reached "
        "outside tests (src, benchmarks, examples, or perfbench)"
    )

    def __init__(self, reference_roots: tuple[str, ...] = ()):
        self.reference_roots = tuple(str(r) for r in reference_roots)

    EXEMPT_NAMES = frozenset({"main"})
    EXEMPT_FILES = ("__main__.py",)

    def check(self, program: Program) -> Iterator[Finding]:
        origins, reexport_targets = self._reexports(program)
        used: set[tuple[str, str]] = set()
        for summary in program.modules.values():
            skip = reexport_targets.get(summary.modpath, set())
            self._mark_source(
                program,
                used,
                imports=[t for t, _ in summary.import_targets if t not in skip],
                stars=summary.star_imports,
                base_attrs=summary.base_attr_refs,
                aliases=summary.aliases,
            )
            # Internal references within the defining module.
            for name in summary.name_refs & set(summary.top_symbols):
                used.add((summary.modpath, name))
        for scan in self._scan_reference_roots():
            self._mark_source(program, used, **scan)
        # A use of a re-export is a use of what it binds, transitively.
        pending = [key for key in used if key in origins]
        while pending:
            origin = origins[pending.pop()]
            if origin not in used:
                used.add(origin)
                if origin in origins:
                    pending.append(origin)
        scope = ", ".join(["src", *(Path(r).name for r in self.reference_roots)])
        findings: list[Finding] = []
        for modpath, summary in program.modules.items():
            if not self.applies_to(modpath):
                continue
            if modpath.endswith(self.EXEMPT_FILES):
                continue
            for name, (kind, lineno) in sorted(summary.top_symbols.items()):
                if name.startswith("_") or name in self.EXEMPT_NAMES:
                    continue
                if kind == "import" and (
                    name not in summary.all_exports
                    or self._binds_module(program, summary.aliases.get(name))
                ):
                    continue
                if (modpath, name) in used:
                    continue
                what = "re-export" if kind == "import" else kind
                findings.append(
                    self.finding(
                        f"public {what} {name!r} is referenced nowhere in "
                        f"the project ({scope}); delete it or add the "
                        "missing consumer",
                        path=summary.path,
                        line=lineno,
                    )
                )
        return _sorted(findings)

    @staticmethod
    def _binds_module(program: Program, entry: tuple[str, ...] | None) -> bool:
        """Whether an import binding names a module, not a symbol."""
        if entry is None or entry[0] == "module":
            return True
        return program.resolve_module(f"{entry[1]}.{entry[2]}") is not None

    @staticmethod
    def _reexports(
        program: Program,
    ) -> tuple[dict[tuple[str, str], tuple[str, str]], dict[str, set[str]]]:
        """Each re-export's origin symbol, and each module's re-export
        import targets (which therefore do not count as uses)."""
        origins: dict[tuple[str, str], tuple[str, str]] = {}
        targets: dict[str, set[str]] = {}
        for modpath, summary in program.modules.items():
            for name in summary.all_exports:
                entry = summary.aliases.get(name)
                if (
                    summary.top_symbols.get(name, ("",))[0] != "import"
                    or entry is None
                    or entry[0] != "member"
                ):
                    continue
                targets.setdefault(modpath, set()).add(f"{entry[1]}.{entry[2]}")
                source = program.resolve_module(entry[1])
                if (
                    source is not None
                    and entry[2] in program.modules[source].top_symbols
                ):
                    origins[(modpath, name)] = (source, entry[2])
        return origins, targets

    def _mark_source(
        self,
        program: Program,
        used: set[tuple[str, str]],
        imports: list[str],
        stars: tuple[str, ...],
        base_attrs: tuple[tuple[str, str], ...],
        aliases: dict[str, tuple[str, ...]],
    ) -> None:
        for dotted in imports:
            if program.resolve_module(dotted) is not None:
                continue  # plain module import, no symbol named
            if "." not in dotted:
                continue
            base, member = dotted.rsplit(".", 1)
            target = program.resolve_module(base)
            if target is None:
                continue
            if member in program.modules[target].top_symbols:
                used.add((target, member))
        for dotted in stars:
            target = program.resolve_module(dotted)
            if target is not None:
                for name in program.modules[target].top_symbols:
                    used.add((target, name))
        for base, attr in base_attrs:
            entry = aliases.get(base)
            if entry is None:
                continue
            if entry[0] == "module":
                target = program.resolve_module(entry[1])
            else:
                target = program.resolve_module(f"{entry[1]}.{entry[2]}")
            if target is not None:
                used.add((target, attr))

    def _scan_reference_roots(self) -> Iterator[dict]:
        for root in sorted(self.reference_roots):
            root_path = Path(root)
            if not root_path.is_dir():
                continue
            for path in sorted(root_path.rglob("*.py")):
                try:
                    tree = ast.parse(
                        path.read_text(encoding="utf-8"), filename=str(path)
                    )
                except (OSError, SyntaxError):
                    continue
                yield self._scan_tree(tree)

    @staticmethod
    def _scan_tree(tree: ast.Module) -> dict:
        imports: list[str] = []
        stars: list[str] = []
        aliases: dict[str, tuple[str, ...]] = {}
        base_attrs: set[tuple[str, str]] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports.append(alias.name)
                    bound = alias.asname or alias.name.split(".")[0]
                    dotted = alias.name if alias.asname else alias.name.split(".")[0]
                    aliases.setdefault(bound, ("module", dotted))
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        stars.append(node.module)
                        continue
                    imports.append(f"{node.module}.{alias.name}")
                    bound = alias.asname or alias.name
                    aliases.setdefault(
                        bound, ("member", node.module, alias.name)
                    )
            elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                base_attrs.add((node.value.id, node.attr))
        return {
            "imports": imports,
            "stars": tuple(stars),
            "base_attrs": tuple(sorted(base_attrs)),
            "aliases": aliases,
        }


def default_program_rules(
    reference_roots: tuple[str, ...] = ()
) -> list[ProgramRule]:
    """The full interprocedural rule set, in report order."""
    return [
        ResourcePairRule(),
        DeadlinePropagationRule(),
        TraceThreadingRule(),
        RngFlowRule(),
        WalOrderingRule(),
        DeadSymbolRule(reference_roots=reference_roots),
    ]
