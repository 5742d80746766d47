"""Good/bad fixtures for every interprocedural rule (RES001..DEAD001)."""

import ast
import textwrap
from pathlib import Path

from repro.analysis import (
    DeadSymbolRule,
    DeadlinePropagationRule,
    ResourcePairRule,
    RngFlowRule,
    TraceThreadingRule,
    WalOrderingRule,
    build_linter,
    build_program,
    default_program_rules,
    summarize_module,
)
from repro.analysis.program import content_digest

PLATFORM = Path(__file__).resolve().parents[2] / "src" / "repro" / "platform"


def make_program(modules):
    summaries = []
    for modpath, source in modules.items():
        source = textwrap.dedent(source)
        tree = ast.parse(source)
        summaries.append(
            summarize_module(modpath, modpath, tree, content_digest(source.encode()))
        )
    return build_program(summaries)


def run_rule(rule, modules):
    return list(rule.check(make_program(modules)))


class TestResourcePairRule:
    def test_release_in_finally_is_clean(self):
        findings = run_rule(
            ResourcePairRule(),
            {
                "repro/serving/svc.py": """
                class Service:
                    def handle(self, query):
                        version = self._index.pin()
                        try:
                            return version.search(query)
                        finally:
                            self._index.release(version)
                """
            },
        )
        assert findings == []

    def test_router_release_outside_finally_is_flagged(self):
        # The rule is live where the pin/release pair is: moving the
        # router's release out of its finally is exactly one finding.
        modpath = "repro/platform/serving/router.py"
        source = (PLATFORM / "serving" / "router.py").read_text(encoding="utf-8")
        site = "        finally:\n            self._index.release(version)\n"
        assert source.count(site) == 1
        assert run_rule(ResourcePairRule(), {modpath: source}) == []
        after = "        finally:\n            pass\n        self._index.release(version)\n"
        moved = source.replace(site, after)
        findings = run_rule(ResourcePairRule(), {modpath: moved})
        assert [f.rule for f in findings] == ["RES001"]
        assert "ServingRouter._answer" in findings[0].message

    def test_exception_path_leak_is_flagged(self):
        findings = run_rule(
            ResourcePairRule(),
            {
                "repro/serving/svc.py": """
                class Service:
                    def handle(self, query):
                        version = self._index.pin()
                        result = version.search(query)
                        self._index.release(version)
                        return result
                """
            },
        )
        assert [f.rule for f in findings] == ["RES001"]
        assert "exception paths" in findings[0].message

    def test_branch_without_release_is_flagged(self):
        findings = run_rule(
            ResourcePairRule(),
            {
                "repro/serving/svc.py": """
                class Service:
                    def handle(self, query, fast):
                        version = self._index.pin()
                        if fast:
                            return None
                        try:
                            return version.search(query)
                        finally:
                            self._index.release(version)
                """
            },
        )
        assert [f.rule for f in findings] == ["RES001"]

    def test_handoff_to_releasing_helper_is_clean(self):
        findings = run_rule(
            ResourcePairRule(),
            {
                "repro/serving/svc.py": """
                class Service:
                    def handle(self, query):
                        version = self._index.pin()
                        return self._finish(version)

                    def _finish(self, version):
                        self._index.release(version)
                        return None
                """
            },
        )
        assert findings == []


class TestDeadlinePropagationRule:
    GOOD = {
        "repro/platform/svc.py": """
        class Node:
            def answer_entity(self, payload, deadline):
                return self._fetch(deadline)

            def _fetch(self, deadline):
                return self._bus.request(
                    "node", {"budget": deadline.remaining()}
                )
        """
    }

    def test_threaded_deadline_is_clean(self):
        assert run_rule(DeadlinePropagationRule(), self.GOOD) == []

    def test_payload_without_budget_is_flagged(self):
        findings = run_rule(
            DeadlinePropagationRule(),
            {
                "repro/platform/svc.py": """
                class Node:
                    def answer_entity(self, payload, deadline):
                        return self._fetch(deadline)

                    def _fetch(self, deadline):
                        return self._bus.request("node", {"kind": "q"})
                """
            },
        )
        assert [f.rule for f in findings] == ["SRV001"]
        assert "no remaining budget" in findings[0].message

    def test_router_payload_without_budget_is_flagged(self):
        # The rule is live where the deadline travels: dropping the
        # budget from the router's shard-read payload is one finding.
        modpath = "repro/platform/serving/router.py"
        source = (PLATFORM / "serving" / "router.py").read_text(encoding="utf-8")
        site = '"budget": deadline.remaining,\n'
        assert source.count(site) == 1
        assert run_rule(DeadlinePropagationRule(), {modpath: source}) == []
        findings = run_rule(DeadlinePropagationRule(), {modpath: source.replace(site, "\n")})
        assert [f.rule for f in findings] == ["SRV001"]
        assert "ServingRouter._read_shard" in findings[0].message

    def test_hop_dropping_the_deadline_is_flagged(self):
        findings = run_rule(
            DeadlinePropagationRule(),
            {
                "repro/platform/svc.py": """
                class Node:
                    def answer_entity(self, payload, deadline):
                        return self._fetch()

                    def _fetch(self):
                        return self._bus.request("node", {"budget": 1})
                """
            },
        )
        assert [f.rule for f in findings] == ["SRV001"]
        assert "without passing the deadline" in findings[0].message

    def test_unreachable_bus_read_is_ignored(self):
        # No answer* handler reaches the read; nothing to enforce.
        findings = run_rule(
            DeadlinePropagationRule(),
            {
                "repro/platform/svc.py": """
                class Node:
                    def poll(self):
                        return self._bus.request("node", {"kind": "q"})
                """
            },
        )
        assert findings == []


class TestTraceThreadingRule:
    def test_wrapped_payload_is_clean(self):
        findings = run_rule(
            TraceThreadingRule(),
            {
                "repro/platform/svc.py": """
                from ..obs import with_trace

                class Node:
                    def send(self, bus):
                        msg = with_trace({"kind": "q"})
                        return bus.request("node", msg)
                """
            },
        )
        assert findings == []

    def test_untraced_value_through_helper_is_flagged(self):
        # The per-file OBS003 had to trust the 'payload' parameter; the
        # interprocedural rule sees the caller pass an untraced dict.
        findings = run_rule(
            TraceThreadingRule(),
            {
                "repro/platform/svc.py": """
                class Node:
                    def send(self, bus):
                        return self._post(bus, {"kind": "q"})

                    def _post(self, bus, payload):
                        return bus.request("node", payload)
                """
            },
        )
        assert [f.rule for f in findings] == ["OBS003i"]
        assert "drops the trace context" in findings[0].message

    def test_traced_value_through_helper_is_clean(self):
        findings = run_rule(
            TraceThreadingRule(),
            {
                "repro/platform/svc.py": """
                class Node:
                    def send(self, bus, ctx):
                        return self._post(bus, {"kind": "q", "trace": ctx})

                    def _post(self, bus, payload):
                        return bus.request("node", payload)
                """
            },
        )
        assert findings == []

    def test_span_without_consulting_context_is_flagged(self):
        findings = run_rule(
            TraceThreadingRule(),
            {
                "repro/platform/svc.py": """
                class Node:
                    def handle(self, payload, tracer):
                        with tracer.span("handle"):
                            return payload["kind"]
                """
            },
        )
        assert [f.rule for f in findings] == ["OBS003i"]
        assert "never consults the incoming trace context" in findings[0].message

    def test_consulting_context_via_callee_is_clean(self):
        findings = run_rule(
            TraceThreadingRule(),
            {
                "repro/platform/svc.py": """
                from ..obs import extract_context

                class Node:
                    def handle(self, payload, tracer):
                        span_ctx = self._ctx(payload)
                        with tracer.span("handle"):
                            return span_ctx

                    def _ctx(self, payload):
                        return extract_context(payload)
                """
            },
        )
        assert findings == []


class TestRngFlowRule:
    SHUFFLER = """
    def shuffle_docs(docs, rng):
        rng.shuffle(docs)
        return docs
    """

    def test_rng_crossing_subsystems_is_flagged(self):
        findings = run_rule(
            RngFlowRule(),
            {
                "repro/nlp/shuffler.py": self.SHUFFLER,
                "repro/core/sampler.py": """
                import random

                from repro.nlp.shuffler import shuffle_docs

                def sample(docs):
                    rng = random.Random(7)
                    return shuffle_docs(docs, rng)
                """,
            },
        )
        assert [f.rule for f in findings] == ["DET002i"]
        assert "'core'" in findings[0].message and "'nlp'" in findings[0].message

    def test_rng_staying_in_its_subsystem_is_clean(self):
        findings = run_rule(
            RngFlowRule(),
            {
                "repro/core/shuffler.py": self.SHUFFLER,
                "repro/core/sampler.py": """
                import random

                from repro.core.shuffler import shuffle_docs

                def sample(docs):
                    rng = random.Random(7)
                    return shuffle_docs(docs, rng)
                """,
            },
        )
        assert findings == []

    def test_state_held_rng_crossing_is_flagged(self):
        findings = run_rule(
            RngFlowRule(),
            {
                "repro/nlp/shuffler.py": self.SHUFFLER,
                "repro/core/sampler.py": """
                import random

                from repro.nlp.shuffler import shuffle_docs

                class Sampler:
                    def __init__(self, seed):
                        self._rng = random.Random(seed)

                    def sample(self, docs):
                        return shuffle_docs(docs, self._rng)
                """,
            },
        )
        assert [f.rule for f in findings] == ["DET002i"]


class TestDeadSymbolRule:
    def test_unreferenced_public_function_is_flagged(self):
        findings = run_rule(
            DeadSymbolRule(),
            {
                "repro/core/util.py": """
                def used(x):
                    return x

                def dead(x):
                    return x
                """,
                "repro/core/user.py": """
                from repro.core.util import used

                def main():
                    return used(0)
                """,
            },
        )
        assert [f.rule for f in findings] == ["DEAD001"]
        assert "'dead'" in findings[0].message

    def test_underscore_and_main_are_exempt(self):
        findings = run_rule(
            DeadSymbolRule(),
            {
                "repro/core/util.py": """
                def _private(x):
                    return x

                def main():
                    return 0
                """
            },
        )
        assert findings == []

    def test_shim_reexport_nothing_imports_is_flagged(self):
        findings = run_rule(
            DeadSymbolRule(),
            {
                "repro/core/impl.py": """
                def helper(x):
                    return x

                def main():
                    return helper(0)
                """,
                "repro/platform/shim.py": """
                from ..core.impl import helper

                __all__ = ["helper"]
                """,
            },
        )
        assert [f.rule for f in findings] == ["DEAD001"]
        assert "re-export 'helper'" in findings[0].message

    def test_shim_reexport_with_importer_is_clean(self):
        findings = run_rule(
            DeadSymbolRule(),
            {
                "repro/core/impl.py": """
                def helper(x):
                    return x

                def main():
                    return helper(0)
                """,
                "repro/platform/shim.py": """
                from ..core.impl import helper

                __all__ = ["helper"]
                """,
                "repro/cli.py": """
                from repro.platform.shim import helper

                def main():
                    return helper(0)
                """,
            },
        )
        assert findings == []

    def test_reference_roots_count_as_users(self, tmp_path):
        tests_root = tmp_path / "tests"
        tests_root.mkdir()
        (tests_root / "test_util.py").write_text(
            "from repro.core.util import only_tested\n", encoding="utf-8"
        )
        modules = {
            "repro/core/util.py": """
            def only_tested(x):
                return x
            """
        }
        with_roots = run_rule(
            DeadSymbolRule(reference_roots=(str(tests_root),)), modules
        )
        without_roots = run_rule(DeadSymbolRule(), modules)
        assert with_roots == []
        assert [f.rule for f in without_roots] == ["DEAD001"]

    PACKAGE = {
        "repro/nlp/parser.py": """
        def parse(sentence):
            return sentence
        """,
        "repro/nlp/tokenizer.py": """
        def tokenize(text):
            return text.split()
        """,
        "repro/nlp/__init__.py": """
        from .parser import parse
        from .tokenizer import tokenize

        __all__ = ["parse", "tokenize"]
        """,
    }

    def test_origin_reached_only_through_package_reexport_is_flagged(self):
        findings = run_rule(DeadSymbolRule(), self.PACKAGE)
        dead = sorted((f.path, f.message.split(" is ")[0]) for f in findings)
        assert dead == [
            ("repro/nlp/__init__.py", "public re-export 'parse'"),
            ("repro/nlp/__init__.py", "public re-export 'tokenize'"),
            ("repro/nlp/parser.py", "public function 'parse'"),
            ("repro/nlp/tokenizer.py", "public function 'tokenize'"),
        ]

    def test_unused_init_reexport_is_flagged(self):
        findings = run_rule(
            DeadSymbolRule(),
            {
                "repro/core/impl.py": """
                def helper(x):
                    return x

                def main():
                    return helper(0)
                """,
                "repro/core/__init__.py": """
                from .impl import helper

                __all__ = ["helper"]
                """,
            },
        )
        assert [(f.rule, f.path) for f in findings] == [
            ("DEAD001", "repro/core/__init__.py")
        ]
        assert "re-export 'helper'" in findings[0].message

    def test_use_through_package_keeps_reexport_and_origin(self, tmp_path):
        tests_root = tmp_path / "tests"
        tests_root.mkdir()
        (tests_root / "test_nlp.py").write_text(
            "import repro.nlp as nlp\n\nnlp.tokenize('a b')\n", encoding="utf-8"
        )
        modules = dict(self.PACKAGE)
        modules["repro/cli.py"] = """
        from repro.nlp import parse

        def main():
            return parse("x")
        """
        findings = run_rule(
            DeadSymbolRule(reference_roots=(str(tests_root),)), modules
        )
        assert findings == []
        # Without the test's use, only tokenize and its re-export die.
        findings = run_rule(DeadSymbolRule(), modules)
        assert sorted(f.path for f in findings) == [
            "repro/nlp/__init__.py",
            "repro/nlp/tokenizer.py",
        ]

    def test_submodule_reexport_is_not_a_symbol(self):
        findings = run_rule(
            DeadSymbolRule(),
            {
                "repro/lexicons/verbs.py": "WORDS = ()\n",
                "repro/lexicons/__init__.py": """
                from . import verbs

                __all__ = ["verbs"]
                """,
                "repro/cli.py": """
                from repro.lexicons.verbs import WORDS
                """,
            },
        )
        assert findings == []

    def test_perfbench_import_counts_as_use(self, tmp_path):
        (tmp_path / "lint-suppressions.json").write_text(
            '{"suppressions": []}', encoding="utf-8"
        )
        module = tmp_path / "src" / "repro" / "core" / "util.py"
        module.parent.mkdir(parents=True)
        module.write_text("def only_benched(x):\n    return x\n", encoding="utf-8")
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "workloads.py").write_text(
            "from repro.core.util import only_benched\n", encoding="utf-8"
        )
        linter = build_linter(tmp_path / "lint-suppressions.json", use_cache=False)
        report = linter.lint([tmp_path / "src" / "repro"])
        assert [f for f in report.findings if f.rule == "DEAD001"] == []
        (tmp_path / "perfbench" / "workloads.py").unlink()
        report = linter.lint([tmp_path / "src" / "repro"])
        dead = [f for f in report.findings if f.rule == "DEAD001"]
        assert len(dead) == 1 and "perfbench" in dead[0].message


class TestWalOrderingRule:
    def test_append_before_mutate_is_clean(self):
        findings = run_rule(
            WalOrderingRule(),
            {
                "repro/platform/ingestion.py": """
                class Manager:
                    def ingest(self, batch):
                        if batch:
                            lsn = self._wal.append(batch)
                            for delta in batch:
                                self._store.store(delta.entity)
                        return batch
                """
            },
        )
        assert findings == []

    def test_mutation_before_append_is_flagged(self):
        findings = run_rule(
            WalOrderingRule(),
            {
                "repro/platform/ingestion.py": """
                class Manager:
                    def ingest(self, batch):
                        for delta in batch:
                            self._store.store(delta.entity)
                        self._wal.append(batch)
                """
            },
        )
        assert len(findings) == 1
        assert findings[0].rule == "PLAT004"
        assert "no WAL append has happened yet" in findings[0].message

    def test_append_on_one_branch_only_is_flagged(self):
        # The append must dominate: reaching the mutation through the
        # durable=False arm is an un-logged mutation path.
        findings = run_rule(
            WalOrderingRule(),
            {
                "repro/platform/ingestion.py": """
                class Manager:
                    def ingest(self, batch, durable):
                        if durable:
                            self._wal.append(batch)
                        self._store.store_all(batch)
                """
            },
        )
        assert len(findings) == 1
        assert "store_all" in findings[0].message

    def test_functions_without_wal_appends_are_exempt(self):
        # The offline bootstrap path mutates without a WAL by design;
        # the contract binds only code that participates in logging.
        findings = run_rule(
            WalOrderingRule(),
            {
                "repro/platform/ingestion.py": """
                class Manager:
                    def bootstrap(self, entities):
                        self._store.store_all(entities)
                """
            },
        )
        assert findings == []

    def test_out_of_scope_modules_are_exempt(self):
        findings = run_rule(
            WalOrderingRule(),
            {
                "repro/platform/serving/router.py": """
                def build(batch, wal, store):
                    store.store_all(batch)
                    wal.append(batch)
                """
            },
        )
        assert findings == []

    def test_real_ingest_path_is_clean(self):
        modules = {
            f"repro/platform/{name}": (PLATFORM / name).read_text(encoding="utf-8")
            for name in ("ingestion.py", "segments.py", "wal.py", "serving/loadgen.py")
        }
        assert run_rule(WalOrderingRule(), modules) == []

    def test_swapped_scenario_append_is_flagged(self):
        # The rule is live where the append/apply pair is: apply before
        # append in the scenario's batch loop is exactly one finding.
        source = (PLATFORM / "serving" / "loadgen.py").read_text(encoding="utf-8")
        append = "        lsn = wal.append(batch) if wal is not None else 0\n"
        apply = "        stats = live.apply_batch(batch, lsn=lsn)\n"
        assert source.count(append + apply) == 1
        swapped = source.replace(append + apply, apply + append)
        findings = run_rule(
            WalOrderingRule(), {"repro/platform/serving/loadgen.py": swapped}
        )
        assert [f.rule for f in findings] == ["PLAT004"]
        assert "apply_batch" in findings[0].message


class TestDefaultProgramRules:
    def test_all_six_rules_registered(self):
        ids = [r.rule_id for r in default_program_rules()]
        assert ids == [
            "RES001",
            "SRV001",
            "OBS003i",
            "DET002i",
            "PLAT004",
            "DEAD001",
        ]

    def test_findings_are_deterministically_ordered(self):
        modules = {
            "repro/core/b.py": "def dead_b(x):\n    return x\n",
            "repro/core/a.py": "def dead_a(x):\n    return x\n",
        }
        first = [f.message for f in run_rule(DeadSymbolRule(), modules)]
        second = [
            f.message
            for f in run_rule(
                DeadSymbolRule(), dict(reversed(list(modules.items())))
            )
        ]
        assert first == second == sorted(first)
