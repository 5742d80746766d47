"""The whole-program model: summaries, import graph, call graph."""

import ast
import json
import textwrap

from repro.analysis import build_program, summarize_module
from repro.analysis.program import content_digest, module_dotted


def summarize(modpath, source):
    source = textwrap.dedent(source)
    tree = ast.parse(source)
    return summarize_module(modpath, modpath, tree, content_digest(source.encode()))


def make_program(modules):
    return build_program(summarize(m, src) for m, src in modules.items())


class TestModuleSummary:
    def test_top_symbols_and_kinds(self):
        summary = summarize(
            "repro/core/demo.py",
            """
            import json
            from repro.core.util import helper

            LIMIT = 10

            def public(): ...

            class Thing: ...
            """,
        )
        kinds = {name: kind for name, (kind, _) in summary.top_symbols.items()}
        assert kinds["LIMIT"] == "assign"
        assert kinds["public"] == "function"
        assert kinds["Thing"] == "class"
        assert kinds["helper"] == "import"

    def test_aliases_and_import_targets(self):
        summary = summarize(
            "repro/core/demo.py",
            """
            import repro.obs as obs
            from repro.core.util import helper as h
            """,
        )
        assert summary.aliases["obs"] == ("module", "repro.obs")
        assert summary.aliases["h"] == ("member", "repro.core.util", "helper")
        targets = [t for t, _ in summary.import_targets]
        assert "repro.obs" in targets
        assert "repro.core.util.helper" in targets

    def test_relative_imports_resolve_against_module(self):
        summary = summarize(
            "repro/core/demo.py",
            "from ..obs import Obs\nfrom .util import helper\n",
        )
        targets = [t for t, _ in summary.import_targets]
        assert "repro.obs.Obs" in targets
        assert "repro.core.util.helper" in targets

    def test_function_params_strip_self(self):
        summary = summarize(
            "repro/core/demo.py",
            """
            class Thing:
                def run(self, payload, deadline): ...
            """,
        )
        fn = summary.functions["Thing.run"]
        assert fn.params == ("payload", "deadline")
        assert fn.class_name == "Thing"

    def test_attr_types_track_constructor_calls(self):
        summary = summarize(
            "repro/core/demo.py",
            """
            import random

            class Thing:
                def __init__(self, seed):
                    self._rng = random.Random(seed)
            """,
        )
        cls = summary.classes["Thing"]
        assert cls.attr_types["_rng"] == "random.Random"

    def test_call_site_tokens(self):
        summary = summarize(
            "repro/core/demo.py",
            """
            def run(bus, entity):
                return bus.request("node", {"kind": "q"}, timeout=entity.ttl)
            """,
        )
        (site,) = summary.functions["run"].calls
        assert site.callee == "bus.request"
        assert site.terminal == "request"
        assert site.receiver == "bus"
        assert site.args[0] == "<const>"
        assert site.args[1] == "{}"
        assert site.dict_keys == ("kind",)
        assert site.kwarg("timeout") == "entity.ttl"

    def test_round_trip_through_dict(self):
        summary = summarize(
            "repro/core/demo.py",
            """
            from repro.obs import Obs

            class Thing:
                def run(self, payload):
                    value = self.helper(payload)
                    return value

                def helper(self, payload):
                    return payload
            """,
        )
        clone = type(summary).from_dict(summary.to_dict())
        assert clone.to_dict() == summary.to_dict()

    def test_parse_and_summarize_reads_from_disk(self, tmp_path):
        target = tmp_path / "demo.py"
        target.write_text("def fn(): ...\n", encoding="utf-8")
        raw = target.read_bytes()
        summary = summarize_module(
            "repro/core/demo.py", str(target), ast.parse(raw), content_digest(raw)
        )
        assert summary.modpath == "repro/core/demo.py"
        assert summary.path == str(target)
        assert summary.digest == content_digest(raw)
        assert "fn" in summary.functions

    def test_module_dotted(self):
        assert module_dotted("repro/core/demo.py") == "repro.core.demo"
        assert module_dotted("repro/core/__init__.py") == "repro.core"


class TestProgramGraphs:
    MODULES = {
        "repro/core/util.py": """
            def helper(x):
                return x
            """,
        "repro/core/user.py": """
            from repro.core.util import helper

            class Runner:
                def run(self, x):
                    return self.step(helper(x))

                def step(self, x):
                    return x
            """,
    }

    def test_import_graph_and_dependency_cone(self):
        program = make_program(self.MODULES)
        assert "repro/core/util.py" in program.import_graph["repro/core/user.py"]
        cone = program.dependency_cone(["repro/core/util.py"])
        assert cone == {"repro/core/util.py", "repro/core/user.py"}

    def test_cross_module_and_method_call_edges(self):
        program = make_program(self.MODULES)
        edges = program.call_edges
        runner = ("repro/core/user.py", "Runner.run")
        assert ("repro/core/util.py", "helper") in edges[runner]
        assert ("repro/core/user.py", "Runner.step") in edges[runner]

    def test_transitive_closure_reverse(self):
        program = make_program(self.MODULES)
        helper = ("repro/core/util.py", "helper")
        reached = program.transitive_closure([helper], reverse=True)
        assert ("repro/core/user.py", "Runner.run") in reached

    def test_graph_dict_is_deterministic(self):
        first = make_program(self.MODULES).graph_dict()
        second = make_program(dict(reversed(list(self.MODULES.items())))).graph_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert {e["caller"] for e in first["call_edges"]}
        assert {e["importer"] for e in first["import_edges"]}
