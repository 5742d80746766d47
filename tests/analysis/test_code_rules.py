"""Good/bad synthetic fixtures for every AST code rule."""

import ast
import textwrap
from pathlib import Path

from repro.analysis import (
    EnvelopeSchemaRule,
    LayeringRule,
    MetricNameRule,
    SeededRngRule,
    ServingDisciplineRule,
    SpanContextRule,
    VinciHandlerRule,
    WallClockRule,
    default_code_rules,
)

ROUTER = Path(__file__).resolve().parents[2] / "src/repro/platform/serving/router.py"


def run_rule(rule, source, modpath="repro/core/example.py"):
    tree = ast.parse(textwrap.dedent(source))
    return list(rule.check(modpath, modpath, tree))


class TestWallClockRule:
    def test_clean_simclock_usage(self):
        findings = run_rule(
            WallClockRule(),
            """
            from repro.obs.clock import SimClock

            def run(clock: SimClock) -> float:
                return clock.now()
            """,
            modpath="repro/platform/example.py",
        )
        assert findings == []

    def test_flags_time_time(self):
        findings = run_rule(
            WallClockRule(),
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert len(findings) == 1
        assert findings[0].rule == "DET001"
        assert "time.time" in findings[0].message

    def test_flags_perf_counter_import(self):
        findings = run_rule(WallClockRule(), "from time import perf_counter\n")
        assert [f.rule for f in findings] == ["DET001"]

    def test_flags_datetime_now(self):
        findings = run_rule(
            WallClockRule(),
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """,
        )
        assert len(findings) == 1
        assert "datetime.datetime.now" in findings[0].message

    def test_allows_datetime_arithmetic(self):
        findings = run_rule(
            WallClockRule(),
            """
            import datetime

            def plus_day(when: datetime.datetime) -> datetime.datetime:
                return when + datetime.timedelta(days=1)
            """,
        )
        assert findings == []


class TestSeededRngRule:
    def test_clean_seeded_rng(self):
        findings = run_rule(
            SeededRngRule(),
            """
            import random

            def make(seed: int) -> random.Random:
                return random.Random(seed)
            """,
        )
        assert findings == []

    def test_flags_unseeded_random(self):
        findings = run_rule(
            SeededRngRule(),
            """
            import random

            rng = random.Random()
            """,
        )
        assert len(findings) == 1
        assert findings[0].rule == "DET002"
        assert "unseeded" in findings[0].message

    def test_flags_module_level_functions(self):
        findings = run_rule(
            SeededRngRule(),
            """
            import random

            def roll():
                return random.randint(1, 6)
            """,
        )
        assert len(findings) == 1
        assert "random.randint" in findings[0].message

    def test_flags_system_random(self):
        findings = run_rule(
            SeededRngRule(),
            """
            import random

            rng = random.SystemRandom()
            """,
        )
        assert len(findings) == 1
        assert "SystemRandom" in findings[0].message

    def test_flags_from_import_of_functions(self):
        findings = run_rule(SeededRngRule(), "from random import shuffle\n")
        assert len(findings) == 1
        assert "random.shuffle" in findings[0].message

    def test_flags_unseeded_bare_random_class(self):
        findings = run_rule(
            SeededRngRule(),
            """
            from random import Random

            rng = Random()
            ok = Random(42)
            """,
        )
        assert len(findings) == 1
        assert "unseeded" in findings[0].message


class TestLayeringRule:
    def test_downward_import_is_legal(self):
        findings = run_rule(
            LayeringRule(),
            "from ..core import SentimentAnalyzer\n",
            modpath="repro/platform/example.py",
        )
        assert findings == []

    def test_upward_import_is_flagged(self):
        findings = run_rule(
            LayeringRule(),
            "from ..platform import DataStore\n",
            modpath="repro/core/example.py",
        )
        assert len(findings) == 1
        assert findings[0].rule == "ARCH001"
        assert "'core'" in findings[0].message and "'platform'" in findings[0].message

    def test_absolute_upward_import_is_flagged(self):
        findings = run_rule(
            LayeringRule(),
            "import repro.cli\n",
            modpath="repro/eval/example.py",
        )
        assert len(findings) == 1

    def test_peer_package_import_is_flagged(self):
        # corpora and miners share a rank: neither may import the other.
        findings = run_rule(
            LayeringRule(),
            "from ..corpora import ReviewGenerator\n",
            modpath="repro/miners/example.py",
        )
        assert len(findings) == 1

    def test_intra_package_import_is_free(self):
        findings = run_rule(
            LayeringRule(),
            "from .model import Polarity\nfrom . import lexicon\n",
            modpath="repro/core/example.py",
        )
        assert findings == []

    def test_stdlib_imports_ignored(self):
        findings = run_rule(
            LayeringRule(),
            "import json\nfrom collections import Counter\n",
            modpath="repro/core/example.py",
        )
        assert findings == []


class TestSpanContextRule:
    def test_with_statement_is_clean(self):
        findings = run_rule(
            SpanContextRule(),
            """
            def work(tracer):
                with tracer.span("mine.doc"):
                    pass
            """,
        )
        assert findings == []

    def test_bare_span_call_is_flagged(self):
        findings = run_rule(
            SpanContextRule(),
            """
            def work(tracer):
                span = tracer.span("mine.doc")
                span.finish()
            """,
        )
        assert len(findings) == 1
        assert findings[0].rule == "OBS001"

    def test_attribute_tracer_receiver(self):
        findings = run_rule(
            SpanContextRule(),
            """
            def work(self):
                self.obs.tracer.span("mine.doc")
            """,
        )
        assert len(findings) == 1

    def test_unrelated_span_method_ignored(self):
        findings = run_rule(
            SpanContextRule(),
            """
            def work(matcher):
                return matcher.span(0)
            """,
        )
        assert findings == []


class TestMetricNameRule:
    def test_valid_literal_name(self):
        findings = run_rule(
            MetricNameRule(),
            """
            def record(metrics):
                metrics.counter("mine.docs").add(1)
            """,
        )
        assert findings == []

    def test_invalid_literal_name(self):
        findings = run_rule(
            MetricNameRule(),
            """
            def record(metrics):
                metrics.counter("Mine Docs!").add(1)
            """,
        )
        assert len(findings) == 1
        assert findings[0].rule == "OBS002"

    def test_module_constant_resolution(self):
        findings = run_rule(
            MetricNameRule(),
            """
            BAD = "Not-A-Metric"

            def record(registry):
                registry.gauge(BAD).set(1)
            """,
        )
        assert len(findings) == 1
        assert "Not-A-Metric" in findings[0].message

    def test_class_constant_resolution_via_self(self):
        findings = run_rule(
            MetricNameRule(),
            """
            class Worker:
                METRIC = "bad name"

                def record(self):
                    self.metrics.histogram(self.METRIC).observe(1.0)
            """,
        )
        assert len(findings) == 1

    def test_unresolvable_name_is_skipped(self):
        findings = run_rule(
            MetricNameRule(),
            """
            def record(metrics, name):
                metrics.counter(name).add(1)
            """,
        )
        assert findings == []

    def test_non_metric_receiver_ignored(self):
        findings = run_rule(
            MetricNameRule(),
            """
            def tally(votes):
                votes.counter("NOT A METRIC")
            """,
        )
        assert findings == []


class TestVinciHandlerRule:
    MODPATH = "repro/platform/example.py"

    def test_conforming_named_handler(self):
        findings = run_rule(
            VinciHandlerRule(),
            """
            def handle(payload: dict) -> dict:
                return {"ok": True}

            def wire(bus):
                bus.register("svc", handle)
            """,
            modpath=self.MODPATH,
        )
        assert findings == []

    def test_conforming_lambda(self):
        findings = run_rule(
            VinciHandlerRule(),
            """
            def wire(bus, node):
                bus.register("svc", lambda payload: node.status())
            """,
            modpath=self.MODPATH,
        )
        assert findings == []

    def test_two_argument_handler_flagged(self):
        findings = run_rule(
            VinciHandlerRule(),
            """
            def handle(payload, extra):
                return {}

            def wire(bus):
                bus.register("svc", handle)
            """,
            modpath=self.MODPATH,
        )
        assert len(findings) == 1
        assert findings[0].rule == "PLAT001"

    def test_non_dict_return_flagged(self):
        findings = run_rule(
            VinciHandlerRule(),
            """
            def handle(payload):
                return [1, 2]

            def wire(bus):
                bus.register("svc", handle)
            """,
            modpath=self.MODPATH,
        )
        assert len(findings) == 1
        assert "dict envelope" in findings[0].message

    def test_lambda_returning_list_flagged(self):
        findings = run_rule(
            VinciHandlerRule(),
            """
            def wire(bus):
                bus.register("svc", lambda payload: [payload])
            """,
            modpath=self.MODPATH,
        )
        assert len(findings) == 1

    def test_out_of_scope_module_skipped(self):
        rule = VinciHandlerRule()
        assert not rule.applies_to("repro/core/example.py")
        assert rule.applies_to("repro/platform/example.py")
        assert rule.applies_to("repro/cli.py")


def test_default_code_rules_have_unique_ids_and_invariants():
    rules = default_code_rules()
    ids = [r.rule_id for r in rules]
    assert len(ids) == len(set(ids))
    assert len(rules) >= 6
    for rule in rules:
        assert rule.invariant, rule.rule_id


class TestServingDisciplineRule:
    MODPATH = "repro/platform/serving/router.py"

    def test_good_handler_and_bounded_queue(self):
        findings = run_rule(
            ServingDisciplineRule(),
            """
            from collections import deque

            class Node:
                def answer_counts(self, replica, payload, deadline):
                    deadline.check("counts")
                    return {"positive": 1}

            queue = deque(maxlen=32)
            window = deque([1, 2], 64)
            """,
            modpath=self.MODPATH,
        )
        assert findings == []

    def test_handler_without_deadline_parameter_flagged(self):
        findings = run_rule(
            ServingDisciplineRule(),
            """
            def answer_counts(replica, payload):
                return {"positive": 1}
            """,
            modpath=self.MODPATH,
        )
        assert len(findings) == 1
        assert "must accept a 'deadline'" in findings[0].message

    def test_handler_ignoring_its_deadline_flagged(self):
        findings = run_rule(
            ServingDisciplineRule(),
            """
            def answer_search(replica, payload, deadline):
                return {"ids": []}
            """,
            modpath=self.MODPATH,
        )
        assert len(findings) == 1
        assert "never" in findings[0].message

    def test_unbounded_deque_flagged(self):
        findings = run_rule(
            ServingDisciplineRule(),
            """
            from collections import deque

            queue = deque()
            explicit_none = deque(maxlen=None)
            """,
            modpath=self.MODPATH,
        )
        assert len(findings) == 2

    def test_unbounded_queue_flagged(self):
        findings = run_rule(
            ServingDisciplineRule(),
            """
            import queue

            unbounded = queue.Queue()
            zero = queue.Queue(maxsize=0)
            bounded = queue.Queue(maxsize=16)
            """,
            modpath=self.MODPATH,
        )
        assert len(findings) == 2

    def test_dropped_deadline_check_in_router_is_flagged(self):
        # The rule is live where the handlers are: dropping the one
        # deadline check from the router's shard handler is one finding.
        source = ROUTER.read_text(encoding="utf-8")
        site = '        op = payload["op"]\n        deadline.check(op)\n'
        assert source.count(site) == 1
        assert run_rule(ServingDisciplineRule(), source, modpath=self.MODPATH) == []
        mutated = source.replace(site, '        op = payload["op"]\n')
        findings = run_rule(ServingDisciplineRule(), mutated, modpath=self.MODPATH)
        assert [f.rule for f in findings] == ["PLAT002"]
        assert "answer_query" in findings[0].message

    def test_scope_is_the_serving_package(self):
        rule = ServingDisciplineRule()
        assert rule.applies_to("repro/platform/serving/router.py")
        assert not rule.applies_to("repro/platform/vinci.py")
        assert not rule.applies_to("repro/core/example.py")


class TestEnvelopeSchemaRule:
    MODPATH = "repro/platform/services.py"

    def test_clean_constructor_built_envelopes(self):
        findings = run_rule(
            EnvelopeSchemaRule(),
            """
            from repro.platform.api import error_envelope, ok_envelope

            class Service:
                def handle(self, payload):
                    if "q" not in payload:
                        return error_envelope("bad_request", "missing q")
                    return ok_envelope({"ids": []})
            """,
            modpath=self.MODPATH,
        )
        assert findings == []

    def test_raw_envelope_dict_literal_flagged(self):
        findings = run_rule(
            EnvelopeSchemaRule(),
            """
            def respond():
                return {"api_version": "v1", "ok": True, "data": {}}
            """,
            modpath="repro/platform/serving/loadgen.py",
        )
        assert [f.rule for f in findings] == ["PLAT003"]
        assert "raw envelope dict literal" in findings[0].message

    def test_ok_plus_data_shape_is_also_an_envelope_literal(self):
        findings = run_rule(
            EnvelopeSchemaRule(),
            """
            def respond():
                return {"ok": False, "error": {"code": "bad_request"}}
            """,
            modpath="repro/apps/reputation.py",
        )
        assert len(findings) == 1

    def test_plain_data_dicts_are_not_flagged(self):
        findings = run_rule(
            EnvelopeSchemaRule(),
            """
            def payload():
                return {"subject": "NR70", "positive": 2, "negative": 1}
            """,
            modpath="repro/apps/reputation.py",
        )
        assert findings == []

    def test_api_module_itself_is_exempt(self):
        findings = run_rule(
            EnvelopeSchemaRule(),
            """
            def ok_envelope(data):
                return {"api_version": "v1", "ok": True, "data": data}
            """,
            modpath="repro/platform/api.py",
        )
        assert findings == []

    def test_handler_returning_raw_dict_flagged(self):
        findings = run_rule(
            EnvelopeSchemaRule(),
            """
            class Node:
                def answer_counts(self, snapshot, payload, deadline):
                    return dict(positive=1)
            """,
            modpath="repro/platform/serving/router.py",
        )
        assert len(findings) == 1
        assert "answer_counts" in findings[0].message

    def test_handler_through_helper_fixpoint_is_clean(self):
        findings = run_rule(
            EnvelopeSchemaRule(),
            """
            from repro.platform.api import ok_envelope

            def _reply(data):
                return ok_envelope(data)

            class Service:
                def handle(self, payload):
                    return _reply({"rows": []})
            """,
            modpath=self.MODPATH,
        )
        assert findings == []

    def test_bindings_dict_registers_handlers(self):
        findings = run_rule(
            EnvelopeSchemaRule(),
            """
            class Service:
                def counts(self, payload):
                    return [1, 2, 3]

            def register(bus, service):
                bindings = {"sentiment.counts": service.counts}
                for name, handler in bindings.items():
                    bus.register(name, handler)
            """,
            modpath=self.MODPATH,
        )
        assert len(findings) == 1
        assert "counts" in findings[0].message

    def test_handler_modules_only_for_return_discipline(self):
        # Outside the handler modules the return check does not apply
        # (but the dict-literal check still does).
        findings = run_rule(
            EnvelopeSchemaRule(),
            """
            class Node:
                def handle(self, payload):
                    return {"just": "data"}
            """,
            modpath="repro/platform/serving/loadgen.py",
        )
        assert findings == []

    def test_scope_covers_platform_and_apps(self):
        rule = EnvelopeSchemaRule()
        assert rule.applies_to("repro/platform/services.py")
        assert rule.applies_to("repro/platform/serving/router.py")
        assert rule.applies_to("repro/apps/reputation.py")
        assert not rule.applies_to("repro/core/miner.py")

    def test_registered_in_default_rule_set(self):
        assert "PLAT003" in {rule.rule_id for rule in default_code_rules()}
