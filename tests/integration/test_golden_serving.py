"""Serving-report goldens (tier-1).

Two seeded serving runs are frozen under ``tests/fixtures/golden/``:
``chaos_seed=3``, and ``chaos_seed=7`` with four delta batches and
crash-restart recovery, each with the ``repro serve`` defaults.  The
reports carry every latency draw, hedge, failover, breaker count and
recovery figure, so a change to the router's, the scenario's or
recovery's tuning constants fails here byte for byte.

After an intentional semantics change, regenerate with::

    PYTHONPATH=src python -m tests.support.golden
"""

import io
import json

import pytest

from repro.cli import main

from tests.support import golden

pytestmark = pytest.mark.serving

CLI_FLAGS = {
    "serve_chaos3.json": ["--chaos-seed", "3"],
    "serve_chaos7_batches4_restarts.json": [
        "--chaos-seed", "7", "--batches", "4", "--restarts",
    ],
}


@pytest.mark.parametrize("name", sorted(golden.SERVING_RUNS))
def test_serving_report_matches_fixture_bytes(name):
    report = golden.serving_report(golden.SERVING_RUNS[name])
    with open(golden.fixture_path(name), encoding="utf-8") as stream:
        assert golden.canonical_json(report) == stream.read()


@pytest.mark.parametrize("name", sorted(CLI_FLAGS))
def test_cli_serve_json_data_matches_fixture(name):
    out = io.StringIO()
    assert main(["serve", *CLI_FLAGS[name], "--json"], out=out) == 0
    data = json.loads(out.getvalue())["data"]
    assert golden.canonical_json(data) == golden.canonical_json(
        golden.load_fixture(name)
    )
