"""Cluster-run goldens of the Mode A entity miner (tier-1).

Four seeded runs on the simulated cluster are frozen under
``tests/fixtures/golden/``: the reputation app's Figure 4 (masked) and
Figure 5 views with their ``search.query`` totals, at the
``bench_fig45_reporting`` configuration and on the reputation example's
reviews; every stored ``spot`` and ``sentiment`` annotation of
``repro platform --docs 40``; and ``figure1_scaling``'s ingestion counts
and ``(nodes, makespan, speedup)`` series.  Any change to how the
cluster mines entities that shifts what it stores, serves or charges
fails here byte for byte.

After an intentional semantics change, regenerate with::

    PYTHONPATH=src python -m tests.support.golden
"""

import pytest

from tests.support import golden


@pytest.mark.parametrize("name", sorted(golden.CLUSTER_RUNS))
def test_cluster_run_matches_fixture_bytes(name):
    report = golden.CLUSTER_RUNS[name]()
    with open(golden.fixture_path(name), encoding="utf-8") as stream:
        assert golden.canonical_json(report) == stream.read()
