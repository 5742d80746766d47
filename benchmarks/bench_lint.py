"""Benchmark: cold vs. warm-cache `repro lint` over the shipped source.

The whole-program pass (import graph, call graph, CFG summaries) made
lint a per-commit tool, so it must stay fast: the content-hash cache
has to turn the expensive half of the run — parsing and per-file rule
checks — into a lookup.  The gate asserts a warm run over an unchanged
tree (a) re-analyzes zero files and (b) takes at most
``MAX_WARM_FRACTION`` of the cold wall time, and that cold and warm
runs produce identical findings.  Results go to ``BENCH_lint.json``
for CI trend tracking.
"""

import os
import time

from conftest import emit, paired_rounds, write_json

from repro.analysis import (
    Linter,
    SuppressionConfig,
    default_code_rules,
    default_program_rules,
)
from repro.eval.reporting import format_table

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(REPO_ROOT, "src", "repro")
CONFIG = os.path.join(REPO_ROOT, "lint-suppressions.json")
OUT_PATH = os.path.join(REPO_ROOT, "BENCH_lint.json")

ROUNDS = 3
#: Warm-cache wall-time budget as a fraction of the cold run.
MAX_WARM_FRACTION = 0.5


def make_linter(cache_path):
    return Linter(
        code_rules=default_code_rules(),
        program_rules=default_program_rules(
            reference_roots=(
                os.path.join(REPO_ROOT, "tests"),
                os.path.join(REPO_ROOT, "benchmarks"),
            )
        ),
        suppressions=SuppressionConfig.load(CONFIG),
        cache_path=cache_path,
    )


def timed_lint(cache_path):
    linter = make_linter(cache_path)
    start = time.perf_counter()
    report = linter.lint([SRC])
    return time.perf_counter() - start, report


def test_bench_lint_warm_cache(tmp_path):
    cache_path = tmp_path / "lint-cache.json"

    def cold_lint():
        cache_path.unlink(missing_ok=True)
        return timed_lint(cache_path)

    rounds = paired_rounds(cold_lint, lambda: timed_lint(cache_path), ROUNDS, warmup=False)
    cold_best, warm_best = rounds.first_best, rounds.second_best
    cold_report, warm_report = rounds.first_result, rounds.second_result

    # The cache must be semantically invisible ...
    assert [f.to_dict() for f in warm_report.findings] == [
        f.to_dict() for f in cold_report.findings
    ]
    assert cold_report.files_checked == warm_report.files_checked > 80
    # ... do all per-file work exactly once ...
    assert cold_report.files_reanalyzed == cold_report.files_checked
    assert warm_report.files_reanalyzed == 0
    # ... and pay for it: warm runs keep only the program/data passes.
    fraction = warm_best / cold_best
    emit(
        format_table(
            ["run", "best seconds", "files re-analyzed"],
            [
                ["cold cache", f"{cold_best:.4f}", str(cold_report.files_reanalyzed)],
                ["warm cache", f"{warm_best:.4f}", str(warm_report.files_reanalyzed)],
                ["warm/cold", f"{fraction:.2f}x", ""],
            ],
            title=f"lint cache: src tree, best of {ROUNDS}",
        )
    )
    assert fraction <= MAX_WARM_FRACTION, (
        f"warm lint took {fraction:.2f}x of the cold run "
        f"(budget {MAX_WARM_FRACTION:.2f}x)"
    )

    write_json(
        OUT_PATH,
        {
            "rounds": ROUNDS,
            "files_checked": cold_report.files_checked,
            "cold_best_seconds": cold_best,
            "warm_best_seconds": warm_best,
            "warm_fraction": fraction,
            "max_warm_fraction": MAX_WARM_FRACTION,
            "cold_files_reanalyzed": cold_report.files_reanalyzed,
            "warm_files_reanalyzed": warm_report.files_reanalyzed,
            "unsuppressed_errors": len(
                [f for f in cold_report.unsuppressed() if int(f.severity) == 2]
            ),
        },
    )
