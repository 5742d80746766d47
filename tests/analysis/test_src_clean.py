"""Tier-1 gate: the full rule set runs clean over the shipped source.

This is the test the issue's acceptance criteria single out: the whole
``src/repro`` tree must produce zero unsuppressed error findings, and
deliberately introducing a seeded-RNG or layering violation must make
the linter fail.
"""

from pathlib import Path

import repro
from repro.analysis import (
    DeadSymbolRule,
    Linter,
    Severity,
    build_linter,
    default_code_rules,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = Path(repro.__file__).resolve().parent

#: The callers that count for the guard below: everything but tests/.
#: Examples count because they are the documented API and
#: tests/test_examples.py runs them.
NON_TEST_ROOTS = ("benchmarks", "perfbench", "examples")


def lint_src(linter=None):
    linter = linter or build_linter(REPO_ROOT / "lint-suppressions.json")
    return linter.lint([SRC])


class TestSrcIsClean:
    def test_zero_unsuppressed_errors(self):
        report = lint_src()
        errors = report.unsuppressed(Severity.ERROR)
        assert errors == [], "\n" + "\n".join(f.render() for f in errors)

    def test_zero_unsuppressed_warnings(self):
        # Stale suppressions surface as warnings; the config must be live.
        report = lint_src()
        assert report.unsuppressed(Severity.WARNING) == [], report.render()

    def test_every_source_file_was_checked(self):
        report = lint_src()
        expected = len(list(SRC.rglob("*.py")))
        assert report.files_checked == expected
        assert report.files_checked > 80

    def test_intended_exceptions_are_suppressed_not_silenced(self):
        report = lint_src()
        suppressed = report.suppressed()
        assert len(suppressed) == 2
        assert all(f.rule == "DATA005" for f in suppressed)
        assert all(f.suppression_reason for f in suppressed)

    def test_warm_cache_run_reanalyzes_nothing(self):
        lint_src()  # ensure the cache is populated
        report = lint_src()
        assert report.files_reanalyzed == 0
        assert report.files_checked > 80


class TestSrcKeepsOnlyReachedCode:
    """src/ ships no public definition that only tests reach.

    ``repro lint`` counts tests/ as a caller, so a test-only API passes
    it.  This guard runs DEAD001 again over the same program with only
    the non-test roots.  Package re-exports are out of scope: they are
    the packages' import surface, and many are reached only by tests.
    """

    def test_every_public_definition_is_reached_outside_tests(self):
        linter = build_linter(REPO_ROOT / "lint-suppressions.json")
        lint_src(linter)
        rule = DeadSymbolRule(
            reference_roots=tuple(str(REPO_ROOT / root) for root in NON_TEST_ROOTS)
        )
        unreached = [
            finding
            for finding in rule.check(linter.last_program)
            if not finding.message.startswith("public re-export ")
        ]
        assert unreached == [], "\n" + "\n".join(f.render() for f in unreached)


class TestViolationsAreCaught:
    """Deliberate violations in synthetic files must fail the lint."""

    def lint_snippet(self, tmp_path, source, relpath):
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
        linter = Linter(code_rules=default_code_rules())
        return linter.lint([target])

    def test_unseeded_rng_fails_the_lint(self, tmp_path):
        report = self.lint_snippet(
            tmp_path,
            "import random\nrng = random.Random()\n",
            "repro/core/bad_rng.py",
        )
        assert report.exit_code() == 2
        assert [f.rule for f in report.unsuppressed()] == ["DET002"]

    def test_layering_violation_fails_the_lint(self, tmp_path):
        report = self.lint_snippet(
            tmp_path,
            "from repro.platform import DataStore\n",
            "repro/core/bad_layering.py",
        )
        assert report.exit_code() == 2
        assert [f.rule for f in report.unsuppressed()] == ["ARCH001"]

    def test_wall_clock_fails_the_lint(self, tmp_path):
        report = self.lint_snippet(
            tmp_path,
            "import time\nstamp = time.time()\n",
            "repro/obs/bad_clock.py",
        )
        assert report.exit_code() == 2
        assert [f.rule for f in report.unsuppressed()] == ["DET001"]

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        report = self.lint_snippet(
            tmp_path, "def broken(:\n", "repro/core/broken.py"
        )
        assert report.exit_code() == 2
        assert [f.rule for f in report.unsuppressed()] == ["LINT001"]
