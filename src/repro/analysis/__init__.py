"""Static analysis for the sentiment-mining repro (``repro lint``).

A dependency-free rule engine (stdlib ``ast`` only) enforcing the
invariants the rest of the codebase relies on:

* determinism — no wall-clock reads, all RNGs seeded (DET001/DET002);
* import layering — ``lexicons/nlp/obs → core → miners → platform →
  eval → apps → cli`` stays a DAG (ARCH001);
* observability discipline — spans via context managers, metric names
  matching the registry regex, trace context threaded through every
  platform bus request (OBS001/OBS002, interprocedural OBS003i);
* Vinci handler contract — handlers take and return dict envelopes
  (PLAT001);
* serving discipline — serving handlers accept and consult deadlines,
  serving queues are bounded (PLAT002);
* pattern-DB and lexicon consistency (DATA001–DATA006);
* whole-program invariants over the call graph — pin/release pairing
  (RES001), deadline propagation on handler→bus chains (SRV001), RNG
  stream isolation (DET002i), dead public symbols (DEAD001); see
  :mod:`repro.analysis.program` and :mod:`repro.analysis.program_rules`.

Intended exceptions live in ``lint-suppressions.json`` with a mandatory
one-line justification each; see :mod:`repro.analysis.suppressions`.
"""

from __future__ import annotations

from pathlib import Path

from .cache import CACHE_FILENAME, CACHE_SCHEMA_VERSION
from .code_rules import (
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
from .data_rules import (
    LexiconConflictRule,
    LexiconPosRule,
    NegationOverlapRule,
    PatternDuplicateRule,
    PatternPredicateRule,
    PatternSyntaxRule,
    default_data_rules,
)
from .engine import Linter, LintReport, Rule
from .findings import Finding, Severity
from .program import build_program, summarize_module
from .program_rules import (
    DeadSymbolRule,
    DeadlinePropagationRule,
    ResourcePairRule,
    RngFlowRule,
    TraceThreadingRule,
    WalOrderingRule,
    default_program_rules,
)
from .suppressions import Suppression, SuppressionConfig

#: Conventional name of the suppression config at the repository root.
SUPPRESSIONS_FILENAME = "lint-suppressions.json"


def find_suppression_config(start: str | Path | None = None) -> Path | None:
    """Locate ``lint-suppressions.json`` by walking up from *start*.

    *start* defaults to the current working directory.  Returns ``None``
    when no config exists on the path to the filesystem root.
    """
    here = Path(start) if start is not None else Path.cwd()
    for candidate_dir in (here, *here.parents):
        candidate = candidate_dir / SUPPRESSIONS_FILENAME
        if candidate.is_file():
            return candidate
    return None


def build_linter(
    config_path: str | Path | None = None,
    *,
    cache_path: str | Path | None = None,
    use_cache: bool = True,
) -> Linter:
    """A :class:`Linter` with the full default rule set.

    *config_path* points at a suppression config; when ``None`` the
    conventional file is searched for from the current directory upward.
    The directory holding the config doubles as the project root: the
    incremental cache lives there (``.lint-cache.json``) and its
    ``tests``/``benchmarks``/``examples``/``perfbench`` directories
    become DEAD001's reference roots.  ``use_cache=False`` disables
    reading and writing the cache.
    """
    if config_path is None:
        found = find_suppression_config()
    else:
        found = Path(config_path)
    suppressions = (
        SuppressionConfig.load(str(found)) if found else SuppressionConfig()
    )
    root = found.parent if found is not None else Path.cwd()
    reference_roots = tuple(
        str(root / name)
        for name in ("tests", "benchmarks", "examples", "perfbench")
        if (root / name).is_dir()
    )
    if use_cache and cache_path is None:
        cache_path = root / CACHE_FILENAME
    return Linter(
        code_rules=default_code_rules(),
        data_rules=default_data_rules(),
        program_rules=default_program_rules(reference_roots=reference_roots),
        suppressions=suppressions,
        cache_path=cache_path if use_cache else None,
    )


def all_rules() -> list[Rule]:
    """Every default rule, code rules first — for docs and tests."""
    return [
        *default_code_rules(),
        *default_program_rules(),
        *default_data_rules(),
    ]


__all__ = [
    "CACHE_FILENAME",
    "CACHE_SCHEMA_VERSION",
    "DeadSymbolRule",
    "DeadlinePropagationRule",
    "EnvelopeSchemaRule",
    "Finding",
    "LayeringRule",
    "LexiconConflictRule",
    "LexiconPosRule",
    "LintReport",
    "Linter",
    "MetricNameRule",
    "NegationOverlapRule",
    "PatternDuplicateRule",
    "PatternPredicateRule",
    "PatternSyntaxRule",
    "ResourcePairRule",
    "RngFlowRule",
    "Rule",
    "SUPPRESSIONS_FILENAME",
    "SeededRngRule",
    "ServingDisciplineRule",
    "Severity",
    "SpanContextRule",
    "Suppression",
    "SuppressionConfig",
    "TraceThreadingRule",
    "VinciHandlerRule",
    "WalOrderingRule",
    "WallClockRule",
    "all_rules",
    "build_linter",
    "build_program",
    "default_code_rules",
    "default_data_rules",
    "default_program_rules",
    "find_suppression_config",
    "summarize_module",
]
