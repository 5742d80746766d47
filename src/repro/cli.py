"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze``     target-level sentiment analysis of text from the
                command line or stdin;
``experiment``  run one of the paper's table/figure reproductions;
``lexicon``     dump the sentiment lexicon in the paper's file format;
``patterns``    list the sentiment pattern database;
``mine``        mine a synthetic domain corpus and print a summary;
``platform``    run the simulated cluster over a synthetic corpus,
                optionally under a seeded chaos fault plan
                (``--chaos-seed``); ``--json`` for machine-readable
                output;
``health``      drive the serving layer and render one ops health
                snapshot: shards, breakers, segments, compaction
                backlog, memo hit rates, stage latency histograms with
                exemplar traces, and SLO burn rates (``--json`` for a
                machine-readable v1 envelope);
``trace``       render a JSONL observability dump written by
                ``--trace-out``;
``lint``        run the static-analysis rule set (determinism, import
                layering, observability discipline, pattern-DB and
                lexicon invariants) over the source tree; the exit code
                is the maximum unsuppressed severity (0 clean,
                1 warnings, 2 errors).

``analyze``, ``mine`` and ``platform`` accept ``--metrics`` (print the
metrics registry after the run) and ``--trace-out PATH`` (write the
span/metric/audit JSONL dump); either flag turns full tracing on.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO

from . import __version__
from .core import SentimentAnalyzer, Subject, default_lexicon, default_pattern_db
from .obs import Obs

#: Experiment name -> callable(seed, scale) (resolved lazily to keep
#: ``--help`` fast).
EXPERIMENTS = (
    "feature_precision",
    "table2",
    "table3",
    "table4",
    "table5",
    "figure1",
    "figure2",
    "figure3",
)


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry after the run",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the span/metric/audit JSONL dump to PATH (enables tracing)",
    )


def _obs_from_args(args: argparse.Namespace) -> Obs:
    """Full tracing when any observability flag asks for output."""
    if getattr(args, "metrics", False) or getattr(args, "trace_out", None):
        return Obs.enabled()
    return Obs.default()


def _emit_obs(args: argparse.Namespace, obs: Obs, out: IO[str]) -> None:
    if args.trace_out:
        count = obs.write(args.trace_out)
        out.write(f"wrote {count} trace records to {args.trace_out}\n")
    if args.metrics:
        out.write("\nmetrics:\n" + obs.metrics.render() + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Sentiment Mining in WebFountain' (ICDE 2005)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="target-level sentiment analysis")
    analyze.add_argument("text", nargs="?", help="text to analyze (default: stdin)")
    analyze.add_argument(
        "--subject",
        "-s",
        action="append",
        default=[],
        required=False,
        help="subject term to track (repeatable); synonyms with 'name=syn1,syn2'",
    )
    _add_obs_flags(analyze)

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument("--scale", type=float, default=0.15)
    experiment.add_argument("--seed", type=int, default=2005)

    full_report = sub.add_parser("report", help="run every experiment, write a markdown report")
    full_report.add_argument("--scale", type=float, default=0.15)
    full_report.add_argument("--seed", type=int, default=2005)
    full_report.add_argument("--out", default=None, help="output file (default: stdout)")

    lexicon = sub.add_parser("lexicon", help="dump the sentiment lexicon")
    lexicon.add_argument("--pos", choices=["JJ", "NN", "VB", "RB"], default=None)

    sub.add_parser("patterns", help="list the sentiment pattern database")

    mine = sub.add_parser("mine", help="mine a synthetic domain corpus")
    mine.add_argument(
        "--domain",
        choices=["digital_camera", "music", "petroleum", "pharmaceutical"],
        default="digital_camera",
    )
    mine.add_argument("--docs", type=int, default=10)
    mine.add_argument("--seed", type=int, default=2005)
    _add_obs_flags(mine)

    platform = sub.add_parser(
        "platform", help="run the simulated cluster (optionally under chaos)"
    )
    platform.add_argument(
        "--domain",
        choices=["digital_camera", "music", "petroleum", "pharmaceutical"],
        default="digital_camera",
    )
    platform.add_argument("--docs", type=int, default=24)
    platform.add_argument("--seed", type=int, default=2005)
    platform.add_argument("--nodes", type=int, default=4)
    platform.add_argument("--partitions", type=int, default=8)
    platform.add_argument("--replication", type=int, default=2)
    platform.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="inject a deterministic fault schedule derived from this seed",
    )
    platform.add_argument(
        "--failure-rate",
        type=float,
        default=0.25,
        help="per-node/per-service fault probability for the chaos schedule",
    )
    platform.add_argument(
        "--json",
        action="store_true",
        help="emit the run report (and metrics) as JSON instead of a table",
    )
    _add_obs_flags(platform)

    serve = sub.add_parser(
        "serve", help="drive the resilient serving layer (optionally under chaos)"
    )
    serve.add_argument(
        "--domain",
        choices=["digital_camera", "music", "petroleum", "pharmaceutical"],
        default="digital_camera",
    )
    serve.add_argument("--docs", type=int, default=24)
    serve.add_argument("--seed", type=int, default=2005)
    serve.add_argument("--requests", type=int, default=300)
    serve.add_argument("--shards", type=int, default=8)
    serve.add_argument("--nodes", type=int, default=4)
    serve.add_argument("--replication", type=int, default=2)
    serve.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="kill one index node and inject service faults from this seed",
    )
    serve.add_argument(
        "--fault-fraction",
        type=float,
        default=0.08,
        help="service faults scheduled as a fraction of generated requests",
    )
    serve.add_argument(
        "--batches",
        type=int,
        default=None,
        metavar="N",
        help="index the corpus incrementally as N delta batches (segment "
        "path) instead of one offline pass; same seed must serve a "
        "byte-identical report either way",
    )
    serve.add_argument(
        "--restarts",
        action="store_true",
        help="with --chaos-seed: the killed node rejoins at a seeded time; "
        "ingest goes through a WAL and the recovery manager re-replicates, "
        "catches the node up, and re-admits it via breaker probes",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable serving report as a v1 envelope",
    )
    _add_obs_flags(serve)

    health = sub.add_parser(
        "health", help="drive the serving layer and render an ops health snapshot"
    )
    health.add_argument(
        "--domain",
        choices=["digital_camera", "music", "petroleum", "pharmaceutical"],
        default="digital_camera",
    )
    health.add_argument("--docs", type=int, default=24)
    health.add_argument("--seed", type=int, default=2005)
    health.add_argument("--requests", type=int, default=120)
    health.add_argument("--shards", type=int, default=8)
    health.add_argument("--nodes", type=int, default=4)
    health.add_argument("--replication", type=int, default=2)
    health.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="kill one index node and inject service faults from this seed",
    )
    health.add_argument(
        "--batches",
        type=int,
        default=3,
        metavar="N",
        help="index the corpus incrementally as N delta batches so the "
        "ingest/compaction sections reflect the live path (default 3)",
    )
    health.add_argument(
        "--restarts",
        action="store_true",
        help="with --chaos-seed: enable crash-restart recovery and report "
        "the recovery and WAL health sections",
    )
    health.add_argument(
        "--json",
        action="store_true",
        help="emit the health snapshot as a v1 envelope",
    )
    _add_obs_flags(health)

    trace = sub.add_parser("trace", help="render a JSONL observability dump")
    trace.add_argument("path", help="JSONL file written by --trace-out")
    trace.add_argument(
        "--spans-only",
        action="store_true",
        help="render only the span tree",
    )

    lint = sub.add_parser("lint", help="run the static-analysis rule set")
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help="suppression config (default: nearest lint-suppressions.json upward from cwd)",
    )
    lint.add_argument(
        "--severity",
        choices=["info", "warning", "error"],
        default="info",
        help="minimum severity to report and count toward the exit code",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as JSON instead of text",
    )
    lint.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list suppressed findings with their justifications",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule with the invariant it protects, then exit",
    )
    lint.add_argument(
        "--changed-only",
        action="store_true",
        help="only report findings for files changed per git, widened to "
        "every file that transitively imports them",
    )
    lint.add_argument(
        "--prune-suppressions",
        action="store_true",
        help="rewrite the suppression config without entries that matched "
        "nothing or point at missing files, then exit",
    )
    lint.add_argument(
        "--graph-out",
        default=None,
        metavar="PATH",
        help="write the whole-program call/import graph as deterministic JSON",
    )
    lint.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the incremental analysis cache",
    )
    return parser


def _parse_subject(spec: str) -> Subject:
    if "=" in spec:
        name, synonyms = spec.split("=", 1)
        return Subject(name, tuple(s for s in synonyms.split(",") if s))
    return Subject(spec)


def cmd_analyze(args: argparse.Namespace, out: IO[str], stdin: IO[str]) -> int:
    text = args.text if args.text is not None else stdin.read()
    if not text.strip():
        print("no input text", file=sys.stderr)
        return 2
    subjects = [_parse_subject(s) for s in args.subject]
    obs = _obs_from_args(args)
    analyzer = SentimentAnalyzer(obs=obs)
    if not subjects:
        # No subjects: run mode B over the text.
        from .core import SentimentMiner

        judgments = SentimentMiner(analyzer=analyzer, obs=obs).mine_document(text).judgments
    else:
        judgments = analyzer.analyze_text(text, subjects)
    if not judgments:
        out.write("(no subject mentions found)\n")
        _emit_obs(args, obs, out)
        return 0
    width = max(len(j.subject_name) for j in judgments)
    for judgment in judgments:
        subject, polarity = judgment.as_pair()
        out.write(f"{subject:<{width}}  {polarity}  {judgment.provenance.describe()}\n")
    _emit_obs(args, obs, out)
    return 0


def cmd_experiment(args: argparse.Namespace, out: IO[str]) -> int:
    from .eval import experiments

    runners = {
        "feature_precision": lambda: experiments.feature_precision(seed=args.seed, scale=args.scale),
        "table2": lambda: experiments.table2(seed=args.seed, scale=args.scale),
        "table3": lambda: experiments.table3(seed=args.seed, scale=args.scale),
        "table4": lambda: experiments.table4(seed=args.seed, scale=args.scale),
        "table5": lambda: experiments.table5(seed=args.seed, scale=args.scale),
        "figure1": lambda: experiments.figure1_scaling(seed=args.seed, scale=args.scale),
        "figure2": lambda: experiments.figure2_satisfaction(seed=args.seed, scale=args.scale),
        "figure3": lambda: experiments.figure3_open_subjects(seed=args.seed, scale=args.scale),
    }
    result = runners[args.name]()
    out.write(result.render() + "\n")
    return 0


def cmd_report(args: argparse.Namespace, out: IO[str]) -> int:
    """Run the full experiment suite and emit a markdown report."""
    from .eval import experiments

    sections = [
        ("Feature extraction precision (camera)", lambda: experiments.feature_precision("digital_camera", seed=args.seed, scale=args.scale)),
        ("Feature extraction precision (music)", lambda: experiments.feature_precision("music", seed=args.seed, scale=args.scale)),
        ("Table 2", lambda: experiments.table2(seed=args.seed, scale=args.scale)),
        ("Table 3", lambda: experiments.table3(seed=args.seed, scale=args.scale)),
        ("Table 4", lambda: experiments.table4(seed=args.seed, scale=args.scale)),
        ("Table 5", lambda: experiments.table5(seed=args.seed, scale=args.scale)),
        ("Figure 1", lambda: experiments.figure1_scaling(seed=args.seed, scale=args.scale)),
        ("Figure 2", lambda: experiments.figure2_satisfaction(seed=args.seed, scale=args.scale)),
        ("Figure 3", lambda: experiments.figure3_open_subjects(seed=args.seed, scale=args.scale)),
    ]
    lines = [
        "# Sentiment Mining in WebFountain — experiment report",
        "",
        f"seed {args.seed}, scale {args.scale}",
        "",
    ]
    for title, runner in sections:
        lines.append(f"## {title}")
        lines.append("")
        lines.append("```")
        lines.append(runner().render())
        lines.append("```")
        lines.append("")
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(text)
        out.write(f"wrote {args.out}\n")
    else:
        out.write(text)
    return 0


def cmd_lexicon(args: argparse.Namespace, out: IO[str]) -> int:
    for entry in default_lexicon():
        if args.pos is None or entry.pos == args.pos:
            out.write(entry.format() + "\n")
    return 0


def cmd_patterns(out: IO[str]) -> int:
    for pattern in default_pattern_db():
        out.write(pattern.format() + "\n")
    return 0


def cmd_mine(args: argparse.Namespace, out: IO[str]) -> int:
    from .core import SentimentMiner
    from .corpora import DOMAINS, ReviewGenerator
    from .eval.reporting import format_table

    vocab = DOMAINS[args.domain]
    documents = ReviewGenerator(vocab, seed=args.seed).generate_dplus(args.docs)
    subjects = [Subject(p) for p in vocab.products] + [Subject(f) for f in vocab.features]
    obs = _obs_from_args(args)
    miner = SentimentMiner(subjects=subjects, obs=obs)
    result = miner.mine_corpus((d.doc_id, d.text) for d in documents)
    by_subject: dict[str, list[int]] = {}
    for judgment in result.polar_judgments():
        bucket = by_subject.setdefault(judgment.subject_name, [0, 0])
        bucket[0 if judgment.polarity.value == "+" else 1] += 1
    rows = [
        [name, pos, neg]
        for name, (pos, neg) in sorted(by_subject.items(), key=lambda kv: -sum(kv[1]))
    ][:15]
    out.write(
        format_table(
            ["subject", "positive", "negative"],
            rows,
            title=f"mined {result.stats.documents} documents, "
            f"{result.stats.judgments_polar} polar judgments",
        )
        + "\n"
    )
    _emit_obs(args, obs, out)
    return 0


def cmd_platform(args: argparse.Namespace, out: IO[str]) -> int:
    """Run the simulated cluster end-to-end, optionally under chaos."""
    from .corpora import DOMAINS, ReviewGenerator
    from .eval.reporting import format_table
    from .miners import (
        PosTaggerMiner,
        SentimentEntityMiner,
        SpotterMiner,
        TokenizerMiner,
    )
    from .platform import (
        Cluster,
        DataStore,
        Entity,
        FaultPlan,
        MinerPipeline,
        RetryPolicy,
    )

    vocab = DOMAINS[args.domain]
    documents = ReviewGenerator(vocab, seed=args.seed).generate_dplus(args.docs)
    store = DataStore(num_partitions=args.partitions)
    store.store_all(Entity(entity_id=d.doc_id, content=d.text) for d in documents)

    plan = None
    retry_policy = None
    if args.chaos_seed is not None:
        plan = FaultPlan.scheduled(
            args.chaos_seed,
            services=("cluster.coordinator",),
            num_nodes=args.nodes,
            num_partitions=args.partitions,
            service_failure_rate=args.failure_rate,
            node_death_rate=args.failure_rate,
        )
        retry_policy = RetryPolicy(max_attempts=4, base_backoff=0.1)

    obs = _obs_from_args(args)
    subjects = [Subject(p) for p in vocab.products] + [Subject(f) for f in vocab.features]
    pipeline = MinerPipeline(
        [
            TokenizerMiner(),
            PosTaggerMiner(),
            SpotterMiner(subjects),
            SentimentEntityMiner(obs=obs),
        ]
    )
    cluster = Cluster(
        store,
        num_nodes=args.nodes,
        replication=min(args.replication, args.nodes),
        fault_plan=plan,
        retry_policy=retry_policy,
        obs=obs,
    )
    report = cluster.run_pipeline(pipeline)

    if args.json:
        payload = {
            "report": report.to_dict(),
            "entities": len(store),
            "nodes": args.nodes,
            "replication": cluster.replication,
            "chaos_seed": args.chaos_seed,
            "metrics": obs.metrics.snapshot(),
        }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        _emit_obs(args, obs, out)
        return 0

    rows = [
        ["entities", len(store)],
        ["nodes", args.nodes],
        ["replication", cluster.replication],
        ["coverage", f"{report.coverage:.3f}"],
        ["degraded", report.degraded],
        ["dead nodes", ",".join(map(str, report.dead_nodes)) or "-"],
        ["lost partitions", ",".join(map(str, report.lost_partitions)) or "-"],
        ["failovers", report.failovers],
        ["retries", report.retries],
        ["messages", report.messages],
        ["makespan", f"{report.makespan:.2f}"],
        ["total work", f"{report.total_work:.2f}"],
    ]
    title = "platform run"
    if plan is not None:
        title += f" under chaos seed {args.chaos_seed} (rate {args.failure_rate})"
    out.write(format_table(["metric", "value"], rows, title=title) + "\n")
    _emit_obs(args, obs, out)
    return 0


def cmd_serve(args: argparse.Namespace, out: IO[str]) -> int:
    """Drive the resilient mode-B serving layer, optionally under chaos."""
    from .eval.reporting import format_table
    from .platform.serving import LoadProfile, build_scenario

    obs = _obs_from_args(args)
    scenario = build_scenario(
        seed=args.seed,
        docs=args.docs,
        domain=args.domain,
        num_shards=args.shards,
        num_nodes=args.nodes,
        replication=min(args.replication, args.nodes),
        chaos_seed=args.chaos_seed,
        fault_fraction=args.fault_fraction,
        profile=LoadProfile(requests=args.requests),
        obs=obs,
        batches=args.batches,
        restarts=args.restarts,
    )
    report = scenario.run()

    if args.json:
        from .platform.api import ok_envelope

        out.write(
            json.dumps(ok_envelope(report), indent=2, sort_keys=True) + "\n"
        )
        _emit_obs(args, obs, out)
        return 0

    rows = [
        ["requests", report["requests"]],
        ["availability", f"{report['availability']:.4f}"],
        ["p50 latency", f"{report['p50_latency']:.3f}"],
        ["p99 latency", f"{report['p99_latency']:.3f}"],
        ["shed rate", f"{report['shed_rate']:.4f}"],
        ["degraded", report["degraded"]],
        ["expired", report["expired"]],
        ["late responses", report["late_responses"]],
        ["hedges", report["hedges"]],
        ["hedge wins", report["hedge_wins"]],
        ["faults injected", report["faults_injected"]],
        ["dead nodes", ",".join(map(str, report["dead_nodes"])) or "-"],
    ]
    recovery = report.get("recovery")
    if recovery is not None:
        rows.extend(
            [
                ["recovery transfers", recovery["transfers"]],
                ["docs shipped", recovery["docs_shipped"]],
                ["nodes re-admitted", recovery["probes_admitted"]],
                ["cluster settled", str(recovery["settled"]).lower()],
            ]
        )
    title = "serving run"
    if args.chaos_seed is not None:
        title += f" under chaos seed {args.chaos_seed}"
        if args.restarts:
            title += " with restarts"
    out.write(format_table(["metric", "value"], rows, title=title) + "\n")
    _emit_obs(args, obs, out)
    return 0


def cmd_health(args: argparse.Namespace, out: IO[str]) -> int:
    """Drive the serving layer and render one ops health snapshot."""
    from .obs import SLOMonitor, default_serving_slos, health_snapshot, render_health
    from .platform.serving import LoadProfile, build_scenario

    # Health always runs fully instrumented: exemplar trace ids in the
    # stage-latency histograms only exist when tracing is on.
    obs = Obs.enabled()
    slo = SLOMonitor(obs, default_serving_slos())
    scenario = build_scenario(
        seed=args.seed,
        docs=args.docs,
        domain=args.domain,
        num_shards=args.shards,
        num_nodes=args.nodes,
        replication=min(args.replication, args.nodes),
        chaos_seed=args.chaos_seed,
        profile=LoadProfile(requests=args.requests),
        obs=obs,
        batches=args.batches,
        slo=slo,
        restarts=args.restarts,
    )
    scenario.run()
    snapshot = health_snapshot(
        obs,
        router=scenario.router,
        live_indexer=scenario.live_indexer,
        slo=slo,
        recovery=scenario.recovery,
        wal=scenario.wal,
    )
    if args.json:
        from .platform.api import ok_envelope

        out.write(json.dumps(ok_envelope(snapshot), indent=2, sort_keys=True) + "\n")
    else:
        out.write(render_health(snapshot) + "\n")
    _emit_obs(args, obs, out)
    return 0


def cmd_trace(args: argparse.Namespace, out: IO[str]) -> int:
    """Re-render a JSONL observability dump on the console."""
    from .obs import read_trace, render_dump, render_span_tree

    try:
        dump = read_trace(args.path)
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    if args.spans_only:
        out.write(render_span_tree(dump.spans) + "\n")
    else:
        out.write(render_dump(dump) + "\n")
    return 0


def _git_changed_files() -> "set | None":
    """Absolute paths git considers changed vs HEAD, plus untracked files.

    Returns None when not in a usable git checkout.
    """
    import subprocess
    from pathlib import Path

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    top = proc.stdout.strip()
    names: set[str] = set()
    for cmd in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=top)
        if proc.returncode != 0:
            return None
        names.update(line.strip() for line in proc.stdout.splitlines() if line.strip())
    return {Path(top) / name for name in names}


def _restrict_to_changed(report, program, changed) -> None:
    """Drop findings outside the changed files' reverse-dependency cone.

    Pseudo-path findings (``<lexicon>``, ``<suppressions>``, ...) are
    global and always kept.
    """
    from pathlib import Path

    changed_resolved = {path.resolve() for path in changed}
    changed_modpaths = [
        modpath
        for modpath, summary in program.modules.items()
        if Path(summary.path).resolve() in changed_resolved
    ]
    keep_displays = {
        program.modules[m].path for m in program.dependency_cone(changed_modpaths)
    }
    report.findings = [
        finding
        for finding in report.findings
        if finding.path.startswith("<") or finding.path in keep_displays
    ]


def cmd_lint(args: argparse.Namespace, out: IO[str]) -> int:
    """Run the static-analysis rule set; exit code = max severity."""
    import json
    from pathlib import Path

    from .analysis import Severity, all_rules, build_linter, find_suppression_config

    if args.list_rules:
        for rule in all_rules():
            out.write(f"{rule.rule_id}  {rule.name} ({rule.severity})\n")
            out.write(f"        {rule.invariant}\n")
        return 0

    paths = args.paths or [str(Path(__file__).resolve().parent)]
    config = args.config
    if config is None:
        # Search upward from the cwd first, then from the linted tree, so
        # the repo config is found no matter where the CLI is invoked.
        config = find_suppression_config() or find_suppression_config(
            Path(paths[0]).resolve().parent
        )
    try:
        linter = build_linter(config, use_cache=not args.no_cache)
    except (OSError, ValueError) as exc:
        print(f"cannot load suppression config: {exc}", file=sys.stderr)
        return 2
    report = linter.lint(paths)
    if args.graph_out:
        with open(args.graph_out, "w", encoding="utf-8") as stream:
            json.dump(linter.last_program.graph_dict(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        out.write(f"wrote {args.graph_out}\n")
    if args.prune_suppressions:
        if config is None:
            print("no suppression config found to prune", file=sys.stderr)
            return 2
        before = len(linter.suppressions)
        pruned = linter.suppressions.pruned()
        pruned.save(config)
        out.write(
            f"pruned {before - len(pruned)} of {before} suppression entries "
            f"in {config}\n"
        )
        return 0
    if args.changed_only:
        changed = _git_changed_files()
        if changed is None:
            print("--changed-only requires a git checkout", file=sys.stderr)
            return 2
        _restrict_to_changed(report, linter.last_program, changed)
    threshold = Severity.parse(args.severity)
    if args.json:
        text = report.to_json() + "\n"
    else:
        text = report.render(threshold, show_suppressed=args.show_suppressed) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(text)
        out.write(f"wrote {args.out}\n")
    else:
        out.write(text)
    return report.exit_code(threshold)


def main(argv: list[str] | None = None, out: IO[str] | None = None, stdin: IO[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    stdin = stdin or sys.stdin
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        return cmd_analyze(args, out, stdin)
    if args.command == "experiment":
        return cmd_experiment(args, out)
    if args.command == "report":
        return cmd_report(args, out)
    if args.command == "lexicon":
        return cmd_lexicon(args, out)
    if args.command == "patterns":
        return cmd_patterns(out)
    if args.command == "mine":
        return cmd_mine(args, out)
    if args.command == "platform":
        return cmd_platform(args, out)
    if args.command == "serve":
        return cmd_serve(args, out)
    if args.command == "health":
        return cmd_health(args, out)
    if args.command == "trace":
        return cmd_trace(args, out)
    if args.command == "lint":
        return cmd_lint(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")
