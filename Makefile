# Convenience targets; all tests run with the src layout on PYTHONPATH.
PYTHONPATH := src
export PYTHONPATH

.PHONY: test chaos serving-chaos incremental recovery-chaos perfbench-smoke perfbench-trace bench bench-obs bench-serving bench-freshness bench-throughput bench-lint bench-recovery bench-paper bench-extras lint lint-report

test: lint
	python -m pytest -x -q

# Deterministic fault-injection suite only (seeded chaos schedules; the
# harness that expands a seed and checks run invariants is
# tests/support/chaos.py).
chaos:
	python -m pytest -q -m chaos

# Resilient serving-layer suite: deadline propagation, load shedding,
# circuit breakers, hedged reads, and seeded end-to-end chaos runs.
serving-chaos:
	python -m pytest -q -m serving

# Incremental indexing suite: delta batches, segment snapshots,
# compaction, and the batch-vs-one-pass equivalence property.
incremental:
	python -m pytest -q -m incremental

# Durable-recovery suite: crash-restart schedules, WAL replay,
# anti-entropy catch-up, re-replication, and the healed-equals-unchaosed
# determinism gate.
recovery-chaos:
	python -m pytest -q -m recovery

# The wall-clock benchmark's own smoke tests (perfbench/, small sizes):
# every workload runs end to end with its output checks, and the traced
# run still finds each layer entry point it wraps by name.
perfbench-smoke:
	python -m pytest -q perfbench/tests

# Per-layer breakdown of the benchmark's three workloads at seed 1: each
# run wraps the layer entry points and prints self ms/op, calls/op,
# self and inclusive shares, and the unattributed share.  A speed-up
# claim cites these numbers (about three minutes per workload).
perfbench-trace:
	for workload in mine_reviews ingest_web serve_recovery; do \
		python3 perfbench/run.py --workload $$workload --seed 1 --seconds 25 --trace 1 || exit 1; \
	done

bench: bench-obs bench-serving bench-freshness bench-throughput bench-lint bench-recovery
	cd benchmarks && PYTHONPATH=../src python -m pytest -q

# Instrumentation overhead guard: tracing on vs. off on the same corpus
# mine; writes BENCH_obs_overhead.json and fails if overhead >= 10%.
bench-obs:
	cd benchmarks && PYTHONPATH=../src python -m pytest -q bench_obs_overhead.py

# Serving availability under a seeded chaos plan (one dead index node,
# ≥5% service faults): writes BENCH_serving_availability.json and fails
# below 99% availability or on any late/malformed response.
bench-serving:
	cd benchmarks && PYTHONPATH=../src python -m pytest -q bench_serving.py

# Index freshness of the incremental path: per-batch ingest-to-queryable
# lag and sustained docs/sim-sec under concurrent serving load; writes
# BENCH_freshness.json and fails on a lag-ceiling/throughput-floor
# breach or if the batched build stops being byte-identical to the
# one-pass build (with and without chaos).
bench-freshness:
	cd benchmarks && PYTHONPATH=../src python -m pytest -q bench_freshness.py

# Hot-path throughput gate: the optimized pipeline (Aho-Corasick
# spotting, split/tag/parse memos, batched stages) vs. the naive
# reference on a syndication-heavy corpus.  Writes BENCH_throughput.json
# and fails if the median speedup drops below 2x or the batched path's
# docs/sim-sec falls below its floor.  Output must stay byte-identical.
bench-throughput:
	cd benchmarks && PYTHONPATH=../src python -m pytest -q bench_throughput.py

# Lint cache gate: cold vs warm-cache lint over src/.  Writes
# BENCH_lint.json and fails if a warm run re-analyzes any file or costs
# more than half the cold wall time.
bench-lint:
	cd benchmarks && PYTHONPATH=../src python -m pytest -q bench_lint.py

# Recovery gate: crash-restart runs across several chaos seeds must hold
# ≥99% availability while the RecoveryManager re-replicates and catches
# the rejoined node up, settle completely, and keep p95 restore duration
# under its ceiling.  Writes BENCH_recovery.json; same-seed runs must be
# byte-identical.
bench-recovery:
	cd benchmarks && PYTHONPATH=../src python -m pytest -q bench_recovery.py

# Paper-facing results at default scale: Tables 2-5, Figures 1-5,
# feature precision and the ablations.  Fails if a reproduced number
# leaves its band or a claimed ordering between methods breaks.
bench-paper:
	cd benchmarks && PYTHONPATH=../src python -m pytest -q \
		bench_table2_top_features.py bench_table3_references.py \
		bench_table4_reviews.py bench_table5_general_web.py \
		bench_fig1_platform.py bench_fig2_pipeline.py \
		bench_fig3_open_subjects.py bench_fig45_reporting.py \
		bench_feature_precision.py bench_ablations.py

# The benchmarks no other target runs: the makespan-vs-failure-rate
# curve, per-template-kind error analysis, the other corpus miners, and
# the platform microbenchmarks.  Fails if any of their checks fails.
bench-extras:
	cd benchmarks && PYTHONPATH=../src python -m pytest -q \
		bench_fault_recovery.py bench_error_analysis.py \
		bench_corpus_miners.py bench_platform_micro.py

# Byte-compile everything, then run the static-analysis rule set
# (determinism, layering, obs discipline, pattern-DB/lexicon invariants).
# Fails on any unsuppressed error-severity finding.
lint:
	python -m compileall -q src
	python -m repro lint --severity error

# Full findings (all severities, including suppressed) as JSON, for CI
# artifacts and dashboards.  Never fails the build.
lint-report:
	-python -m repro lint --json --out lint-report.json
	@echo "wrote lint-report.json"
