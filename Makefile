.PHONY: verify test build bench-smoke verify-record verify-faults verify-serve verify-crash verify-analysis verify-bench-api doc clippy bench-pair

# Tier-1 verification (ROADMAP.md) plus the exact gate set. `test` runs
# every crate's tests, among them the contract tests that keep code and
# its documents in step: oracle purity and metric coherence
# (tests/contracts.rs), wire totality (crates/server/tests/protocol_golden.rs)
# and the exit-code table (crates/cli/tests/exit_codes.rs). `bench-smoke`
# times nothing: it asserts that the arena evaluator and the refinement
# engine produce byte-identical outcomes/partitions to the retained
# references, that the telemetry recorder changes no observable result, and
# it runs the churn, net and tune gates — exiting non-zero on the first
# failing clause of any of them and writing only counts that repeat run to
# run. It writes its record and metrics under target/ and fails when the
# record, its `loc` object removed, differs from the checked-in
# BENCH_eval.json with its `loc` object removed. After a change that moves a
# count on purpose, refresh the checked-in BENCH_eval.json from the repo
# root with `cargo run --release -p dkindex-bench --bin reproduce --
# bench-smoke` (it also writes METRICS.json there, a local artifact that
# .gitignore keeps out of the repository). Timing belongs to the
# judged benchmark (benchmark/, BENCHMARK.json).
# `verify-record` regenerates the paper record: it runs `reproduce all`
# (Figures 4–7, Table 1's work column and the ablations, exiting non-zero on
# the first failing shape claim) twice, and fails if the two PAPER_eval.json
# outputs differ from each other or from the checked-in file. The test
# crates/bench/tests/paper_record.rs holds EXPERIMENTS.md and THEORY.md to
# that file.
# `verify-faults` sweeps injected snapshot/WAL corruption — including
# section payloads damaged and resealed under a fresh CRC, so the damage
# reaches the section decoders — and fails on any panic, silently accepted
# damage, or disagreement between the strict and the recovering snapshot
# reader about what is intact. `verify-serve` re-runs the concurrent
# serving suite (construction-vs-oracle identity, serve-vs-serial
# determinism, racing-reader consistency) in release mode, where thread
# interleavings differ from the debug test run. `verify-crash` is the
# crash-recovery torture gate for the write-ahead log (docs/PROTOCOL.md §8):
# it cuts the log at every byte, fails every group commit's fsync, tears
# every batch write at every offset, and kills a live logged server at
# seeded random commits — failing if any acknowledged update does not replay
# byte-identically after snapshot + WAL recovery, if any crash view surfaces
# a partial batch, or if anything panics. `doc` and `clippy` must both
# come back warning-free; `clippy` carries the panic-freedom, hash-order,
# must-consume, unsafe and guard contracts through lint attributes in the
# modules they fence. `verify-analysis` shows the clippy gate still has
# teeth and model-checks the serve epoch protocol including the
# tuner-in-the-loop extension (ARCHITECTURE.md §6).
# `verify-bench-api` compiles the judged benchmark (benchmark/, its own
# workspace, never edited by a change that claims anything) against the
# crates as they are now, so a refactor that breaks a signature `dkbench`
# links against fails here and not in the benchmark pipeline.
verify: build test bench-smoke verify-record verify-faults verify-serve verify-crash doc clippy verify-analysis verify-bench-api

build:
	cargo build --release

test:
	cargo test -q --workspace

# The `loc` object is the record's last section: its opening line to its
# closing brace.
DROP_LOC = sed '/^  "loc": {$$/,/^  }$$/d'

bench-smoke:
	cargo run --release -q -p dkindex-bench --bin reproduce -- bench-smoke \
		--out target/bench-record.json --metrics target/bench-metrics.json
	$(DROP_LOC) target/bench-record.json > target/bench-record.noloc.json
	$(DROP_LOC) BENCH_eval.json | diff -u - target/bench-record.noloc.json

verify-record:
	cargo run --release -q -p dkindex-bench --bin reproduce -- all --out target/paper-record-1.json > /dev/null
	cargo run --release -q -p dkindex-bench --bin reproduce -- all --out target/paper-record-2.json > /dev/null
	cmp target/paper-record-1.json target/paper-record-2.json
	cmp target/paper-record-1.json PAPER_eval.json

verify-faults:
	cargo run --release -q -p dkindex-bench --bin reproduce -- verify-faults

verify-serve:
	cargo test --release -q -p dkindex-core --test serve

verify-crash:
	cargo run --release -q -p dkindex-bench --bin reproduce -- verify-crash

# Lint teeth + model checking (ARCHITECTURE.md §6):
#   1. the clippy teeth check: tests/clippy-teeth breaks each
#      compiler-carried contract once, and every lint in CLIPPY_TEETH must
#      be reported for it under CLIPPY_LINTS;
#   2. exhaustive-interleaving model tests for the serve epoch protocol and
#      the tuner-in-the-loop protocol (WAL poisoning, durable acks, tuner
#      feeds, tuner self-enqueue) in crates/core/tests/loom_serve.rs on the
#      offline loom stand-in;
#   3. Miri over the core suite, only when the toolchain component is
#      installed — the offline image has no rustup, so absence is a skip
#      with a notice, not a failure.
CLIPPY_TEETH = clippy::iter_over_hash_type clippy::unwrap_used clippy::indexing_slicing \
	clippy::panic clippy::let_underscore_must_use unused_must_use unused_variables \
	unsafe_code clippy::allow_attributes_without_reason unfulfilled_lint_expectations \
	clippy::disallowed_methods

verify-analysis:
	@reported=$$(cargo clippy --offline -q --message-format=json --target-dir target/clippy-teeth \
		--manifest-path tests/clippy-teeth/Cargo.toml -- $(CLIPPY_LINTS) 2>/dev/null); \
	for lint in $(CLIPPY_TEETH); do \
		echo "$$reported" | grep -q "\"code\":\"$$lint\"" || \
			{ echo "verify-analysis: clippy did not report $$lint on the teeth package"; exit 1; }; \
	done
	cargo test --release -q -p dkindex-core --test loom_serve
	@if cargo miri --version >/dev/null 2>&1; then \
		cargo miri test -p dkindex-core --lib; \
	else \
		echo "verify-analysis: miri not installed; skipping UB pass (install with: rustup +nightly component add miri)"; \
	fi

verify-bench-api:
	CARGO_TARGET_DIR=.bench_build cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

# Interleaved triples of the judged benchmark for a performance claim:
# BASE's dkbench (default HEAD~1), the working tree's, and a byte-identical
# copy of the working tree's at another path, PAIRS rotating triples of
# pinned `dkbench run --workload $(WORKLOAD) --seed $(SEED) --seconds 15
# --trace 0` runs (SEED defaults to 2003; repeat a claim on one seed the
# change was not written against). Prints every triple's end-to-end lines,
# then per metric the median head/base ratio, the base side's q1–q3 spread
# over its median, the count of triples where head read worse, the A/A
# band of the copy against head and a verdict (a timing is resolved only
# outside that band with 8 of 10 triples agreeing; a count must be equal),
# then a table marked not judged with head/base medians of the per-layer
# latency and recovery lines; writes only under target/bench-pair.
# WORKLOAD=all runs every workload BENCHMARK.json declares in one
# invocation, one pair of tables each.
PAIRS ?= 10
BASE ?= HEAD~1
SEED ?= 2003
bench-pair:
	@test -n "$(WORKLOAD)" || { echo "usage: make bench-pair WORKLOAD=<workload|all> [PAIRS=10] [BASE=HEAD~1] [SEED=2003]"; exit 2; }
	bash scripts/bench-pair.sh $(WORKLOAD) $(PAIRS) $(BASE) $(SEED)

doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# The clippy gate is pinned to an explicit lint-group set instead of the
# moving "whatever this toolchain's clippy warns about" target: `-D warnings`
# still hard-fails rustc warnings, `-A clippy::all` resets clippy, and the
# five groups that encode real contracts (correctness, suspicious,
# complexity, perf, style) are re-denied explicitly. Toolchain bumps that
# add lints to other groups (nursery, pedantic, restriction) cannot break
# the build; additions to the denied groups are deliberate signal. Two
# more are workspace-wide: `unsafe_code` is forbidden in every target
# (tests and examples included), and every `#[allow]`/`#[expect]` must
# give a `reason`. Restriction lints that fence single modules are denied
# by `#![deny(...)]` in those modules, test code exempted by clippy.toml.
# `disallowed_methods` (a style lint: the lock methods clippy.toml names)
# is allowed again after `-D clippy::style`; only the fenced modules'
# inner `#![deny]`, which overrides the command line, turns it on.
CLIPPY_LINTS = -D warnings -A clippy::all \
	-D clippy::correctness -D clippy::suspicious -D clippy::complexity \
	-D clippy::perf -D clippy::style -A clippy::disallowed_methods \
	-F unsafe_code -D clippy::allow_attributes_without_reason

clippy:
	cargo clippy -q --workspace --all-targets -- $(CLIPPY_LINTS)
