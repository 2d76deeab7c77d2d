.PHONY: verify test build bench-smoke verify-faults verify-serve verify-crash verify-analysis verify-bench-api doc clippy

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
# run to BENCH_eval.json. Timing belongs to the judged benchmark
# (benchmark/, BENCHMARK.json).
# `verify-faults` sweeps injected snapshot/WAL corruption and fails on any
# panic, silently accepted damage, or disagreement between the strict and
# the recovering snapshot reader about what is intact. `verify-serve` re-runs the concurrent
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
verify: build test bench-smoke verify-faults verify-serve verify-crash doc clippy verify-analysis verify-bench-api

build:
	cargo build --release

test:
	cargo test -q --workspace

bench-smoke:
	cargo run --release -q -p dkindex-bench --bin reproduce -- bench-smoke

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
#      the tuner-in-the-loop protocol (WAL poisoning, durable acks, monitor
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
