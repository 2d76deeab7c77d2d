.PHONY: verify test build bench-smoke verify-faults verify-serve verify-churn verify-net verify-crash verify-tune verify-analysis verify-bench-api doc clippy

# Tier-1 verification (ROADMAP.md) plus the exact gate set. `bench-smoke`
# times nothing: it asserts that the arena evaluator and the refinement
# engine produce byte-identical outcomes/partitions to the retained
# references, that the telemetry recorder changes no observable result, and
# it runs the churn, net and tune gates below — exiting non-zero on the
# first failing clause of any of them and writing only counts that repeat
# run to run to BENCH_eval.json. Timing belongs to the judged benchmark
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
# must-consume and unsafe contracts through lint attributes in the modules
# they fence. `verify-analysis` proves the contracts no compiler sees
# (oracle purity, guard discipline, wire totality, metric coherence), shows
# the clippy gate still has teeth, and model-checks the serve epoch
# protocol including the tuner-in-the-loop extension (ARCHITECTURE.md §6).
# `verify-bench-api` compiles the judged benchmark (benchmark/, its own
# workspace, never edited by a change that claims anything) against the
# crates as they are now, so a refactor that breaks a signature `dkbench`
# links against fails here and not in the benchmark pipeline.
#
# Three single-gate targets run one of bench-smoke's gates alone — the same
# function on the same dataset and seed, failing on exactly the same `check`
# — so `verify` does not list them. `verify-churn` runs a bounded
# sustained-churn stream (large update batches under concurrent readers) and
# fails on nondeterminism vs the serial replay or on a COW regression where
# a 32-update delta copies more than 10% of the block store on average,
# measured epoch to epoch (ARCHITECTURE.md §5). `verify-net` drives the DKNP
# network front-end over loopback TCP — mixed query/update workload plus an
# induced-overload window — and fails if the drained state diverges from the
# serial replay of the admitted updates, if any refusal was not a typed SHED
# frame, or if admission overshot the staleness threshold (docs/PROTOCOL.md,
# ARCHITECTURE.md §7). `verify-tune` serves a Zipf-skewed query mix that
# flips to a different pool halfway through a WAL-logged run with the
# in-loop adaptive tuner on (ARCHITECTURE.md §8) — failing if the p99 query
# cost does not re-converge within the bounded round count, if the tuned
# state diverges from the serial replay of the recorded ops (tuner ops
# included), or if the WAL replay diverges.
verify: build test bench-smoke verify-faults verify-serve verify-crash doc clippy verify-analysis verify-bench-api

build:
	cargo build --release

test:
	cargo test -q

bench-smoke:
	cargo run --release -q -p dkindex-bench --bin reproduce -- bench-smoke

verify-faults:
	cargo run --release -q -p dkindex-bench --bin reproduce -- verify-faults

verify-serve:
	cargo test --release -q -p dkindex-core --test serve

verify-churn:
	cargo run --release -q -p dkindex-bench --bin reproduce -- verify-churn

verify-net:
	cargo run --release -q -p dkindex-bench --bin reproduce -- verify-net

verify-crash:
	cargo run --release -q -p dkindex-bench --bin reproduce -- verify-crash

verify-tune:
	cargo run --release -q -p dkindex-bench --bin reproduce -- verify-tune

# Static analysis + model checking (ARCHITECTURE.md §6):
#   1. the dkindex-analyze pass over the whole workspace — oracle-purity,
#      guard-discipline, wire-totality, metric-coherence and stale rule-table
#      rows — nonzero exit on any unjustified contract violation;
#   2. the clippy teeth check: crates/analyze/fixtures/clippy breaks each
#      compiler-carried contract once, and every lint in CLIPPY_TEETH must
#      be reported for it under CLIPPY_LINTS;
#   3. exhaustive-interleaving model tests for the serve epoch protocol and
#      the tuner-in-the-loop protocol (WAL poisoning, durable acks, monitor
#      feeds, tuner self-enqueue) in crates/core/tests/loom_serve.rs on the
#      offline loom stand-in;
#   4. Miri over the core suite, only when the toolchain component is
#      installed — the offline image has no rustup, so absence is a skip
#      with a notice, not a failure.
CLIPPY_TEETH = clippy::iter_over_hash_type clippy::unwrap_used clippy::indexing_slicing \
	clippy::panic clippy::let_underscore_must_use unused_must_use unused_variables \
	unsafe_code clippy::allow_attributes_without_reason unfulfilled_lint_expectations

verify-analysis:
	cargo run --release -q -p dkindex-analyze -- --root .
	@reported=$$(cargo clippy --offline -q --message-format=json --target-dir target/clippy-teeth \
		--manifest-path crates/analyze/fixtures/clippy/Cargo.toml -- $(CLIPPY_LINTS) 2>/dev/null); \
	for lint in $(CLIPPY_TEETH); do \
		echo "$$reported" | grep -q "\"code\":\"$$lint\"" || \
			{ echo "verify-analysis: clippy did not report $$lint on the teeth fixture"; exit 1; }; \
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
CLIPPY_LINTS = -D warnings -A clippy::all \
	-D clippy::correctness -D clippy::suspicious -D clippy::complexity \
	-D clippy::perf -D clippy::style \
	-F unsafe_code -D clippy::allow_attributes_without_reason

clippy:
	cargo clippy -q --workspace --all-targets -- $(CLIPPY_LINTS)
