#!/usr/bin/env bash
# Interleaved A/B pairs of the judged benchmark (benchmark/, BENCHMARK.json):
# dkbench built from BASE (default HEAD~1) against dkbench built from the
# working tree. Every performance claim is checked this way, once more on a
# seed not used while writing the change.
#
#   make bench-pair WORKLOAD=cold-walk PAIRS=10 [BASE=HEAD~1] [SEED=2003]
#   bash scripts/bench-pair.sh WORKLOAD [PAIRS] [BASE] [SEED]
#
# WORKLOAD=all runs the pairs of every workload BENCHMARK.json declares, one
# workload after the other from one build, and prints one pair of tables per
# workload.
#
# BASE is exported with `git archive` into target/bench-pair/base, a
# throwaway tree with no git metadata. Each side builds with its own
# CARGO_TARGET_DIR under target/bench-pair. Each pair runs both sides, base
# first in odd pairs and head first in even ones, each `dkbench run
# --workload W --seed SEED --seconds 15 --trace 0` (SEED defaults to 2003;
# dkbench pins itself to one CPU). The script prints each pair's end-to-end
# lines, then per end-to-end metric: the median head/base ratio, the base
# side's q1–q3 spread as a fraction of its median (a change is judged
# against that spread, and a metric whose spread exceeds its bound is
# unresolved, not level), in how many pairs head read worse than base
# (op_per_s is better higher, the others lower) and in how many it read
# exactly equal (the bar for a count that must not move: a change under
# 0.05 % still prints as ratio 1.000). A second table, marked not
# judged, gives the head and base medians of the per-layer lines an untraced
# run also prints (recovery_s, update_p50_us, query_p50_us, query_p99_us,
# where the workload has them). Result files go to
# target/bench-pair/out-{base,head}; nothing under benchmark/ and not
# BENCHMARK.json is written.
set -euo pipefail

workload="${1:?usage: bench-pair.sh WORKLOAD [PAIRS] [BASE] [SEED]}"
pairs="${2:-10}"
base_rev="${3:-HEAD~1}"
seed="${4:-2003}"
root="$(git rev-parse --show-toplevel)"
work="$root/target/bench-pair"
end_to_end='^[^ ]+ (setup_s|op_per_s|peak_rss_mb|visits_per_query|index_blocks) '
context='^[^ ]+ (recovery_s|update_p50_us|query_p50_us|query_p99_us) '

workloads="$workload"
if [ "$workload" = all ]; then
  # The names listed between "workloads" and the next key of BENCHMARK.json.
  workloads="$(awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
    on && /"name"/ { gsub(/.*"name": *"|".*/, ""); print }' "$root/BENCHMARK.json")"
  [ -n "$workloads" ] || { echo "bench-pair: no workloads in BENCHMARK.json" >&2; exit 2; }
fi

rm -rf "$work/base"
mkdir -p "$work/base"
git -C "$root" archive "$base_rev" | tar -x -C "$work/base"
for side in base head; do
  src="$work/base"
  [ "$side" = head ] && src="$root"
  cargo build --release --offline --manifest-path "$src/benchmark/Cargo.toml" \
    --target-dir "$work/$side-target" >&2
done

# One run of one side; its end-to-end lines prefixed with "pair N SIDE".
run() {
  local side="$1" pair="$2" out
  if ! out="$("$work/$side-target/release/dkbench" run --workload "$w" --seed "$seed" \
      --seconds 15 --trace 0 --out "$work/out-$side" 2>"$work/$side.err")"; then
    echo "bench-pair: $side run of pair $pair failed:" >&2
    tail -n 5 "$work/$side.err" >&2
    exit 1
  fi
  { grep -E "$context" <<<"$out" || true; } | sed "s/^/pair $pair $side /" >>"$work/context.txt"
  grep -E "$end_to_end" <<<"$out" | sed "s/^/pair $pair $side /"
}

# The pairs of workload $w, each printed as it runs.
run_pairs() {
  : >"$work/pairs.txt"
  : >"$work/context.txt"
  for pair in $(seq 1 "$pairs"); do
    order="base head"
    ((pair % 2)) || order="head base"
    for side in $order; do
      run "$side" "$pair" | tee -a "$work/pairs.txt"
    done
  done
}

# The judged and the not-judged table of the pairs just run.
tables() {
  # Lines read "pair N SIDE WORKLOAD METRIC VALUE UNIT".
  echo "$w: head against base over $pairs pair(s) at seed $seed, $base_rev vs working tree:"
  printf '  %-17s %11s %16s %11s %8s\n' metric head/base "base q1-q3/med" "head worse" equal
  awk 'function sort(a, n,   i, j, x) {
         for (i = 2; i <= n; i++) { x = a[i]; for (j = i - 1; j > 0 && a[j] > x; j--) a[j + 1] = a[j]; a[j + 1] = x }
       }
       # Quantile p of the sorted a[1..n], interpolating between ranks.
       function quantile(a, n, p,   h, lo) {
         h = p * (n - 1) + 1; lo = int(h)
         return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
       }
       { v[$5, $2, $3] = $6 + 0; m[$5] = 1; p[$2] = 1 }
       END {
         for (k in m) {
           n = 0; r = 0; worse = 0; equal = 0
           for (i in p) {
             if (!((k, i, "base") in v && (k, i, "head") in v)) continue
             b = v[k, i, "base"]; h = v[k, i, "head"]
             base[++n] = b
             if (b > 0) ratio[++r] = h / b
             if (k == "op_per_s" ? h < b : h > b) worse++
             if (h == b) equal++
           }
           sort(base, n); sort(ratio, r)
           med = quantile(base, n, 0.5)
           spread = med > 0 ? (quantile(base, n, 0.75) - quantile(base, n, 0.25)) / med : 0
           printf "  %-17s %11.3f %16.3f %8d/%d %5d/%d\n", k, quantile(ratio, r, 0.5), spread, worse, n, equal, n
         }
       }' "$work/pairs.txt" | sort

  [ -s "$work/context.txt" ] || return 0
  echo "$w, not judged: per-layer lines of the same runs, median per side:"
  printf '  %-17s %11s %11s %11s\n' metric head base head/base
  awk 'function sort(a, n,   i, j, x) {
         for (i = 2; i <= n; i++) { x = a[i]; for (j = i - 1; j > 0 && a[j] > x; j--) a[j + 1] = a[j]; a[j + 1] = x }
       }
       function median(a, n,   h) {
         h = 0.5 * (n - 1) + 1
         return int(h) >= n ? a[n] : a[int(h)] + (h - int(h)) * (a[int(h) + 1] - a[int(h)])
       }
       { n[$5, $3]++; v[$5, $3, n[$5, $3]] = $6 + 0; m[$5] = 1 }
       END {
         for (k in m) {
           for (s = 1; s <= 2; s++) {
             side = s == 1 ? "head" : "base"; c = n[k, side]
             for (i = 1; i <= c; i++) a[i] = v[k, side, i]
             sort(a, c); med[side] = c ? median(a, c) : 0
           }
           ratio = med["base"] > 0 ? med["head"] / med["base"] : 0
           printf "  %-17s %11.4g %11.4g %11.3f\n", k, med["head"], med["base"], ratio
         }
       }' "$work/context.txt" | sort
}

cd "$root"
: >"$work/tables.txt"
for w in $workloads; do
  run_pairs
  tables | tee -a "$work/tables.txt"
done
if [ "$workloads" != "$workload" ]; then
  echo
  echo "all workloads, judged and not-judged tables again:"
  cat "$work/tables.txt"
fi
