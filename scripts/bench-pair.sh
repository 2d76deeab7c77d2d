#!/usr/bin/env bash
# Interleaved triples of the judged benchmark (benchmark/, BENCHMARK.json):
# dkbench built from BASE (default HEAD~1) against dkbench built from the
# working tree, with the working tree's binary run a second time from a
# byte-identical copy at another path (head'), so every claim carries the
# noise floor of the host it was measured on. Every performance claim is
# checked this way, once more on a seed not used while writing the change.
#
#   make bench-pair WORKLOAD=cold-walk PAIRS=10 [BASE=HEAD~1] [SEED=2003]
#   bash scripts/bench-pair.sh WORKLOAD [TRIPLES] [BASE] [SEED]
#
# WORKLOAD=all runs the triples of every workload BENCHMARK.json declares,
# one workload after the other from one build, and prints one pair of tables
# per workload.
#
# BASE is exported with `git archive` into target/bench-pair/base, a
# throwaway tree with no git metadata. Each side builds with its own
# CARGO_TARGET_DIR under target/bench-pair; head' is a copy of head's
# dkbench (checked with cmp). Each triple runs all three, in the order
# base head head', head head' base, head' base head, and again from the
# fourth triple on, each `dkbench run --workload W --seed SEED --seconds 15
# --trace 0` (SEED defaults to 2003; dkbench pins itself to one CPU).
#
# The script prints each triple's end-to-end lines, then per end-to-end
# metric:
#   - the median head/base ratio over the triples;
#   - the base side's q1-q3 spread as a fraction of its median;
#   - in how many triples head read worse than base (op_per_s is better
#     higher, the others lower) and in how many exactly equal;
#   - the A/A band: the median and the min-max of head'/head over the
#     triples, the ratio two runs of one binary differ by on this host;
#   - a verdict. A timing is "resolved better" or "resolved worse" only when
#     the head/base median lies outside the A/A band and at least 8 of 10
#     triples (80 %, rounded up) read head on that side of base; otherwise
#     it is "unresolved". A count (visits_per_query, index_blocks) is
#     "equal" when all three sides read exactly the same in every triple,
#     and "moved" otherwise.
# A second table, marked not judged, gives the head and base medians of the
# per-layer lines an untraced run also prints (recovery_s, update_p50_us,
# query_p50_us, query_p99_us, where the workload has them). Result files go
# to target/bench-pair/out-{base,head,head2}; nothing under benchmark/ and
# not BENCHMARK.json is written.
set -euo pipefail

workload="${1:?usage: bench-pair.sh WORKLOAD [TRIPLES] [BASE] [SEED]}"
triples="${2:-10}"
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

rm -rf "$work/base" "$work/head2"
mkdir -p "$work/base" "$work/head2"
git -C "$root" archive "$base_rev" | tar -x -C "$work/base"
for side in base head; do
  src="$work/base"
  [ "$side" = head ] && src="$root"
  cargo build --release --offline --manifest-path "$src/benchmark/Cargo.toml" \
    --target-dir "$work/$side-target" >&2
done
bin_base="$work/base-target/release/dkbench"
bin_head="$work/head-target/release/dkbench"
bin_head2="$work/head2/dkbench"
cp "$bin_head" "$bin_head2"
cmp "$bin_head" "$bin_head2"

# One run of one side; its end-to-end lines prefixed with "triple N SIDE".
run() {
  local side="$1" triple="$2" bin out
  case "$side" in
    base) bin="$bin_base" ;;
    head) bin="$bin_head" ;;
    head2) bin="$bin_head2" ;;
  esac
  if ! out="$("$bin" run --workload "$w" --seed "$seed" \
      --seconds 15 --trace 0 --out "$work/out-$side" 2>"$work/$side.err")"; then
    echo "bench-pair: $side run of triple $triple failed:" >&2
    tail -n 5 "$work/$side.err" >&2
    exit 1
  fi
  { grep -E "$context" <<<"$out" || true; } | sed "s/^/triple $triple $side /" >>"$work/context.txt"
  grep -E "$end_to_end" <<<"$out" | sed "s/^/triple $triple $side /"
}

# The triples of workload $w, each printed as it runs, in rotating order.
run_triples() {
  local orders=("base head head2" "head head2 base" "head2 base head")
  : >"$work/triples.txt"
  : >"$work/context.txt"
  for triple in $(seq 1 "$triples"); do
    for side in ${orders[$(((triple - 1) % 3))]}; do
      run "$side" "$triple" | tee -a "$work/triples.txt"
    done
  done
}

# The judged and the not-judged table of the triples just run.
tables() {
  # Lines read "triple N SIDE WORKLOAD METRIC VALUE UNIT".
  echo "$w: head against base over $triples triple(s) at seed $seed, $base_rev vs working tree:"
  printf '  %-17s %9s %14s %10s %7s %22s  %s\n' metric head/base "base q1-q3/med" "head worse" equal \
    "A/A head'/head [band]" verdict
  awk 'function sort(a, n,   i, j, x) {
         for (i = 2; i <= n; i++) { x = a[i]; for (j = i - 1; j > 0 && a[j] > x; j--) a[j + 1] = a[j]; a[j + 1] = x }
       }
       # Quantile p of the sorted a[1..n], interpolating between ranks.
       function quantile(a, n, p,   h, lo) {
         h = p * (n - 1) + 1; lo = int(h)
         return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
       }
       { v[$5, $2, $3] = $6 + 0; m[$5] = 1; t[$2] = 1 }
       END {
         for (k in m) {
           n = 0; r = 0; a = 0; worse = 0; better = 0; equal = 0; same = 0
           for (i in t) {
             if (!((k, i, "base") in v && (k, i, "head") in v && (k, i, "head2") in v)) continue
             b = v[k, i, "base"]; h = v[k, i, "head"]; h2 = v[k, i, "head2"]
             base[++n] = b
             if (b > 0) ratio[++r] = h / b
             if (h > 0) aa[++a] = h2 / h
             if (h == b) equal++
             else if (k == "op_per_s" ? h < b : h > b) worse++
             else better++
             if (h == b && h2 == h) same++
           }
           if (n == 0) continue
           sort(base, n); sort(ratio, r); sort(aa, a)
           med = quantile(base, n, 0.5)
           spread = med > 0 ? (quantile(base, n, 0.75) - quantile(base, n, 0.25)) / med : 0
           hb = quantile(ratio, r, 0.5)
           lo = a ? aa[1] : 1; hi = a ? aa[a] : 1
           need = int((8 * n + 9) / 10)
           if (k == "visits_per_query" || k == "index_blocks") {
             verdict = same == n ? "equal" : "moved"
           } else {
             # Which side of the band head/base lies on, as better or worse.
             side = ""
             if (hb > hi) side = k == "op_per_s" ? "better" : "worse"
             if (hb < lo) side = k == "op_per_s" ? "worse" : "better"
             agree = side == "worse" ? worse : side == "better" ? better : 0
             verdict = side != "" && agree >= need ? "resolved " side : "unresolved"
           }
           band = sprintf("%.3f [%.3f-%.3f]", quantile(aa, a, 0.5), lo, hi)
           printf "  %-17s %9.3f %14.3f %7d/%d %4d/%d %22s  %s\n", k, hb, spread, worse, n, equal, n, band, verdict
         }
       }' "$work/triples.txt" | sort

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
  run_triples
  tables | tee -a "$work/tables.txt"
done
if [ "$workloads" != "$workload" ]; then
  echo
  echo "all workloads, judged and not-judged tables again:"
  cat "$work/tables.txt"
fi
