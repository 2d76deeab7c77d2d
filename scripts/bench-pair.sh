#!/usr/bin/env bash
# Interleaved A/B pairs of the judged benchmark (benchmark/, BENCHMARK.json):
# dkbench built from BASE (default HEAD~1) against dkbench built from the
# working tree. Every performance claim is checked this way, once more on a
# seed not used while writing the change.
#
#   make bench-pair WORKLOAD=cold-walk PAIRS=10 [BASE=HEAD~1] [SEED=2003]
#   bash scripts/bench-pair.sh WORKLOAD [PAIRS] [BASE] [SEED]
#
# BASE is exported with `git archive` into target/bench-pair/base, a
# throwaway tree with no git metadata. Each side builds with its own
# CARGO_TARGET_DIR under target/bench-pair. Each pair runs both sides, base
# first in odd pairs and head first in even ones, each `dkbench run
# --workload W --seed SEED --seconds 15 --trace 0` (SEED defaults to 2003;
# dkbench pins itself to one CPU). The script prints each pair's end-to-end
# lines, then the median head/base ratio of every end-to-end metric. Result files go to target/bench-pair/out-{base,head}; nothing
# under benchmark/ and not BENCHMARK.json is written.
set -euo pipefail

workload="${1:?usage: bench-pair.sh WORKLOAD [PAIRS] [BASE] [SEED]}"
pairs="${2:-10}"
base_rev="${3:-HEAD~1}"
seed="${4:-2003}"
root="$(git rev-parse --show-toplevel)"
work="$root/target/bench-pair"
end_to_end='^[^ ]+ (setup_s|op_per_s|peak_rss_mb|visits_per_query|index_blocks) '

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
  if ! out="$("$work/$side-target/release/dkbench" run --workload "$workload" --seed "$seed" \
      --seconds 15 --trace 0 --out "$work/out-$side" 2>"$work/$side.err")"; then
    echo "bench-pair: $side run of pair $pair failed:" >&2
    tail -n 5 "$work/$side.err" >&2
    exit 1
  fi
  grep -E "$end_to_end" <<<"$out" | sed "s/^/pair $pair $side /"
}

cd "$root"
: >"$work/pairs.txt"
for pair in $(seq 1 "$pairs"); do
  order="base head"
  ((pair % 2)) || order="head base"
  for side in $order; do
    run "$side" "$pair" | tee -a "$work/pairs.txt"
  done
done

# Lines read "pair N SIDE WORKLOAD METRIC VALUE UNIT".
echo "median head/base over $pairs pair(s) at seed $seed, $base_rev vs working tree:"
awk '{ v[$2 " " $5, $3] = $6; m[$5] = 1; p[$2] = 1 }
     END { for (k in m) for (i in p) if (v[i " " k, "base"] > 0)
             print k, v[i " " k, "head"] / v[i " " k, "base"] }' "$work/pairs.txt" |
  sort -k1,1 -k2,2g |
  awk '{ r[$1, ++n[$1]] = $2 }
       END { for (k in n) { c = n[k]; mid = int((c + 1) / 2)
               med = (c % 2) ? r[k, mid] : (r[k, mid] + r[k, mid + 1]) / 2
               printf "  %-17s %.3f\n", k, med } }' |
  sort
