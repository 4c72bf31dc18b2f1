#!/usr/bin/env bash
# Pair: compare two revisions on one benchmark workload, in alternation.
#
# Checks out each revision in its own git worktree (under the work
# directory, never inside this checkout), builds each side's benchmark
# package once, then runs BENCHMARK.json's command N times per side:
# pair i runs both sides with seed i, and the side that goes first flips
# every pair, so a slow stretch of the host lands on both. Each run's
# last stdout line is its JSON result. Per end-to-end metric of
# BENCHMARK.json (the change side's) it prints both medians, the parent's
# interquartile distance (linear interpolation) and in how many pairs the
# change was ahead, in the direction of the metric's `better` field.
# Failed operations are summed per side.
#
# Usage:
#   scripts/pair.sh PARENT-REV CHANGE-REV --workload W [--pairs N] [--work DIR]
#
#   --workload W  one of BENCHMARK.json's workloads (required).
#   --pairs N     runs per side (default 10).
#   --work DIR    worktrees, warm benchmark builds and the raw results
#                 (default ${TMPDIR:-/tmp}/natix-pair). A worktree is
#                 named after its commit and reused on later runs.
#
# Needs bash, git, cargo, jq, awk and coreutils. Writes nothing under
# this checkout's benchmark/; each run writes only inside its worktree.
set -euo pipefail

# help: this header, without the comment marks.
help() {
  sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//'
}

usage() {
  help >&2
  exit 2
}

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

revs=() workload="" pairs=10 work="${TMPDIR:-/tmp}/natix-pair"
while [ $# -gt 0 ]; do
  case "$1" in
    -h | --help) help; exit 0 ;;
    --workload) [ $# -ge 2 ] || usage; workload="$2"; shift ;;
    --pairs) [ $# -ge 2 ] || usage; pairs="$2"; shift ;;
    --work) [ $# -ge 2 ] || usage; work="$2"; shift ;;
    -*) usage ;;
    *) revs+=("$1") ;;
  esac
  shift
done
[ ${#revs[@]} -eq 2 ] && [ -n "$workload" ] || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "pair: --pairs must be a positive count" >&2; exit 2; }

work="$(realpath -m "$work")"
case "$work/" in
  "$(pwd -P)/"*) echo "pair: the work directory $work is inside the checkout" >&2; exit 2 ;;
esac
mkdir -p "$work"

# checkout REV: print the worktree directory of REV, built.
checkout() {
  local sha dir
  sha="$(git rev-parse --verify -q "$1^{commit}")" || { echo "pair: no commit $1" >&2; exit 2; }
  dir="$work/$sha"
  if [ ! -e "$dir/.git" ]; then
    git worktree prune
    rm -rf "$dir"
    git worktree add -q --detach "$dir" "$sha" >&2
  fi
  echo "pair: building $1 ($sha) in $dir" >&2
  (cd "$dir" && cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml) >&2
  echo "$dir"
}

parent_dir="$(checkout "${revs[0]}")"
change_dir="$(checkout "${revs[1]}")"
jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' "$change_dir/BENCHMARK.json" > /dev/null ||
  { echo "pair: no workload $workload in BENCHMARK.json" >&2; exit 2; }

out="$work/results-$workload-$(date +%Y%m%dT%H%M%S)"
mkdir -p "$out"

# run SIDE DIR SEED: one benchmark run, its JSON line kept in $out.
run() {
  local side="$1" dir="$2" seed="$3" cmd line
  mapfile -t cmd < <(jq -r '.command[]' "$dir/BENCHMARK.json")
  # A run with a failed operation exits 1 but still prints its result:
  # keep it, so the summary counts it. Only a missing result stops.
  line="$(cd "$dir" && "${cmd[@]}" --workload "$workload" --seed "$seed" | tail -n 1)" || true
  echo "$line" | jq -e '.metrics' > /dev/null ||
    { echo "pair: $side run with seed $seed printed no result: $line" >&2; exit 1; }
  echo "$line" > "$out/$side-$seed.json"
}

for ((i = 1; i <= pairs; i++)); do
  echo "pair: $i of $pairs" >&2
  if ((i % 2)); then
    run parent "$parent_dir" "$i"
    run change "$change_dir" "$i"
  else
    run change "$change_dir" "$i"
    run parent "$parent_dir" "$i"
  fi
done

# values SIDE METRIC: the metric's value in each of SIDE's runs, in pair
# order; nothing when the workload does not report it.
values() {
  local i
  for ((i = 1; i <= pairs; i++)); do
    jq -r --arg m "$2" '.metrics[$m].value // empty' "$out/$1-$i.json"
  done
}

# quantile Q: the Q-quantile of the numbers on stdin.
quantile() {
  sort -g | awk -v q="$1" '{ v[NR] = $1 } END {
    h = (NR - 1) * q; lo = int(h)
    printf "%.10g", v[lo + 1] + (h - lo) * (v[lo + 2 > NR ? NR : lo + 2] - v[lo + 1]) }'
}

echo "workload $workload, $pairs pairs (seeds 1..$pairs, first side flipping each pair)"
echo "parent ${revs[0]} ($(git rev-parse --short "${revs[0]}")), change ${revs[1]} ($(git rev-parse --short "${revs[1]}"))"
printf '%-16s %-7s %14s %14s %12s %s\n' metric better parent-median change-median parent-iqr "change ahead"
jq -r '.end_to_end[] | "\(.name) \(.better)"' "$change_dir/BENCHMARK.json" |
  while read -r metric better; do
    p="$(values parent "$metric")"
    c="$(values change "$metric")"
    [ -n "$p" ] && [ -n "$c" ] || continue
    ahead="$(paste <(echo "$p") <(echo "$c") |
      awk -v b="$better" '(b == "higher" && $2 > $1) || (b == "lower" && $2 < $1) { n++ } END { print n + 0 }')"
    iqr="$(awk -v a="$(echo "$p" | quantile 0.75)" -v b="$(echo "$p" | quantile 0.25)" \
      'BEGIN { printf "%.10g", a - b }')"
    printf '%-16s %-7s %14s %14s %12s %s\n' "$metric" "$better" \
      "$(echo "$p" | quantile 0.5)" "$(echo "$c" | quantile 0.5)" "$iqr" "$ahead of $pairs"
  done
for side in parent change; do
  cat "$out/$side"-*.json | jq -s -r --arg s "$side" \
    '"\($s): \(map(.failed) | add) of \(map(.attempted) | add) operations failed, correct in \(map(select(.correct)) | length) of \(length) runs"'
done
echo "raw results: $out"
