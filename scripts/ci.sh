#!/usr/bin/env bash
# Local CI: formatting, lints, and the full test suite.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# `tier NAME` opens a tier; the wall time of the one before it is printed
# first, and the total at the end (ROADMAP item 5 gates on it).
tier_name=""
tier_started=$SECONDS
tier() {
  if [ -n "$tier_name" ]; then
    echo "    [$((SECONDS - tier_started)) s] ${tier_name%% (*}"
  fi
  tier_name="${1:-}"
  tier_started=$SECONDS
  [ -z "$tier_name" ] || echo "==> $tier_name"
}

tier "cargo fmt --check"
cargo fmt --all -- --check

tier "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

tier "cargo test"
cargo test -q

tier "results are current (table3 --paper, sweep_k, related_work vs results/*.json: every field but the times is deterministic and must match what is checked in; re-record with the commands in EXPERIMENTS.md, which also give table1 --paper, too slow to run here)"
fresh_json="$(mktemp)"
deterministic() { grep -vE '"(km_seconds|ekm_seconds|speedup)"' "$1"; }
for run in "table3 --paper" "sweep_k" "related_work"; do
  bin="${run%% *}"
  # shellcheck disable=SC2086  # the binary's flags, split on purpose
  cargo run --release -q -p natix-bench --bin "$bin" -- ${run#"$bin"} --json "$fresh_json" > /dev/null 2>&1
  if ! diff <(deterministic "results/$bin.json") <(deterministic "$fresh_json"); then
    echo "FAIL: results/$bin.json is stale" >&2; exit 1
  fi
done
rm -f "$fresh_json"

tier "benchmark package (frozen: must build and run against the current crates/* API)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --workload partition-docs --quick | tail -n 1
# The served path: a pin or threading regression (a leaked pin, a wrong
# answer, a shed, a handler panic) fails the workload's own checks.
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --workload serve-read --quick | tail -n 1
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --workload serve-write --quick | tail -n 1
# The fresh-store writer end to end: streaming sharded bulkload onto files.
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --workload bulkload-stream --quick | tail -n 1

# The campaign table (natix_testkit::CAMPAIGNS; `natix` with no arguments
# prints each row's contract, DESIGN.md §7 its counts). The rows that
# finish in seconds run their full tier, so the acceptance counts (3298
# crash points, 2096 injections, 986 group-commit points, 1936 disk-full
# points, 1200 interleavings, ...) are checked on every run; the rest
# keep --quick (full: repl 19 s, net 37 s, proxy 78 s; leak waits out
# lease TTLs).
campaigns=(
  "soak"
  "soak --corruption"
  "soak --group-commit"
  "soak --bulkload"
  "soak --diskfull"
  "soak --serve"
  "soak --repl --quick"
  "stress --net --quick"
  "stress --net --proxy --quick"
  "stress --net --leak --quick"
)
for words in "${campaigns[@]}"; do
  tier "natix $words"
  # shellcheck disable=SC2086  # the row's command words, split on purpose
  cargo run --release -q -p natix-cli -- $words
done

tier "natix stress, twice (the full chaos summary is deterministic: two runs must print the same line)"
stress_first="$(cargo run --release -q -p natix-cli -- stress)"
echo "$stress_first"
stress_second="$(cargo run --release -q -p natix-cli -- stress 2> /dev/null)"
if [ "$stress_first" != "$stress_second" ]; then
  printf 'FAIL: two full stress runs differ:\n%s\n%s\n' "$stress_first" "$stress_second" >&2
  exit 1
fi

tier "natix fsck smoke (scrub a fresh store, destroy its header, repair, verify the dump round-trips)"
fsck_dir="$(mktemp -d)"
trap 'rm -rf "$fsck_dir"' EXIT
cat > "$fsck_dir/sample.xml" <<'XML'
<library><shelf id="s1"><book><title>Tree Partitioning</title><pages>120</pages></book><book><title>Records and Pages in Depth</title><pages>240</pages></book></shelf><shelf id="s2"><book><title>Sibling Intervals</title></book></shelf></library>
XML
natix() { cargo run --release -q -p natix-cli -- "$@"; }
# Daemons start from the binary itself (built by the campaign loop above),
# so that $! is the daemon: a `cargo run` wrapper would take the SIGKILL
# meant for the primary and leave it running after the script.
natix_bin="${CARGO_TARGET_DIR:-target}/release/natix"
natix load "$fsck_dir/sample.xml" "$fsck_dir/sample.natix" --k 16
natix fsck "$fsck_dir/sample.natix"
# Bulkload under a 2-page pool streams pages out by eviction; the file
# must still scrub clean and dump identically.
natix load "$fsck_dir/sample.xml" "$fsck_dir/tiny.natix" --k 16 --pool-pages 2
natix fsck "$fsck_dir/tiny.natix"
natix dump "$fsck_dir/tiny.natix" --pool-pages 2 > "$fsck_dir/tiny.xml"
natix dump "$fsck_dir/sample.natix" > "$fsck_dir/full.xml"
diff "$fsck_dir/tiny.xml" "$fsck_dir/full.xml"
natix dump "$fsck_dir/sample.natix" > "$fsck_dir/before.xml"
# Destroy the winning header slot (page 1); the store must refuse to open...
dd if=/dev/zero of="$fsck_dir/sample.natix" bs=8192 seek=1 count=1 conv=notrunc status=none
if natix dump "$fsck_dir/sample.natix" > /dev/null 2>&1; then
  echo "FAIL: store opened with a destroyed header" >&2; exit 1
fi
# A scrub never writes: the file is byte-identical after it.
sum_before="$(cksum < "$fsck_dir/sample.natix")"
if natix fsck "$fsck_dir/sample.natix" > /dev/null; then
  echo "FAIL: fsck called a headerless store clean" >&2; exit 1
fi
test "$(cksum < "$fsck_dir/sample.natix")" = "$sum_before" \
  || { echo "FAIL: fsck without --repair wrote the store" >&2; exit 1; }
# ...and fsck --repair must salvage it back to a byte-identical dump.
natix fsck "$fsck_dir/sample.natix" --repair
natix fsck "$fsck_dir/sample.natix"
natix dump "$fsck_dir/sample.natix" > "$fsck_dir/after.xml"
diff "$fsck_dir/before.xml" "$fsck_dir/after.xml"

tier "cross-shard fsck smoke (bulkload a collection, corrupt one shard, fsck must localize the damage)"
natix bulkload "$fsck_dir/coll" --docs 120 --shards 3 --threads 2 --seg-docs 10
natix collection stats "$fsck_dir/coll"
natix collection fsck "$fsck_dir/coll"
natix collection dump "$fsck_dir/coll" 5 > /dev/null
# Stomp live pages of shard 1 only; fsck must flag exactly that shard and
# still certify the other two clean (exit is nonzero while damage exists).
dd if=/dev/urandom of="$fsck_dir/coll/shard-0001.natix" bs=8192 seek=3 count=4 conv=notrunc status=none
sum_before="$(cksum < "$fsck_dir/coll/shard-0001.natix")"
if natix collection fsck "$fsck_dir/coll" > "$fsck_dir/collfsck.out" 2>&1; then
  echo "FAIL: collection fsck missed a corrupted shard" >&2; exit 1
fi
test "$(cksum < "$fsck_dir/coll/shard-0001.natix")" = "$sum_before" \
  || { echo "FAIL: collection fsck wrote the damaged shard" >&2; exit 1; }
grep -q "shard 0: clean" "$fsck_dir/collfsck.out"
grep -q "shard 2: clean" "$fsck_dir/collfsck.out"
if grep -q "shard 1: clean" "$fsck_dir/collfsck.out"; then
  echo "FAIL: collection fsck called the corrupted shard clean" >&2; exit 1
fi

tier "natix serve smoke (daemon on an ephemeral port: one of each verb over the wire, a deterministic shed + honored retry-after, structured exit codes, clean drain)"
serve_dir="$fsck_dir/serve"
mkdir -p "$serve_dir"
natix load "$fsck_dir/sample.xml" "$serve_dir/store.natix" --k 16
"$natix_bin" serve "$serve_dir/store.natix" --addr 127.0.0.1:0 --max-pins 4 > "$serve_dir/serve.log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null; rm -rf "$fsck_dir"' EXIT
for _ in $(seq 1 200); do
  grep -q "listening on" "$serve_dir/serve.log" && break
  sleep 0.05
done
addr="$(sed -n 's/.*listening on //p' "$serve_dir/serve.log" | head -n 1)"
[ -n "$addr" ] || { echo "FAIL: serve printed no listen banner" >&2; exit 1; }
natix net "$addr" ping
test "$(natix net "$addr" query '//book/title' --count)" = 3
# The wire dump must match a local dump of the same source, byte for byte.
natix net "$addr" dump > "$serve_dir/wire.xml"
diff "$serve_dir/wire.xml" "$fsck_dir/full.xml"
# Local and served queries render hits through one function: same lines.
natix query "$serve_dir/store.natix" '//book/title' > "$serve_dir/local-query.out" 2> /dev/null
natix net "$addr" query '//book/title' > "$serve_dir/wire-query.out" 2> /dev/null
test -s "$serve_dir/local-query.out"
diff "$serve_dir/local-query.out" "$serve_dir/wire-query.out"
natix net "$addr" update '//library' append-element annex
test "$(natix net "$addr" query '//annex' --count)" = 1
natix net "$addr" stats > "$serve_dir/stats.out"
grep -q "live records" "$serve_dir/stats.out"
# Resource observability: pin/lease/backlog/read-only gauges are served.
grep -q "session-pinned" "$serve_dir/stats.out"
# Reads run on the workers; with nothing running the gauge reads zero.
grep -q "reads        : 0 in flight, peak" "$serve_dir/stats.out"
grep -q "read-only    : no" "$serve_dir/stats.out"
grep -q "superseded pages" "$serve_dir/stats.out"
natix net "$addr" fsck > /dev/null
# Deterministic backpressure round trip: saturate the 4 session pins,
# observe a typed retry-after for the next begin and for an unpinned
# query and dump (the pin budget is the one gate; no read runs
# without a pin), release one, get admitted.
natix net "$addr" shed-probe --pins 4 > "$serve_dir/shed.out"
grep -q "^shed observed" "$serve_dir/shed.out"
grep -q "^read shed observed" "$serve_dir/shed.out"
grep -q "retry honored" "$serve_dir/shed.out"
# Structured exit codes: usage errors are 2, transport failures are 5.
rc=0; natix net "$addr" frobnicate 2> /dev/null || rc=$?
test "$rc" -eq 2 || { echo "FAIL: unknown net verb exited $rc, want 2" >&2; exit 1; }
rc=0; natix query "$serve_dir/no-such.natix" '//x' 2> /dev/null || rc=$?
test "$rc" -eq 5 || { echo "FAIL: missing store exited $rc, want 5" >&2; exit 1; }
# Clean drain: the shutdown verb must stop the daemon with exit 0.
natix net "$addr" shutdown
wait "$serve_pid"
grep -q "drained and stopped" "$serve_dir/serve.log"
trap 'rm -rf "$fsck_dir"' EXIT

tier "natix serve replication smoke (primary + hot standby: update storm, lag drains to 0, same-epoch dumps byte-identical, standby sheds writes read-only, SIGKILL primary, promote, promoted store serves writes)"
repl_dir="$fsck_dir/repl"
mkdir -p "$repl_dir"
natix load "$fsck_dir/sample.xml" "$repl_dir/primary.natix" --k 16
"$natix_bin" serve "$repl_dir/primary.natix" --addr 127.0.0.1:0 > "$repl_dir/primary.log" &
primary_pid=$!
trap 'kill -9 "$primary_pid" 2>/dev/null; rm -rf "$fsck_dir"' EXIT
for _ in $(seq 1 200); do
  grep -q "listening on" "$repl_dir/primary.log" && break
  sleep 0.05
done
primary_addr="$(sed -n 's/.*listening on //p' "$repl_dir/primary.log" | head -n 1)"
[ -n "$primary_addr" ] || { echo "FAIL: primary printed no listen banner" >&2; exit 1; }
"$natix_bin" serve "$repl_dir/standby.natix" --addr 127.0.0.1:0 --replica-of "$primary_addr" \
  > "$repl_dir/standby.log" &
standby_pid=$!
trap 'kill -9 "$primary_pid" "$standby_pid" 2>/dev/null; rm -rf "$fsck_dir"' EXIT
for _ in $(seq 1 200); do
  grep -q "listening on" "$repl_dir/standby.log" && break
  sleep 0.05
done
standby_addr="$(sed -n 's/.*listening on //p' "$repl_dir/standby.log" | head -n 1)"
[ -n "$standby_addr" ] || { echo "FAIL: standby printed no listen banner" >&2; exit 1; }
# A short update storm on the primary while the standby follows live.
for i in $(seq 1 8); do
  natix net "$primary_addr" update '//library' append-element "wing$i"
done
# The primary's lag gauge must drain to 0 (every committed epoch acked);
# "1 followers" guards against matching the vacuous 0-follower line
# during a follower reconnect.
caught_up=0
for _ in $(seq 1 200); do
  if natix net "$primary_addr" stats | grep -q "1 followers, lag 0 epochs"; then caught_up=1; break; fi
  sleep 0.05
done
test "$caught_up" -eq 1 || { echo "FAIL: standby never reached lag 0" >&2; exit 1; }
# ...at which point same-epoch dumps must be byte-identical.
natix net "$primary_addr" dump > "$repl_dir/primary.xml"
natix net "$standby_addr" dump > "$repl_dir/standby.xml"
diff "$repl_dir/primary.xml" "$repl_dir/standby.xml"
natix net "$standby_addr" stats | grep -q "role         : replica"
# Writes to the standby shed with the typed read-only retry-after (exit 3).
rc=0; natix net "$standby_addr" update '//library' append-element nope --retries 0 2> /dev/null || rc=$?
test "$rc" -eq 3 || { echo "FAIL: standby write exited $rc, want 3 (read-only shed)" >&2; exit 1; }
# Failover: SIGKILL the primary, promote the standby, verify it went writable.
kill -9 "$primary_pid"
wait "$primary_pid" 2> /dev/null || true
natix net "$standby_addr" promote
natix net "$standby_addr" fsck > /dev/null
# The promoted store holds exactly the acked history (lag was 0 at the
# kill, so that is the full storm) and now accepts writes.
natix net "$standby_addr" dump > "$repl_dir/promoted.xml"
diff "$repl_dir/primary.xml" "$repl_dir/promoted.xml"
natix net "$standby_addr" update '//library' append-element promoted
test "$(natix net "$standby_addr" query '//promoted' --count)" = 1
natix net "$standby_addr" shutdown
wait "$standby_pid"
grep -q "drained and stopped" "$repl_dir/standby.log"
trap 'rm -rf "$fsck_dir"' EXIT

tier
echo "CI OK ($SECONDS s)"
