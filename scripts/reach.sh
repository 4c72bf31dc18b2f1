#!/usr/bin/env bash
# Reach: which non-test functions does a failing test defend?
#
# For each non-test function of the named crates (the `fn`s with a body
# before each source file's top-level `#[cfg(test)]`), insert
# `panic!("reach");` as the body's first statement in a scratch copy of
# the checkout, then run, stopping at the first that fails:
#   1. the crate's own tests:  cargo test -q -p CRATE
#   2. tier-1's tests:         cargo test -q
# and print one line per function, in file/line order:
#   FILE:LINE NAME caught-crate|caught-tier1|survived|no-compile
# LINE is the line of the body's `{`, where the panic goes. A test run
# that outlives its timeout counts as a failure (a hang is caught).
# Tier-1's `cargo build --release` is left out: a mutant whose debug
# test build compiles compiles in release too, and no test runs a
# release binary.
# Exits 1 if any function survived.
#
# Usage:
#   scripts/reach.sh [--diff REV] [--match ERE] [--work DIR] CRATE...
#   scripts/reach.sh --list [--diff REV] [--match ERE] CRATE...
#
#   --list      build nothing; print `FILE:LINE NAME` for each function.
#               Exits 1 if a `fn` has no body the script can locate.
#   --diff REV  only the functions whose signature or body the working
#               tree's diff against REV touches.
#   --match ERE only the functions whose `FILE:LINE NAME` matches ERE.
#   --work DIR  the scratch copy and its warm target dir (default
#               ${TMPDIR:-/tmp}/natix-reach). It is re-synced from the
#               checkout's tracked and unignored files on every run; the
#               checkout itself is never written.
#
# CRATE is a package name (natix-store) or its directory under crates/.
# Progress and per-stage wall times go to stderr. A sweep of store,
# server and xpath takes hours; run it in the background.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

usage() {
  echo "usage: scripts/reach.sh [--list] [--diff REV] [--match ERE] [--work DIR] CRATE..." >&2
  exit 2
}

list_only=0 diff_rev="" match="" work="${TMPDIR:-/tmp}/natix-reach"
crates=()
while [ $# -gt 0 ]; do
  case "$1" in
    --list) list_only=1 ;;
    --diff) [ $# -ge 2 ] || usage; diff_rev="$2"; shift ;;
    --match) [ $# -ge 2 ] || usage; match="$2"; shift ;;
    --work) [ $# -ge 2 ] || usage; work="$2"; shift ;;
    -*) usage ;;
    *) crates+=("$1") ;;
  esac
  shift
done
[ ${#crates[@]} -gt 0 ] || usage

# Per-run timeouts: a hang counts as caught, but must not stall the sweep.
crate_timeout=300
tier1_timeout=420

fn_re='^([[:space:]]*)((pub(\([^)]*\))?|const|async|unsafe|extern([[:space:]]+"[^"]*")?|default)[[:space:]]+)*fn[[:space:]]+([A-Za-z_][A-Za-z0-9_]*)'
impl_re='^impl(<.*>)?[[:space:]]+(.*[[:space:]]for[[:space:]]+)?([A-Za-z_][A-Za-z0-9_]*)'

# Functions found by scan_file, one entry per function:
#   "FILE<TAB>FNLINE<TAB>OPENLINE<TAB>OPENCOL<TAB>ENDLINE<TAB>NAME"
# OPENCOL is the 0-based character offset of the body's `{` on OPENLINE.
found=()
unlocated=0

# scan_file FILE: append FILE's non-test functions to `found`.
scan_file() {
  local file="$1" lines n i owner="" indent name j depth col ch text
  local open_line open_col end_line
  mapfile -t lines < "$file"
  n=${#lines[@]}
  for ((i = 0; i < n; i++)); do
    text="${lines[i]}"
    [ "$text" = "#[cfg(test)]" ] && break
    if [[ "$text" =~ $impl_re ]]; then owner="${BASH_REMATCH[3]}"; continue; fi
    [ "$text" = "}" ] && owner=""
    [[ "$text" =~ $fn_re ]] || continue
    indent="${BASH_REMATCH[1]}"
    name="${BASH_REMATCH[6]}"
    [ -n "$indent" ] && [ -n "$owner" ] && name="$owner::$name"
    # Scan from the `fn` keyword for the body's `{` (or a bodiless `;`)
    # outside parentheses and brackets.
    open_line=-1 depth=0
    col=$(( ${#BASH_REMATCH[0]} ))
    for ((j = i; j < n && j < i + 40 && open_line == -1; j++)); do
      text="${lines[j]}"
      [ $j -gt $i ] && col=0
      for ((; col < ${#text}; col++)); do
        ch="${text:col:1}"
        case "$ch" in
          '(' | '[') depth=$((depth + 1)) ;;
          ')' | ']') depth=$((depth - 1)) ;;
          ';') [ $depth -eq 0 ] && { open_line=-2; break; } ;;
          '{') [ $depth -eq 0 ] && { open_line=$j open_col=$col; break; } ;;
          '/') [ "${text:col:2}" = "//" ] && break ;;
        esac
      done
    done
    [ $open_line -eq -2 ] && continue # a trait method's signature
    if [ $open_line -lt 0 ]; then
      echo "reach: $file:$((i + 1)): cannot locate the body of fn $name" >&2
      unlocated=1
      continue
    fi
    # rustfmt puts a multi-line body's closing brace alone on a line at
    # the `fn`'s indent; a body that does not end its line closes on it.
    end_line=$open_line
    if [[ "${lines[open_line]}" == *"{" ]]; then
      end_line=-1
      for ((j = open_line + 1; j < n; j++)); do
        if [ "${lines[j]}" = "$indent}" ]; then end_line=$j; break; fi
      done
      if [ $end_line -lt 0 ]; then
        echo "reach: $file:$((i + 1)): cannot locate the end of fn $name" >&2
        unlocated=1
        continue
      fi
    fi
    found+=("$file"$'\t'"$((i + 1))"$'\t'"$((open_line + 1))"$'\t'"$open_col"$'\t'"$((end_line + 1))"$'\t'"$name")
  done
}

# touched FILE FROM TO: does the diff against $diff_rev touch FILE's
# lines FROM..TO (1-based, in the working tree)?
declare -A hunks=()
touched() {
  local file="$1" from="$2" to="$3" h a b
  if [ -z "${hunks[$file]+x}" ]; then
    hunks[$file]=""
    while IFS= read -r h; do
      [[ "$h" =~ ^@@\ -[0-9,]+\ \+([0-9]+)(,([0-9]+))?\ @@ ]] || continue
      a=${BASH_REMATCH[1]} b=${BASH_REMATCH[3]:-1}
      # A pure deletion (b = 0) touches the lines on both sides of it.
      if [ "$b" -eq 0 ]; then hunks[$file]+="$a $((a + 1)) "; else hunks[$file]+="$a $((a + b - 1)) "; fi
    done < <(git diff -U0 "$diff_rev" -- "$file")
  fi
  set -- ${hunks[$file]}
  while [ $# -ge 2 ]; do
    [ "$1" -le "$to" ] && [ "$2" -ge "$from" ] && return 0
    shift 2
  done
  return 1
}

if [ -n "$diff_rev" ]; then
  git rev-parse -q --verify "$diff_rev^{commit}" > /dev/null || { echo "reach: unknown revision $diff_rev" >&2; exit 2; }
fi

pkgs=()
for c in "${crates[@]}"; do
  dir="crates/${c#natix-}"
  [ -f "$dir/Cargo.toml" ] || { echo "reach: no crate $c under crates/" >&2; exit 2; }
  pkgs+=("natix-${c#natix-}")
  for f in $(git ls-files "$dir/src/*.rs"); do
    scan_file "$f"
  done
done

# The selected functions.
targets=()
for entry in "${found[@]}"; do
  IFS=$'\t' read -r file fn_line open_line open_col end_line name <<< "$entry"
  if [ -n "$diff_rev" ]; then touched "$file" "$fn_line" "$end_line" || continue; fi
  [ -z "$match" ] || [[ "$file:$open_line $name" =~ $match ]] || continue
  targets+=("$entry")
done

if [ $list_only -eq 1 ]; then
  for entry in "${targets[@]}"; do
    IFS=$'\t' read -r file fn_line open_line open_col end_line name <<< "$entry"
    echo "$file:$open_line $name"
  done
  exit $unlocated
fi
[ $unlocated -eq 0 ] || { echo "reach: fix the listing first (see --list)" >&2; exit 2; }

# Sync the scratch copy: every tracked or unignored file of the checkout,
# rewritten only where it differs so the warm target dir stays valid;
# a file the last sync copied that the checkout no longer has is removed.
mkdir -p "$work"
work="$(cd "$work" && pwd)"
case "$work/" in "$repo"/*) echo "reach: --work must lie outside the checkout" >&2; exit 2 ;; esac
mapfile -d '' files < <(git ls-files -z --cached --others --exclude-standard)
if [ -f "$work/.reach-files" ]; then
  while IFS= read -r f; do [ -f "$f" ] || rm -f "$work/$f"; done < "$work/.reach-files"
fi
for f in "${files[@]}"; do
  [ -f "$f" ] || continue
  if [ ! -f "$work/$f" ] || [ "$(cat "$f"; echo x)" != "$(cat "$work/$f"; echo x)" ]; then
    mkdir -p "$work/$(dirname "$f")"
    cp "$f" "$work/$f"
  fi
done
printf '%s\n' "${files[@]}" > "$work/.reach-files"
cd "$work"

stage() { # stage LABEL COMMAND...: run quietly, report wall time on stderr
  local label="$1" t0=$SECONDS rc=0
  shift
  "$@" > /dev/null 2>&1 || rc=$?
  echo "    $label $((SECONDS - t0)) s (exit $rc)" >&2
  return $rc
}

echo "reach: warming $work/target" >&2
stage warm cargo test -q --no-run "${pkgs[@]/#/--package=}" || { echo "reach: the unmutated tree does not build" >&2; exit 2; }

survived=0
for entry in "${targets[@]}"; do
  IFS=$'\t' read -r file fn_line open_line open_col end_line name <<< "$entry"
  pkg="natix-$(echo "$file" | cut -d/ -f2)"
  echo "reach: $file:$open_line $name" >&2
  original="$(cat "$file"; echo x)"
  mapfile -t lines < "$file"
  text="${lines[open_line - 1]}"
  lines[open_line - 1]="${text:0:open_col + 1} panic!(\"reach\");${text:open_col + 1}"
  printf '%s\n' "${lines[@]}" > "$file"
  if ! stage build cargo test -q --no-run -p "$pkg"; then
    verdict=no-compile
  elif ! stage crate timeout "$crate_timeout" cargo test -q -p "$pkg"; then
    verdict=caught-crate
  elif ! stage tier1 timeout "$tier1_timeout" cargo test -q; then
    verdict=caught-tier1
  else
    verdict=survived
    survived=1
  fi
  # A fresh write (new mtime) so cargo rebuilds the unmutated crate.
  printf '%s' "${original%x}" > "$file"
  echo "$file:$open_line $name $verdict"
done
exit $survived
