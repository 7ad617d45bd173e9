#!/usr/bin/env bash
# Non-test line counts for the adgen workspace.
#
# Convention (the one ROADMAP.md's line figures use): every `.rs` file
# under crates/, src/, tests/ and examples/ counts, each up to its
# first line that is exactly `#[cfg(test)]` — the in-file unit-test
# module is left out, integration tests under tests/ are not.
#
# Prints one row per crate (its src/ tree, then everything under the
# crate directory), the facade's src/, tests/ and examples/, and the
# workspace total. Informational only: nothing is gated on it.
#
# Usage: scripts/loc.sh   (from anywhere inside the repo)

set -euo pipefail
cd "$(dirname "$0")/.."

# count DIR... — non-test lines of every .rs file under the given dirs.
count() {
  find "$@" -name '*.rs' -type f -print0 2>/dev/null | sort -z |
    xargs -0 -r awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]$/ { skip = 1 } !skip { n++ } END { print n + 0 }' |
    awk '{ s += $1 } END { print s + 0 }'
}

printf '%-24s %8s %8s\n' "crate" "src" "all"
for dir in crates/*/; do
  dir="${dir%/}"
  src=0
  [[ -d "$dir/src" ]] && src="$(count "$dir/src")"
  printf '%-24s %8d %8d\n' "$dir" "$src" "$(count "$dir")"
done
for dir in src tests examples; do
  printf '%-24s %8d\n' "$dir" "$(count "$dir")"
done
printf '%-24s %8d\n' "workspace" "$(count crates src tests examples)"
