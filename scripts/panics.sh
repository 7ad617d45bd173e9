#!/usr/bin/env bash
# Panic sites in the adgen workspace's library code.
#
# Convention (the one ROADMAP.md's panic-site table uses): the
# non-test lines of every crate's src/ tree, each `.rs` file up to its
# first line that is exactly `#[cfg(test)]` (as in scripts/loc.sh),
# leaving out the adgen-bench and adgen-fuzz harnesses and the facade
# (re-exports only). A site is one match of `.unwrap()`, `.expect(`,
# `panic!(` or `unreachable!(` on a line that is not a comment;
# `obs::json`'s parser has its own `expect(byte)` method, whose calls
# are not sites.
#
# Prints one row per crate and the total. Informational only: nothing
# is gated on it.
#
# Usage: scripts/panics.sh   (from anywhere inside the repo)

set -euo pipefail
cd "$(dirname "$0")/.."

# count DIR — panic sites in the non-test lines of DIR's .rs files.
count() {
  find "$1" -name '*.rs' -type f -print0 | sort -z |
    xargs -0 -r awk '
      FNR == 1 { skip = 0 }
      /^#\[cfg\(test\)\]$/ { skip = 1 }
      skip || /^[[:space:]]*\/\// { next }
      {
        line = $0
        if (FILENAME ~ /crates\/obs\/src\/json\.rs$/) gsub(/self\.expect\(b/, "", line)
        n += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "", line)
      }
      END { print n + 0 }' |
    awk '{ s += $1 } END { print s + 0 }'
}

total=0
printf '%-24s %6s\n' "crate" "sites"
for dir in crates/*/; do
  dir="${dir%/}"
  case "$dir" in crates/bench | crates/fuzz) continue ;; esac
  sites="$(count "$dir/src")"
  total=$((total + sites))
  printf '%-24s %6d\n' "$dir" "$sites"
done
printf '%-24s %6d\n' "total" "$total"
