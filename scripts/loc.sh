#!/usr/bin/env bash
# Prints the workspace's non-test line count: for every Rust file under
# crates/*/src and src/, the lines before its first `#[cfg(test)]` (the
# whole file when it has none). Run from anywhere inside the repository:
#
#   scripts/loc.sh            # total only
#   scripts/loc.sh --files    # per-file counts, then the total
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' | LC_ALL=C sort | while read -r file; do
    lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    echo "$lines $file"
done | awk -v files="${1:-}" '
    files == "--files" { print }
    { total += $1 }
    END { print total " non-test lines (crates/*/src + src/, before #[cfg(test)])" }
'
