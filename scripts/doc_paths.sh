#!/usr/bin/env sh
# Every back-ticked repository path in the top-level docs must exist.
#
# A path is a back-ticked token that starts with crates/, src/, tests/,
# scripts/, results/ or benchmark/. A `:line` or `::item` suffix is cut
# off; tokens with a glob, placeholder or variable in them (`*`, `<`, `{`,
# `$`) name no single file and are skipped, as is anything under the
# ignored results/cache/. Fails naming the first path that is missing.
set -eu

cd "$(dirname "$0")/.."

for doc in README.md DESIGN.md EXPERIMENTS.md; do
  grep -o '`\(crates\|src\|tests\|scripts\|results\|benchmark\)/[^` ]*`' "$doc" |
    sed -e 's/^`//' -e 's/`$//' -e 's/:.*$//' -e 's/[.,;)]*$//' |
    grep -v -e '[*<{$]' -e '^results/cache' |
    sort -u |
    while read -r path; do
      [ -e "$path" ] || { echo "$doc names \`$path\`, which does not exist"; exit 1; }
    done
done
