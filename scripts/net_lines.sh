#!/bin/sh
# Line counts of the working tree against a base commit.
#
#   scripts/net_lines.sh BASE
#
# Prints added, removed and net lines of OCaml sources (.ml and .mli) per
# top-level directory (lib, bin, bench, test, examples), their total, and
# separately the cram golden files (.t), so a change reports its net
# size both with and without recorded CLI output.  Counts come from
# `git diff --numstat BASE`, which sees tracked files only: stage new
# files (`git add`) before counting.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 BASE" >&2
  exit 2
fi
base=$1
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
  echo "$0: unknown commit $base" >&2
  exit 1
}

git diff --numstat "$base" -- '*.ml' '*.mli' '*.t' | awk '
  $1 != "-" {
    dir = $3; sub(/\/.*/, "", dir)
    kind = ($3 ~ /\.t$/) ? "golden" : "code"
    key = kind SUBSEP dir
    add[key] += $1; del[key] += $2
  }
  function row(label, a, d) { printf "%-12s %+7d %+7d %+7d\n", label, a, -d, a - d }
  END {
    printf "%-12s %7s %7s %7s\n", "ml+mli", "added", "removed", "net"
    n = split("lib bin bench test examples", dirs, " ")
    for (i = 1; i <= n; i++) {
      k = "code" SUBSEP dirs[i]
      row(dirs[i], add[k], del[k]); ta += add[k]; td += del[k]
    }
    row("total", ta, td)
    ga = 0; gd = 0
    for (k in add) if (index(k, "golden" SUBSEP) == 1) { ga += add[k]; gd += del[k] }
    printf "\n%-12s %7s %7s %7s\n", "golden .t", "added", "removed", "net"
    row(".t", ga, gd)
    row("total+.t", ta + ga, td + gd)
  }'
