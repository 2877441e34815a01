#!/usr/bin/env bash
# fuzz.sh — run every fuzz target listed in fuzz_targets.txt.
#
#   ./fuzz.sh                 # 10s per target
#   FUZZTIME=30s ./fuzz.sh    # longer
set -euo pipefail
cd "$(dirname "$0")"

FUZZTIME="${FUZZTIME:-10s}"
GO="${GO:-go}"

while read -r pkg target; do
	[[ -z "$pkg" || "$pkg" == \#* ]] && continue
	echo "-- $target ($pkg)"
	"$GO" test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" "$pkg"
done < fuzz_targets.txt
