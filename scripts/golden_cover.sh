#!/usr/bin/env bash
# golden_cover.sh checks that the golden digests reach the decision code:
# it runs TestGoldenSeedDigests with coverage over internal/core,
# internal/swarm and internal/sim, and fails when any Pick of a
# core.Picker or any Round of a core.Choker (every method of that name in
# internal/core's non-test files) is at 0 %. A rule no golden runs can be
# broken without moving a digest. It also fails when the production
# functions at 0 % differ from scripts/golden_uncovered.txt, the triaged
# list of what no golden reaches and why: a newly uncovered function must
# be listed with a reason, and a listed one that a golden now covers, or
# that no production file defines any more, must be removed. Prints the
# checked functions and exits 1 on a gap, 0 when all agree.
#
#   bash scripts/golden_cover.sh
set -euo pipefail
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
status=0

go test -count=1 -timeout 5m -run '^TestGoldenSeedDigests$' \
	-coverpkg=./internal/core,./internal/swarm,./internal/sim \
	-coverprofile="$tmp/cover.out" . >"$tmp/test.txt" ||
	{ cat "$tmp/test.txt" >&2; exit 1; }
go tool cover -func="$tmp/cover.out" >"$tmp/func.txt"

# Lines look like "rarestfirst/internal/core/picker.go:61:<tab>Pick<tab>100.0%".
awk '
	$1 ~ /\/internal\/core\/[^\/]+\.go:[0-9]+:$/ && $1 !~ /_test\.go:/ &&
	($2 == "Pick" || $2 == "Round") {
		print
		n++
		if ($3 == "0.0%") { gap++; print "golden_cover: no golden runs " $1 " " $2 > "/dev/stderr" }
	}
	END {
		if (n == 0) { print "golden_cover: no Pick or Round found in the profile" > "/dev/stderr"; exit 1 }
		exit gap > 0
	}
' "$tmp/func.txt" || status=1

# Keys are "internal/<pkg>/<file>.go <function>": funcs.txt has one line
# per production function (key, then coverage), zero.txt the 0 % keys.
awk '$1 ~ /\/internal\/(core|swarm|sim)\/[^\/]+\.go:[0-9]+:$/ && $1 !~ /_test\.go:/ {
	f = $1; sub(/^.*\/internal\//, "internal/", f); sub(/:[0-9]+:$/, "", f); print f " " $2 " " $3
}' "$tmp/func.txt" >"$tmp/funcs.txt"
awk '$3 == "0.0%" { print $1 " " $2 }' "$tmp/funcs.txt" | sort >"$tmp/zero.txt"
awk '!/^#/ && NF { print $1 " " $2 }' scripts/golden_uncovered.txt | sort >"$tmp/listed.txt"
while read -r key; do
	echo "golden_cover: $key is at 0 % but not in scripts/golden_uncovered.txt" >&2
	status=1
done < <(comm -23 "$tmp/zero.txt" "$tmp/listed.txt")
while read -r key; do
	if cut -d' ' -f1,2 "$tmp/funcs.txt" | grep -qxF "$key"; then
		echo "golden_cover: $key is listed in scripts/golden_uncovered.txt but a golden now covers it" >&2
	else
		echo "golden_cover: $key is listed in scripts/golden_uncovered.txt but no production file defines it; delete its line" >&2
	fi
	status=1
done < <(comm -13 "$tmp/zero.txt" "$tmp/listed.txt")
exit "$status"
