#!/usr/bin/env bash
# fused_float.sh checks that no float multiply-add is fused outside bench/.
# The Go spec lets a compiler fuse x*y + z into one rounding; gc does so
# on arm64, ppc64le, s390x and riscv64 (never on amd64), which would make
# a seeded run's numbers differ by port. An explicit float64(...) around
# the product forbids it. The script cross-compiles every package outside
# bench/ for those four ports with -gcflags=-S and reads the compiler's
# assembly, not the source, because fusion can cross statements. It
# prints the file:line of every fused instruction (FMADD, FMSUB, FNMADD,
# FNMSUB and their S/D forms) and exits 1 if there is one, 0 when all
# four ports are clean.
#
#   bash scripts/fused_float.sh
set -euo pipefail
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
root="$PWD/"

mapfile -t pkgs < <(go list ./... | grep -v '/bench\(/\|$\)')
status=0
for arch in arm64 ppc64le s390x riscv64; do
	# -S prints each listed package's assembly on stderr; a cached build
	# replays it. Lines look like
	# "<tab>0x00a4 00164 (/path/file.go:29)<tab>FNMSUBD<tab>F0, F3, F2, F2".
	if ! GOOS=linux GOARCH="$arch" go build -gcflags=-S "${pkgs[@]}" 2>"$tmp/asm.txt" >/dev/null; then
		grep -v '^[[:space:]]' "$tmp/asm.txt" >&2 || true
		echo "fused_float: $arch build failed" >&2
		exit 2
	fi
	awk -v root="$root" '
		match($0, /\([^)]+:[0-9]+\)\t+FN?M(ADD|SUB)[SD]?\t/) {
			hit = substr($0, RSTART + 1, RLENGTH - 1)
			loc = substr(hit, 1, index(hit, ")") - 1)
			if (index(loc, root) == 1) loc = substr(loc, length(root) + 1)
			op = substr(hit, index(hit, ")") + 1)
			gsub(/\t/, "", op)
			n++
			if (!(loc in seen)) { seen[loc] = op; order[++k] = loc }
		}
		END {
			for (i = 1; i <= k; i++) print "  " order[i] "\t" seen[order[i]]
			printf "%d\t%d\n", n, k > "/dev/stderr"
		}
	' "$tmp/asm.txt" >"$tmp/hits.txt" 2>"$tmp/count.txt"
	read -r insns lines <"$tmp/count.txt"
	if [ "$insns" -gt 0 ]; then
		echo "$arch: $insns fused instructions on $lines source lines:"
		sort "$tmp/hits.txt"
		status=1
	else
		echo "$arch: no fused instructions"
	fi
done
exit $status
