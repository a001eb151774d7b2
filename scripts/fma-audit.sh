#!/bin/sh
# Fused multiply-add audit. The Go spec lets the compiler fuse x*y + z
# into one FMA instruction, which rounds once instead of twice and so
# changes the result bits. amd64 never fuses; arm64, riscv64, ppc64le and
# s390x do. This cross-compiles ./internal/... for those four with
# -gcflags=-S, counts the fused instructions each source file compiles
# to, and fails if any count exceeds the committed per-file baseline in
# scripts/fma-baseline.txt. An explicit float64(x*y) conversion forces
# the product to round and so blocks fusion; on amd64 it changes nothing.
# Cross-compiling needs neither foreign hardware nor the network.
#
# Usage: scripts/fma-audit.sh           check against the baseline
#        scripts/fma-audit.sh -update   rewrite the baseline from this tree
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
baseline=scripts/fma-baseline.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for arch in arm64 riscv64 ppc64le s390x; do
	if ! GOOS=linux GOARCH=$arch go build -gcflags=-S ./internal/... >"$tmp/$arch.s" 2>&1; then
		cat "$tmp/$arch.s" >&2
		echo "fma-audit: GOARCH=$arch build failed" >&2
		exit 1
	fi
	# An assembly line reads "<pc> <offset> (<file>:<line>) <MNEMONIC> <args>".
	sed -n -E 's/^.*\(([^()]*):[0-9]+\)[[:space:]]+(FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADD|FMSUB|FNMSUB|WFMADB|WFMSDB)([[:space:]].*)?$/\1/p' "$tmp/$arch.s" |
		sed "s|^$root/||" | sort | uniq -c |
		awk -v arch="$arch" '{ print arch, $1, $2 }' >>"$tmp/counts"
done
touch "$tmp/counts"

if [ "${1:-}" = "-update" ]; then
	{
		echo "# Fused multiply-add instructions per source file and architecture,"
		echo "# as counted by scripts/fma-audit.sh: <GOARCH> <count> <file>. The"
		echo "# audit fails when a file exceeds its count here (absent means 0)."
		echo "# Regenerate with scripts/fma-audit.sh -update after removing sites."
		cat "$tmp/counts"
	} >"$baseline"
	echo "fma-audit: wrote $baseline"
	exit 0
fi

awk '
	FNR == NR { if ($0 !~ /^#/ && NF == 3) allowed[$1 " " $3] = $2; next }
	{
		key = $1 " " $3
		total[$1] += $2
		if ($2 > allowed[key] + 0) {
			printf "fma-audit: %s %s: %d fused instructions, baseline %d\n", $1, $3, $2, allowed[key] + 0
			bad = 1
		} else if ($2 < allowed[key] + 0) {
			printf "fma-audit: %s %s: %d, below baseline %d (lower it with -update)\n", $1, $3, $2, allowed[key]
		}
		seen[key] = 1
	}
	END {
		for (key in allowed) if (!(key in seen) && allowed[key] > 0)
			printf "fma-audit: %s: 0, below baseline %d (lower it with -update)\n", key, allowed[key]
		n = split("arm64 riscv64 ppc64le s390x", archs, " ")
		for (i = 1; i <= n; i++) printf "fma-audit: %s: %d fused instructions\n", archs[i], total[archs[i]]
		if (bad) { print "fma-audit: FAIL: new fused multiply-adds; convert the product with float64(x*y)"; exit 1 }
		print "fma-audit: ok"
	}
' "$baseline" "$tmp/counts"
