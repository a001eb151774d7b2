#!/bin/sh
# Builds the end-to-end benchmark driver from source and runs it from the
# repository root with every argument passed through. The Go build cache
# and all scratch files stay under .bench_build/e2e in the checkout.
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
out="$root/.bench_build/e2e"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache"
GOPATH="$out/gopath"
GOTMPDIR="$out/tmp"
TMPDIR="$out/tmp"
XDG_CONFIG_HOME="$out/config"
GOTOOLCHAIN=local
GOPROXY=off
export GOCACHE GOPATH GOTMPDIR TMPDIR XDG_CONFIG_HOME GOTOOLCHAIN GOPROXY
(cd bench/e2e && go build -o "$out/driver" .)
exec "$out/driver" "$@"
