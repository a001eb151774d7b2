#!/bin/sh
# Workload coverage report (`make workload-cover`; a report, not a gate):
# which functions does no real workload run? Build comfase,
# comfase-figures and the nine examples with coverage instrumentation of
# every package (`go build -cover -coverpkg=./...`), run them all into one
# GOCOVERDIR, and print every function none of them executed, then the
# count. The workloads are the paper's full reproduction
# (comfase-figures), a platoon-matrix-shaped 16-vehicle grid, every attack
# family at 4 and 8 vehicles (scripts/arch-twin.json), a paper delay
# slice drained by `comfase serve` and two `comfase work` processes, and
# the examples. Only the Go toolchain is used (`go tool covdata`, `go
# tool cover`). Tests do not count: a function only tests reach is what
# this report is for.
set -eu
cd "$(dirname "$0")/.."
ROOT="$(pwd)"

TMP="$(mktemp -d)"
SERVE_PID=
cleanup() {
    if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi
    rm -rf "$TMP"
}
trap cleanup EXIT
BIN="$TMP/bin"
RUN="$TMP/run"
mkdir -p "$BIN" "$RUN" "$TMP/cov"

echo "==> building with coverage instrumentation" >&2
go build -cover -coverpkg=./... -o "$BIN/comfase" ./cmd/comfase
go build -cover -coverpkg=./... -o "$BIN/comfase-figures" ./cmd/comfase-figures
EXAMPLES=
for main in examples/*/main.go; do
    name="$(basename "$(dirname "$main")")"
    go build -cover -coverpkg=./... -o "$BIN/example-$name" "./examples/$name"
    EXAMPLES="$EXAMPLES $name"
done

GOCOVERDIR="$TMP/cov"
export GOCOVERDIR
cd "$RUN"

echo "==> comfase-figures" >&2
"$BIN/comfase-figures" -out "$RUN/figures" >/dev/null

echo "==> platoon-matrix-shaped grid, arch-twin grid" >&2
"$BIN/comfase" campaign -config "$ROOT/internal/runner/testdata/reftwin/platoon16.json" -workers 2 \
    -results "$RUN/platoon16.csv" -out "$RUN/platoon16.txt"
"$BIN/comfase" campaign -config "$ROOT/scripts/arch-twin.json" -workers 2 \
    -jsonl "$RUN/arch-twin.jsonl" -out "$RUN/arch-twin.txt"

echo "==> serve + two work processes" >&2
"$BIN/comfase" serve -config "$ROOT/internal/runner/testdata/reftwin/paper-delay.json" \
    -results "$RUN/fabric.csv" -addr 127.0.0.1:0 >"$RUN/serve.log" 2>&1 &
SERVE_PID=$!
URL=
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    URL="$(grep -om1 'http://[0-9.]*:[0-9]*' "$RUN/serve.log" || true)"
    [ -n "$URL" ] && break
    sleep 0.25
done
if [ -z "$URL" ]; then
    echo "workload-cover: serve printed no address:" >&2
    cat "$RUN/serve.log" >&2
    exit 1
fi
"$BIN/comfase" work -coordinator "$URL" -workers 1 >"$RUN/work1.log" 2>&1 &
W1=$!
"$BIN/comfase" work -coordinator "$URL" -workers 1 >"$RUN/work2.log" 2>&1
wait "$W1"
wait "$SERVE_PID"
SERVE_PID=

for name in $EXAMPLES; do
    echo "==> example $name" >&2
    "$BIN/example-$name" >/dev/null
done

cd "$ROOT"
go tool covdata textfmt -i "$TMP/cov" -o "$TMP/cover.out"
go tool cover -func "$TMP/cover.out" | awk '
    $1 == "total:" { next }
    { total++ }
    $NF == "0.0%" { never++; print }
    END { printf "workload-cover: %d of %d functions never executed\n", never, total }'
