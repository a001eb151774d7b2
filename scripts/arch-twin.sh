#!/bin/sh
# Cross-architecture determinism twin (`make arch-twin`, part of `make
# check`): build comfase natively and for GOARCH=386, run the committed
# matrix config scripts/arch-twin.json under each with JSON-lines output,
# and fail unless the two files are byte-identical. The JSONL carries
# every float64 at full precision, unlike the 4-decimal results CSV, and
# 386 computes math.Exp and math.Log in pure Go where amd64 uses
# assembly, so the twin catches bit-level divergence the CSV would hide.
# The config covers every attack family `comfase list` prints at 4 and 8
# vehicles; the script fails if a family is missing from it.
set -eu
cd "$(dirname "$0")/.."

CONFIG=scripts/arch-twin.json
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/native" ./cmd/comfase
GOARCH=386 go build -o "$TMP/386" ./cmd/comfase

missing=$("$TMP/native" list |
    awk '/^attacks:/ {on = 1; next} /^campaigns:/ {on = 0} on && /^  [^ ]/ {print $1}' |
    while read -r name; do
        grep -q "\"name\": \"$name\"" "$CONFIG" || printf '%s ' "$name"
    done)
if [ -n "$missing" ]; then
    echo "arch-twin: $CONFIG lacks attack families: $missing" >&2
    exit 1
fi

for arch in native 386; do
    "$TMP/$arch" campaign -config "$CONFIG" -workers 0 -jsonl "$TMP/$arch.jsonl" -out "$TMP/$arch.txt"
done
if ! cmp "$TMP/native.jsonl" "$TMP/386.jsonl"; then
    echo "arch-twin: GOARCH=386 results differ from GOARCH=$(go env GOARCH)" >&2
    exit 1
fi
echo "arch-twin: $(wc -l < "$TMP/native.jsonl") experiments bit-identical on $(go env GOARCH) and 386"
