#!/bin/sh
# Per-package coverage report plus the internal/obs coverage floor.
# -short keeps this fast by skipping the multi-second end-to-end and
# equivalence self-tests (campaign, fabric, chaos, checkpoint, trie);
# those exercise integration behaviour the line-coverage floor is not
# about.
# internal/obs is held to a hard floor: it is pure bookkeeping whose
# failures would corrupt metrics silently, so near-total unit coverage is
# the cheapest defense it has.
set -eu
cd "$(dirname "$0")/.."

floor=90.0

echo "==> go test -short -cover ./..."
report=$(go test -short -cover ./...) || { printf '%s\n' "$report"; exit 1; }
printf '%s\n' "$report"

obs=$(printf '%s\n' "$report" | awk '
    $2 == "comfase/internal/obs" {
        for (i = 1; i <= NF; i++)
            if ($i ~ /^[0-9.]+%$/) { sub(/%/, "", $i); print $i }
    }')
if [ -z "$obs" ]; then
    echo "cover: no coverage figure for comfase/internal/obs" >&2
    exit 1
fi
if [ "$(awk -v c="$obs" -v f="$floor" 'BEGIN { print (c >= f) ? 1 : 0 }')" != 1 ]; then
    echo "cover: internal/obs coverage ${obs}% is below the ${floor}% floor" >&2
    exit 1
fi
echo "cover: internal/obs coverage ${obs}% >= ${floor}% floor"
