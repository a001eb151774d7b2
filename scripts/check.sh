#!/bin/sh
# Tier-1 verification gate: the Makefile's `check` target is the one list
# of gates; this script only runs it from the repository root.
set -eu
cd "$(dirname "$0")/.."
exec make check
