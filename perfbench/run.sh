#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload characterize --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the go command's own configuration
# and telemetry files, and result files stay under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if ! (cd "$here" && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$build/perfbench" "$@"
