#!/usr/bin/env bash
# End-to-end serving benchmark entry point. Run from the repository root:
#
#   bash e2ebench/run.sh --workload predict-direct --seed 1 --seconds 20 --trace 0
#
# Builds cmd/servd, cmd/router and the load generator from the tree into
# .bench_build/ (with the Go build cache kept there too), then runs the
# generator, which prints its report and, last, one JSON result line.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/servd" ] || [ ! -d "$root/cmd/router" ]; then
	echo "e2ebench: run from the repository root (cmd/servd and cmd/router not found)" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/tmp"
# Keep every file the toolchain and the benchmark write (build cache,
# temporary build dirs, telemetry counters) inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off XDG_CONFIG_HOME="$out/xdg"
go build -o "$out/bin/servd" ./cmd/servd
go build -o "$out/bin/router" ./cmd/router
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -bin "$out/bin" -work "$out/work" "$@"
