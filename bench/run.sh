#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, e.g.
#
#   sh bench/run.sh --workload steady-event --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the Go build cache, temporary files, the
# toolchain's configuration and telemetry directory, and the binary) goes
# under .bench_build/ at the root, so the first run builds from scratch and
# later runs reuse the cache. Outside a full checkout of the repository
# the build fails and the script exits non-zero.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$out/mesbench" .)
exec "$out/mesbench" "$@"
