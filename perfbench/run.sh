#!/usr/bin/env bash
# Builds the benchmark driver and the espserved daemon from source, then
# runs the driver with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload ft-full --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and Go's temporary files stay
# under $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/espserved" espnuca/cmd/espserved
) >&2

exec "$out/perfbench" -daemon "$out/espserved" "$@"
