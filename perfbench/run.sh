#!/usr/bin/env bash
# Builds the programs under test and the benchmark program (perfbench) from
# source, then runs it with the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload hapsim --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build
# (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/hapd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a hap checkout (go.mod, cmd/ and perfbench/ must be present)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/work"

# Keep the toolchain inside the checkout and off the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off GOENV=off

go build -o "$out/bin/" ./cmd/hapsim ./cmd/hapnet ./cmd/hapfit ./cmd/hapd >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
