#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it from the repository
# root. Every build product, the Go build cache and all run files stay
# under .bench_build/ in the checkout.
#
#   bash bench/run.sh --workload first-contact --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh run -seed 1 -out .bench_build/results/seed1
#   bash bench/run.sh compare setA setB
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/termcheckd" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root (needs go.mod, cmd/termcheckd and bench/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/bench" && go build -o "$build/benchrun" .)

# Pin the bench, and with it the daemon it starts, to the first CPU it may
# use. Every workload is one client in a closed loop, so bench and daemon
# take turns on it; spread over two CPUs, each hand-off would wake an idle
# CPU, which on a shared host waits for the hypervisor and adds its noise.
affinity=$(taskset -pc $$) || { echo "bench/run.sh: needs taskset (util-linux)" >&2; exit 2; }
cpu=${affinity##*: }
cpu=${cpu%%[,-]*}
exec taskset -c "$cpu" "$build/benchrun" "$@"
