#!/bin/sh
# bench-smoke.sh — one pass of every kernel benchmark at -benchtime 1x, one
# go test per package, plus the benchgen | chase pipe. Run from the repo
# root (CI does).
#
# A -bench pattern that matches nothing passes silently, so each name in a
# pattern must first list exactly one benchmark under go test -list: a
# renamed or deleted benchmark fails the step instead of dropping out of it.
set -eu

smoke() {
	pkg="$1"
	pattern="$2"
	listed=$(go test -list "$pattern" "$pkg")
	for name in $(echo "$pattern" | tr '|' ' '); do
		if ! echo "$listed" | grep -qx "$name"; then
			echo "bench-smoke: $name lists no benchmark in $pkg" >&2
			exit 1
		fi
	done
	go test "$pkg" -run '^$' -bench "$pattern" -benchtime 1x
}

smoke ./internal/chase 'BenchmarkRunChaseInterned|BenchmarkExistsSearch|BenchmarkDeltaExistsSearch|BenchmarkEGDChaseInterned'
smoke ./internal/guarded 'BenchmarkGenerateSeeds|BenchmarkDecideCold'
smoke ./internal/sticky 'BenchmarkStickyDecide'
smoke ./internal/portfolio 'BenchmarkPortfolioMixed|BenchmarkAnalyzeCold'
smoke . 'BenchmarkPersistFlatReport'
smoke ./internal/serve 'BenchmarkServeMixed'
go run ./cmd/benchgen -family key-graph -n 24 -seed 1 | go run ./cmd/chase -quiet -
