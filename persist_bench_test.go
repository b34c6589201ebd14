// Benchmarks for the persistent cache tier (BENCH_persist.json): a warm
// RESTART — rebuild the cache from snapshot bytes, then report/search —
// against the cold run it replaces, for the flat ∀∀ report and the ∀∃
// families, and the snapshot save+load overhead itself. The root package
// hosts these because the portfolio cannot be imported from
// internal/chase.
// Run with `go test -bench BenchmarkPersist -benchtime 20x .`
package airct_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"airct/internal/chase"
	"airct/internal/parser"
	"airct/internal/portfolio"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// stickyJoinDiverging is workload.StickyJoin(n) plus a diverging
// linear-cycle tail on fresh predicates: the cold report still sweeps the
// join components' automata before the tail's lasso decides, and the warm
// restart replays a report that carries witness lines rather than the
// empty case.
func stickyJoinDiverging(b *testing.B, n int) *tgds.Set {
	b.Helper()
	var src strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&src, "T%d(X,Y,Z) -> S%d(Y,W).\n", i, i)
		fmt.Fprintf(&src, "R%d(X,Y), P%d(Y,Z) -> T%d(X,Y,W).\n", i, i, i)
	}
	src.WriteString("Z1(X,Y) -> Z1(Y,W).\n")
	set, err := parser.ParseTGDs(src.String())
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// report runs the flat report at the default budgets through the cache.
func report(b *testing.B, set *tgds.Set, cache *chase.Cache) {
	b.Helper()
	if _, err := portfolio.Report(context.Background(), set, portfolio.Options{Cache: cache}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPersistFlatReport: cold = a fresh-cache flat report (every
// Tier 0 check, then the sticky and guarded deciders); warm-restart =
// LoadCache(snapshot) + the same report, which replays the recorded stage
// ledger with one cache hit and runs no stage. The warm-over-cold ratio is
// the tier's value on a process restart.
func BenchmarkPersistFlatReport(b *testing.B) {
	families := []struct {
		Name string
		Set  *tgds.Set
	}{
		{"sticky-join-4", workload.StickyJoin(4).Set},
		{"sticky-join-8", workload.StickyJoin(8).Set},
		{"sticky-join-8-diverging", stickyJoinDiverging(b, 8)},
		{"swap-intro-3", workload.SwapIntro(3).Set},
	}
	for _, fam := range families {
		b.Run(fam.Name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				report(b, fam.Set, chase.NewCache())
			}
		})
		cache := chase.NewCache()
		report(b, fam.Set, cache)
		var buf bytes.Buffer
		if err := cache.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		snap := buf.Bytes()
		b.Run(fam.Name+"/warm-restart", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cache, rep, err := chase.LoadCache(bytes.NewReader(snap))
				if err != nil || rep.Skipped > 0 {
					b.Fatalf("load: %v %+v", err, rep)
				}
				report(b, fam.Set, cache)
				if st := cache.Stats(); st.Hits != 1 || st.Misses != 0 {
					b.Fatalf("restart did not replay the snapshot's ledger: %+v", st)
				}
			}
		})
	}
}

// BenchmarkPersistExistsSearch: the same restart shape for the ∀∃ search on
// the stage-grid family — cold sweeps 3^n states, warm-restart loads the
// snapshot and replays the recorded derivation.
func BenchmarkPersistExistsSearch(b *testing.B) {
	cases := []struct {
		name      string
		prog      *parser.Program
		maxStates int
	}{
		{"stage-grid-8", workload.StageGrid(8), 8000},
		{"stage-grid-10", workload.StageGrid(10), 70000},
	}
	for _, tc := range cases {
		opts := chase.SearchOptions{MaxStates: tc.maxStates, MaxAtoms: 30}
		b.Run(tc.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts.Cache = chase.NewCache()
				if res := mustSearch(b, tc.prog.Database, tc.prog.TGDs, opts); !res.Found {
					b.Fatalf("must find: %+v", res)
				}
			}
		})
		opts.Cache = chase.NewCache()
		if res := mustSearch(b, tc.prog.Database, tc.prog.TGDs, opts); !res.Found {
			b.Fatal("seed search failed")
		}
		var buf bytes.Buffer
		if err := opts.Cache.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		snap := buf.Bytes()
		b.Run(tc.name+"/warm-restart", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cache, rep, err := chase.LoadCache(bytes.NewReader(snap))
				if err != nil || rep.Skipped > 0 {
					b.Fatalf("load: %v %+v", err, rep)
				}
				opts.Cache = cache
				if res := mustSearch(b, tc.prog.Database, tc.prog.TGDs, opts); !res.Found {
					b.Fatalf("must replay: %+v", res)
				}
				if cache.Stats().Hits == 0 {
					b.Fatal("restart did not hit the snapshot")
				}
			}
		})
	}
}

// BenchmarkPersistSnapshotRoundTrip isolates the tier's own overhead — one
// Snapshot + one Restore of a cache populated by a cold stage-grid search
// and a cold flat report — the cost a -cache-file run pays on top of its
// decides. Compare against the cold cells above: the bar is <5% of one
// cold decide.
func BenchmarkPersistSnapshotRoundTrip(b *testing.B) {
	cache := chase.NewCache()
	prog := workload.StageGrid(10)
	if res := mustSearch(b, prog.Database, prog.TGDs, chase.SearchOptions{
		MaxStates: 70000, MaxAtoms: 30, Cache: cache,
	}); !res.Found {
		b.Fatal("seed search failed")
	}
	report(b, workload.StickyJoin(8).Set, cache)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := cache.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if _, rep, err := chase.LoadCache(bytes.NewReader(buf.Bytes())); err != nil || rep.Skipped > 0 {
			b.Fatalf("load: %v %+v", err, rep)
		}
		b.ReportMetric(float64(buf.Len()), "snapshot-bytes")
	}
}
