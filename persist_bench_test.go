// Benchmarks for the persistent cache tier (BENCH_persist.json): a warm
// RESTART — rebuild the cache from snapshot bytes, then decide/search —
// against the cold run it replaces, for the sticky Büchi and ∀∃ families;
// the snapshot save+load overhead itself; and the index-aware frontier
// ordering against smallest-first. The root package hosts these because
// the sticky decider cannot be imported from internal/chase.
// Run with `go test -bench BenchmarkPersist -benchtime 20x .`
package airct_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"airct/internal/chase"
	"airct/internal/parser"
	"airct/internal/sticky"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// stickyJoinDiverging is workload.StickyJoin(n) plus a diverging
// linear-cycle tail on fresh predicates: the cold decision still sweeps
// the join components' automata before the tail's lasso decides, and the
// warm restart replays a buchi-witness verdict (seed + lasso) rather than
// the empty case.
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

// stickySnapshot runs one cold Decide into a fresh cache and returns the
// cache's snapshot bytes — the artefact a restarted process would load.
func stickySnapshot(b *testing.B, set *tgds.Set) []byte {
	b.Helper()
	cache := chase.NewCache()
	if _, err := sticky.Decide(set, sticky.DecideOptions{Cache: cache}); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cache.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkPersistStickyDecide: cold = a fresh-cache Decide (build + explore
// every component automaton); warm-restart = LoadCache(snapshot) + Decide,
// which replays the recorded verdict without touching an automaton. The
// warm-over-cold ratio is the tier's value on a process restart.
func BenchmarkPersistStickyDecide(b *testing.B) {
	families := []struct {
		Name string
		Set  *tgds.Set
	}{
		{"sticky-join-4", workload.StickyJoin(4).Set},
		{"sticky-join-8", workload.StickyJoin(8).Set},
		{"sticky-join-8-diverging", stickyJoinDiverging(b, 8)},
	}
	for _, fam := range families {
		b.Run(fam.Name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sticky.Decide(fam.Set, sticky.DecideOptions{Cache: chase.NewCache()}); err != nil {
					b.Fatal(err)
				}
			}
		})
		snap := stickySnapshot(b, fam.Set)
		b.Run(fam.Name+"/warm-restart", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cache, rep, err := chase.LoadCache(bytes.NewReader(snap))
				if err != nil || rep.Skipped > 0 {
					b.Fatalf("load: %v %+v", err, rep)
				}
				if _, err := sticky.Decide(fam.Set, sticky.DecideOptions{Cache: cache}); err != nil {
					b.Fatal(err)
				}
				if cache.Stats().Hits == 0 {
					b.Fatal("restart did not hit the snapshot")
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
// and a cold sticky decision — the cost a -cache-file run pays on top of
// its decides. Compare against the cold cells above: the bar is <5% of one
// cold decide.
func BenchmarkPersistSnapshotRoundTrip(b *testing.B) {
	cache := chase.NewCache()
	prog := workload.StageGrid(10)
	if res := mustSearch(b, prog.Database, prog.TGDs, chase.SearchOptions{
		MaxStates: 70000, MaxAtoms: 30, Cache: cache,
	}); !res.Found {
		b.Fatal("seed search failed")
	}
	if _, err := sticky.Decide(workload.StickyJoin(8).Set, sticky.DecideOptions{Cache: cache}); err != nil {
		b.Fatal(err)
	}
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
