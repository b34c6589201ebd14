package chase

// Benchmarks for the delta-maintained trigger index (triggerindex.go): the
// same searcher with the index on (default) and off (fullRescan — the
// per-expansion full re-enumeration), so the ratio isolates exactly the
// index. Workloads are the deep stage grids n = 8 and 10 (6561 and 59049
// states; every expansion's delta is a
// single atom while instances grow to 3n atoms — delta ≪ instance), the
// schedule-independent sweep ladder, and the conformance ladder at the
// /v1/exists default budgets: a single 200-state path up to MaxAtoms, where
// the scratch instance only ever moves one step down the search tree.
// BENCH_delta.json records the numbers measured when the index landed;
// TestSearchDeltaIndexMatchesFullRescan pins the two modes bit-identical, so
// the ratio is a pure like-for-like measurement.

import (
	"fmt"
	"os"
	"testing"

	"airct/internal/parser"
	"airct/internal/workload"
)

func BenchmarkDeltaExistsSearch(b *testing.B) {
	ladder, err := os.ReadFile("../../testdata/conformance/ladder.chase")
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name      string
		prog      *parser.Program
		maxStates int
		maxAtoms  int
		wantFound bool
	}{
		{"stage-grid-8", stageGrid(8), 8000, 24, true},                              // 3^8 = 6561 states
		{"stage-grid-10", workload.StageGrid(10), 70000, 30, true},                  // 3^10 = 59049 states
		{"null-grid-7", nullGrid(7), 3000, 0, true},                                 // 3^7 = 2187 states, nulls per stage
		{"sweep-ladder-16", ladderGrid(16), 6561, 1000, false},                      // exactly 6561 states
		{"conformance-ladder", parser.MustParse(string(ladder)), 10000, 200, false}, // one 200-state path
	}
	for _, tc := range cases {
		for _, mode := range []struct {
			name   string
			rescan bool
		}{{"delta-index", false}, {"full-rescan", true}} {
			b.Run(fmt.Sprintf("%s/%s", tc.name, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				var states int
				for i := 0; i < b.N; i++ {
					res := mustSearch(b, tc.prog.Database, tc.prog.TGDs, SearchOptions{
						MaxStates:  tc.maxStates,
						MaxAtoms:   tc.maxAtoms,
						fullRescan: mode.rescan,
					})
					if res.Found != tc.wantFound {
						b.Fatalf("Found = %v, want %v: %+v", res.Found, tc.wantFound, res)
					}
					states = res.StatesVisited
				}
				b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/sec")
			})
		}
	}
}
