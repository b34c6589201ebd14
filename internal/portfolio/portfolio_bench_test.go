package portfolio

// BenchmarkPortfolioMixed measures time-to-verdict of the staged portfolio
// against the flat Report on a mixed serving workload: the repeated-seed
// stream of the cache benchmarks plus one request from every labeled
// family class (datalog, acyclic existential, prunable, sticky terminating
// and diverging, guarded diverging) and a multi-head set that is honestly
// Unknown. The portfolio side shares one chase.Cache per family, warmed by
// a single untimed decision — the serving configuration `termcheck
// -portfolio -cache` exposes; the baseline pays a fresh Report per request
// with the same budgets. Conclusions are asserted identical before
// the timer, so the speedup recorded in BENCH_portfolio.json is never
// bought with verdict drift.

import (
	"context"
	"fmt"
	"testing"

	"airct/internal/chase"
	"airct/internal/core"
	"airct/internal/guarded"
	"airct/internal/parser"
	"airct/internal/tgds"
	"airct/internal/workload"
)

const benchDecideSteps = 2000

func benchFamilies() []struct {
	name string
	reqs []*tgds.Set
} {
	multihead, err := parser.ParseTGDs(`
		R(X,Y,Y) -> R(X,Z,Y), R(Z,Y,Y).
		R(X,Y,Z) -> R(Z,Z,Z).
	`)
	if err != nil {
		panic(err)
	}
	one := func(l workload.Labeled) []*tgds.Set { return []*tgds.Set{l.Set} }
	return []struct {
		name string
		reqs []*tgds.Set
	}{
		{"repeated-swap-intro-2", workload.RepeatedDecideRequests(2, 8)},
		{"datalog-chain-3", one(workload.DatalogChain(3))},
		{"existential-chain-3", one(workload.ExistentialChain(3))},
		{"sticky-join-2", one(workload.StickyJoin(2))},
		{"sticky-relay-2", one(workload.StickyRelay(2))},
		{"guarded-ladder-2", one(workload.GuardedLadder(2))},
		{"linear-cycle-3", one(workload.LinearCycle(3))},
		{"multihead-unknown", []*tgds.Set{multihead}},
	}
}

func BenchmarkPortfolioMixed(b *testing.B) {
	for _, fam := range benchFamilies() {
		portOpts := Options{Guarded: guarded.DecideOptions{MaxSteps: benchDecideSteps}}

		// Drift gate: every request must conclude identically in both modes
		// before either is timed.
		want := make([]core.Conclusion, len(fam.reqs))
		for i, set := range fam.reqs {
			rep, err := Report(context.Background(), set, portOpts)
			if err != nil {
				b.Fatal(err)
			}
			want[i] = rep.Conclusion
			res, err := Analyze(context.Background(), set, portOpts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Conclusion != rep.Conclusion {
				b.Fatalf("%s[%d]: portfolio %v vs analyzer %v", fam.name, i, res.Conclusion, rep.Conclusion)
			}
		}

		b.Run(fmt.Sprintf("%s/baseline", fam.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set := fam.reqs[i%len(fam.reqs)]
				rep, err := Report(context.Background(), set, portOpts)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Conclusion != want[i%len(fam.reqs)] {
					b.Fatalf("baseline drifted on %s", fam.name)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/cascade", fam.name), func(b *testing.B) {
			// No cache: isolates the cascade's own win (cheap tiers first,
			// k-round probe, early exit in Tier 2) from the cache's.
			b.ReportAllocs()
			opts := portOpts
			for i := 0; i < b.N; i++ {
				set := fam.reqs[i%len(fam.reqs)]
				res, err := Analyze(context.Background(), set, opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Conclusion != want[i%len(fam.reqs)] {
					b.Fatalf("cascade drifted on %s", fam.name)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/portfolio", fam.name), func(b *testing.B) {
			b.ReportAllocs()
			opts := portOpts
			opts.Cache = chase.NewCache()
			res, err := Analyze(context.Background(), fam.reqs[0], opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Conclusion != want[0] {
				b.Fatalf("warming drifted on %s", fam.name)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set := fam.reqs[i%len(fam.reqs)]
				res, err := Analyze(context.Background(), set, opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Conclusion != want[i%len(fam.reqs)] {
					b.Fatalf("portfolio drifted on %s", fam.name)
				}
			}
		})
	}
}

// BenchmarkAnalyzeCold measures cold portfolio decides: one iteration runs
// Analyze with no cache once on each program of the first-contact
// workload's portfolio catalog, workload.Corpus() and the seven families
// at n = 2..12 (99 programs). Each run gets a fresh Set over the program's
// TGDs, so nothing a set memoises (its fingerprint, compiled form and
// stickiness marking) carries over from an earlier iteration.
func BenchmarkAnalyzeCold(b *testing.B) {
	var catalog [][]tgds.TGD
	for _, l := range workload.Corpus() {
		catalog = append(catalog, l.Set.TGDs)
	}
	for _, fam := range []func(int) workload.Labeled{
		workload.DatalogChain, workload.ExistentialChain, workload.LinearCycle,
		workload.SwapIntro, workload.GuardedLadder, workload.StickyJoin, workload.StickyRelay,
	} {
		for n := 2; n <= 12; n++ {
			catalog = append(catalog, fam(n).Set.TGDs)
		}
	}
	if len(catalog) != 99 {
		b.Fatalf("the catalog holds %d programs, want 99", len(catalog))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ts := range catalog {
			if _, err := Analyze(ctx, &tgds.Set{TGDs: ts}, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
