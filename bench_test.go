// Package airct's root benchmark harness: one benchmark per experiment of
// the suite in docs/CLI.md, "experiments — the paper-reproduction suite"
// (E1–E10). Each benchmark measures the hot loop of its
// experiment so that `go test -bench=. -benchmem` regenerates the
// performance-shaped rows; the verdict-shaped rows come from
// `go run ./cmd/experiments`.
package airct_test

import (
	"context"
	"fmt"
	"testing"

	"airct/internal/acyclicity"
	"airct/internal/buchi"
	"airct/internal/chase"
	"airct/internal/fairness"
	"airct/internal/guarded"
	"airct/internal/ochase"
	"airct/internal/parser"
	"airct/internal/portfolio"
	"airct/internal/sticky"
	"airct/internal/workload"
)

func mustProgram(b *testing.B, src string) *parser.Program {
	b.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkE1RestrictedVsOblivious measures the two chase variants on the
// intro example over star databases: the restricted chase is O(|D|) work
// with zero applications; the oblivious chase burns its whole step budget.
func BenchmarkE1RestrictedVsOblivious(b *testing.B) {
	set, err := parser.ParseTGDs(`R(X,Y) -> R(X,Z).`)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10, 100, 1000} {
		db := workload.StarDatabase("R", n)
		b.Run(fmt.Sprintf("restricted/star-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run := chase.RunChase(db, set, chase.Options{Variant: chase.Restricted, DropSteps: true})
				if !run.Terminated() {
					b.Fatal("must terminate")
				}
			}
		})
		b.Run(fmt.Sprintf("oblivious-budget1000/star-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run := chase.RunChase(db, set, chase.Options{Variant: chase.Oblivious, MaxSteps: 1000, DropSteps: true})
				if run.Terminated() {
					b.Fatal("must diverge")
				}
			}
		})
	}
}

// BenchmarkE2RealObliviousChase measures multiset-graph construction on
// Example 3.2/3.4 at growing node bounds.
func BenchmarkE2RealObliviousChase(b *testing.B) {
	prog := mustProgram(b, `
		P(a,b).
		s1: P(X,Y) -> R(X,Y). s2: P(X,Y) -> S(X).
		s3: R(X,Y) -> S(X).   s4: S(X) -> R(X,Y).
	`)
	for _, bound := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("nodes-%d", bound), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := ochase.Build(prog.Database, prog.TGDs, ochase.BuildOptions{MaxNodes: bound})
				if g.AtomSet().Len() != 4 {
					b.Fatal("oblivious chase must have 4 atoms")
				}
			}
		})
	}
}

// BenchmarkE3Fairness measures the Theorem 4.1 repair at growing horizons
// (the cost is dominated by prefix replays: quadratic-ish in the horizon).
func BenchmarkE3Fairness(b *testing.B) {
	prog := mustProgram(b, `
		S(a). P(a).
		grow: S(X) -> R(X,Y).
		next: R(X,Y) -> S(Y).
		want: P(X) -> Q(X).
	`)
	starve := func(d *chase.Derivation) (chase.Trigger, bool) {
		for _, tr := range d.Active() {
			if tr.TGD.Label != "want" {
				return tr, true
			}
		}
		return chase.Trigger{}, false
	}
	for _, h := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("horizon-%d", h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := fairness.Fairize(prog.Database, prog.TGDs, starve, h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4ChaseableSets measures the Theorem 5.3 round trip
// (derivation → chaseable set → derivation).
func BenchmarkE4ChaseableSets(b *testing.B) {
	prog := mustProgram(b, `
		R(a,b). S(b,c).
		t1: S(X,Y) -> T(X).
		t2: R(X,Y), T(Y) -> P(X,Y).
		t3: P(X,Y) -> Q(Y).
	`)
	run := chase.RunChase(prog.Database, prog.TGDs, chase.Options{Variant: chase.Restricted})
	g := ochase.Build(prog.Database, prog.TGDs, ochase.BuildOptions{MaxNodes: 5000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		A, err := ochase.ChaseableFromRun(g, run)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.ExtractDerivation(A); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Treeification measures the Appendix C.2 construction on
// Example 5.6 (ochase fragment + longs-for analysis + label tree).
func BenchmarkE5Treeification(b *testing.B) {
	prog := mustProgram(b, `
		R(a,b). S(b,c).
		s1: S(X,Y) -> T(X).
		s2: R(X,Y), T(Y) -> P(X,Y).
		s3: P(X,Y) -> P(Y,Z).
	`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := ochase.Build(prog.Database, prog.TGDs, ochase.BuildOptions{MaxNodes: 400, MaxDepth: 8})
		if _, err := guarded.Treeify(g, guarded.TreeifyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6GuardedDecision measures the CT^res_∀∀(G) decision across
// family sizes for both verdict polarities.
func BenchmarkE6GuardedDecision(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		for _, fam := range []workload.Labeled{workload.SwapIntro(n), workload.GuardedLadder(n)} {
			fam := fam
			b.Run(fam.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v, err := guarded.Decide(fam.Set, guarded.DecideOptions{MaxSteps: 800})
					if err != nil {
						b.Fatal(err)
					}
					if v.Terminates != fam.Terminates {
						b.Fatalf("verdict %v, truth %v", v.Terminates, fam.Terminates)
					}
				}
			})
		}
	}
}

// BenchmarkE7StickyDecision measures the Büchi-based CT^res_∀∀(S) decision
// across family sizes for both verdict polarities.
func BenchmarkE7StickyDecision(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		for _, fam := range []workload.Labeled{workload.StickyJoin(n), workload.StickyRelay(n)} {
			fam := fam
			b.Run(fam.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v, err := sticky.Decide(fam.Set, sticky.DecideOptions{})
					if err != nil {
						b.Fatal(err)
					}
					if v.Terminates != fam.Terminates {
						b.Fatalf("verdict %v, truth %v", v.Terminates, fam.Terminates)
					}
				}
			})
		}
	}
}

// BenchmarkE8BoundedGapWitness measures lasso extraction (Observation 1)
// on the witnessing component of a diverging sticky family.
func BenchmarkE8BoundedGapWitness(b *testing.B) {
	fam := workload.StickyRelay(4)
	v, err := sticky.Decide(fam.Set, sticky.DecideOptions{})
	if err != nil || v.Terminates {
		b.Fatal("need diverging verdict")
	}
	a, err := sticky.BuildAutomaton(fam.Set, *v.Seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := buchi.Explore(a, 0)
		lasso, ok := e.NonEmpty()
		if !ok || lasso.Gap > e.Len() {
			b.Fatal("Observation 1 violated")
		}
	}
}

// BenchmarkE9BaselineCoverage measures the full corpus sweep: the three
// acyclicity baselines plus the analyzer.
func BenchmarkE9BaselineCoverage(b *testing.B) {
	corpus := workload.Corpus()
	b.Run("baselines", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, l := range corpus {
				acyclicity.IsWeaklyAcyclic(l.Set)
				acyclicity.IsJointlyAcyclic(l.Set)
			}
		}
	})
	b.Run("analyzer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, l := range corpus {
				if _, err := portfolio.Report(context.Background(), l.Set, portfolio.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkE10EngineThroughput measures materialisation throughput across
// variants on the ontology and exchange workloads.
func BenchmarkE10EngineThroughput(b *testing.B) {
	onto := workload.Ontology(200, 1)
	exch := workload.Exchange(200, 1).Program
	for _, w := range []struct {
		name string
		prog *parser.Program
	}{{"ontology-200", onto}, {"exchange-200", exch}} {
		for _, v := range []chase.Variant{chase.Restricted, chase.SemiOblivious, chase.Oblivious} {
			w, v := w, v
			b.Run(fmt.Sprintf("%s/%s", w.name, v), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run := chase.RunChase(w.prog.Database, w.prog.TGDs, chase.Options{Variant: v, DropSteps: true})
					if !run.Terminated() {
						b.Fatal("must terminate")
					}
				}
			})
		}
	}
}
