// Ablation benchmarks for design choices docs/ARCHITECTURE.md describes:
// trigger strategy, positional indexing in the
// homomorphism search, and seed generation for the guarded decision ("The
// guarded decider: a bounded search"). Run with
// `go test -bench=Ablation -benchmem .`
package airct_test

import (
	"fmt"
	"testing"

	"airct/internal/chase"
	"airct/internal/guarded"
	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/workload"
)

// BenchmarkAblationStrategy compares the trigger strategies on the
// ontology workload. All three terminate here; the interesting column is
// allocations (queue discipline) and steps (LIFO reaches different
// fixpoints).
func BenchmarkAblationStrategy(b *testing.B) {
	prog := workload.Ontology(150, 1)
	for _, tc := range []struct {
		name     string
		strategy chase.Strategy
	}{
		{"fifo", chase.FIFO},
		{"lifo", chase.LIFO},
		{"random", chase.Random},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run := chase.RunChase(prog.Database, prog.TGDs, chase.Options{
					Variant: chase.Restricted, Strategy: tc.strategy, Seed: 3, DropSteps: true,
				})
				if !run.Terminated() {
					b.Fatal("must terminate")
				}
			}
		})
	}
}

// BenchmarkAblationHomSearchIndex compares homomorphism search against an
// indexed instance (positional (pred,pos,term) index) versus a plain slice
// source — the index is what makes semi-naive trigger discovery viable.
func BenchmarkAblationHomSearchIndex(b *testing.B) {
	n := 2000
	atoms := make([]logic.Atom, 0, n)
	inst := instance.New()
	for i := 0; i < n; i++ {
		a := logic.MustAtom("E",
			logic.Const(fmt.Sprintf("v%d", i)),
			logic.Const(fmt.Sprintf("v%d", i+1)))
		atoms = append(atoms, a)
		inst.Add(a)
	}
	// A 3-chain pattern anchored at a constant deep in the chain.
	pattern := []logic.Atom{
		logic.MustAtom("E", logic.Const("v1500"), logic.Var("Y")),
		logic.MustAtom("E", logic.Var("Y"), logic.Var("Z")),
		logic.MustAtom("E", logic.Var("Z"), logic.Var("W")),
	}
	slice := logic.NewSliceSource(atoms)
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if logic.FindHomomorphism(pattern, nil, inst) == nil {
				b.Fatal("must match")
			}
		}
	})
	b.Run("unindexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if logic.FindHomomorphism(pattern, nil, slice) == nil {
				b.Fatal("must match")
			}
		}
	})
}

// BenchmarkAblationSeedGeneration measures the guarded decision's seed
// pool construction (canonical bodies × unifications + treeification
// expansions) as the family grows.
func BenchmarkAblationSeedGeneration(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		fam := workload.GuardedLadder(n)
		b.Run(fam.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if seeds := guarded.GenerateSeeds(fam.Set, 256); len(seeds) == 0 {
					b.Fatal("no seeds")
				}
			}
		})
	}
}

// BenchmarkAblationExistsSearch measures the ∀∃ derivation search (future
// work Q3) against the plain engine on an order-sensitive program.
func BenchmarkAblationExistsSearch(b *testing.B) {
	prog := mustProgram(b, `
		R(a,b).
		grow: R(X,Y) -> R(Y,Z).
		swap: R(X,Y) -> R(Y,X).
	`)
	b.Run("exists-search", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := chase.SearchTerminatingDerivation(prog.Database, prog.TGDs, chase.SearchOptions{MaxStates: 5000, MaxAtoms: 50})
			if err != nil || !res.Found {
				b.Fatal("terminating order exists")
			}
		}
	})
	b.Run("fifo-engine-budget", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			chase.RunChase(prog.Database, prog.TGDs, chase.Options{
				Variant: chase.Restricted, MaxSteps: 100, DropSteps: true,
			})
		}
	})
}
