package chase

// Benchmarks for the ∀∃ derivation search: the fingerprint-memoised
// subsystem (search.go) against the preserved string-memoised reference
// (exists_ref_test.go). The stage-grid family yields 3^n distinct states
// (each fact advances independently through P → +Q → +R), so the search
// must sweep nearly the whole space before the full state — the only
// fixpoint — is expanded: a pure states/sec measurement. BENCH_exists.json
// records the measured numbers.

import (
	"fmt"
	"strings"
	"testing"

	"airct/internal/parser"
	"airct/internal/workload"
)

// stageGrid builds the n-fact two-stage program: 3^n reachable states. It
// is the same program workload.StageGrid generates (and `benchgen -family
// stage-grid` emits); TestStageGridMatchesWorkload pins the two together.
func stageGrid(n int) *parser.Program {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "P(c%d).\n", i)
	}
	b.WriteString("s1: P(X) -> Q(X).\n")
	b.WriteString("s2: Q(X) -> R(X).\n")
	return parser.MustParse(b.String())
}

func TestStageGridMatchesWorkload(t *testing.T) {
	want := parser.Print(stageGrid(5))
	got := parser.Print(workload.StageGrid(5))
	if want != got {
		t.Errorf("workload.StageGrid drifted from the benchmark grid:\n%s\nvs\n%s", got, want)
	}
}

// nullGrid is the existential variant: each fact invents a null on its way,
// exercising structural-null fingerprinting on every state.
func nullGrid(n int) *parser.Program {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "P(c%d).\n", i)
	}
	b.WriteString("s1: P(X) -> Q(X,Y).\n")
	b.WriteString("s2: Q(X,Y) -> R(Y).\n")
	return parser.MustParse(b.String())
}

// BenchmarkExistsSearch times the search against the reference. The
// stage grids n = 5..8 run at the default budgets, like the exists-search
// requests the bench/ harness sends /v1/exists (3^n states each).
func BenchmarkExistsSearch(b *testing.B) {
	type benchCase struct {
		name      string
		prog      *parser.Program
		maxStates int // 0: DefaultSearchStates
	}
	var cases []benchCase
	for n := 5; n <= 8; n++ {
		cases = append(cases, benchCase{fmt.Sprintf("stage-grid-%d", n), workload.StageGrid(n), 0})
	}
	cases = append(cases,
		benchCase{"null-grid-7", nullGrid(7), 3000}, // 3^7 = 2187 states
		benchCase{"order-sensitive", parser.MustParse(`
			R(a,b).
			grow: R(X,Y) -> R(Y,Z).
			swap: R(X,Y) -> R(Y,X).
		`), 5000},
	)
	for _, tc := range cases {
		b.Run(tc.name+"/interned-fp", func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				res := mustSearch(b, tc.prog.Database, tc.prog.TGDs, SearchOptions{MaxStates: tc.maxStates})
				if !res.Found {
					b.Fatalf("must find a fixpoint: %+v", res)
				}
				states = res.StatesVisited
			}
			b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/sec")
		})
		b.Run(tc.name+"/reference-strings", func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				res := referenceExistsTerminatingDerivation(tc.prog.Database, tc.prog.TGDs, tc.maxStates, 0)
				if !res.Found {
					b.Fatalf("must find a fixpoint: %+v", res)
				}
				states = res.StatesVisited
			}
			b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/sec")
		})
	}
}

// ladderGrid builds the diverging branching workload for the full-sweep
// throughput benchmark: n independent facts, each starting an infinite
// P → ∃Y R(X,Y) → P(Y) ladder. Every state has ~n active triggers and no
// fixpoint is ever reachable, so a search with MaxStates = m visits exactly
// m distinct states before the budget cuts it — a deterministic,
// schedule-independent amount of work.
func ladderGrid(n int) *parser.Program {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "P(c%d).\n", i)
	}
	b.WriteString("step: P(X) -> R(X,Y).\n")
	b.WriteString("next: R(X,Y) -> P(Y).\n")
	return parser.MustParse(b.String())
}
