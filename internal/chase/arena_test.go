package chase

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"airct/internal/logic"
	"airct/internal/parser"
	"airct/internal/tgds"
)

// stepTrace records a run's OnStep log; resolved renders it with body
// terms looked up in the run's interner, so runs on different interners
// compare.
type stepTrace []struct {
	tgd, head, length int
	body              []uint32
}

func (s *stepTrace) observe(tgd int, body []uint32, head int32, length int) {
	*s = append(*s, struct {
		tgd, head, length int
		body              []uint32
	}{tgd, int(head), length, slices.Clone(body)})
}

func (s stepTrace) resolved(run *Run) []string {
	itab := run.Final.Interner()
	out := make([]string, len(s))
	for i, st := range s {
		out[i] = fmt.Sprintf("%d %d %d", st.tgd, st.head, st.length)
		for _, id := range st.body {
			out[i] += " " + itab.Term(logic.TermID(id)).String()
		}
	}
	return out
}

// TestArenaReuseMatchesFreshRuns runs one arena through a sequence of runs
// over three sets, the last with EGDs so equality flushes run on reused
// tables, and binds each set twice. Every variant runs under FIFO, LIFO
// and Random at a small and a large budget, recording and not, and a run
// cancelled mid-chase is followed by a normal run. Each run must equal a
// fresh RunChaseContext run: reason, step counts, Stats, the OnStep log,
// Final in insertion order, its sorted keys and fingerprint.
func TestArenaReuseMatchesFreshRuns(t *testing.T) {
	progs := []struct {
		name, src string
	}{
		{"ladder", differentialPrograms()["diverging-ladder"]},
		{"exchange", differentialPrograms()["exchange"]},
		// Diverges with an equality step in every round.
		{"egd", `
			A(a).
			A(X) -> F(X,W).
			A(X) -> G(X,W).
			e: F(X,Y), G(X,Z) -> Y = Z.
			F(X,Y) -> A(Y).`},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var a Arena
	runs, cancels, eqSteps := 0, 0, 0
	check := func(label string, ctx context.Context, set *tgds.Set, prog *parser.Program, opts Options) {
		t.Helper()
		var gotLog, wantLog stepTrace
		opts.OnStep = gotLog.observe
		got := a.Run(ctx, prog.Database, opts)
		opts.OnStep = wantLog.observe
		want := RunChaseContext(ctx, prog.Database, set, opts)
		runs++
		if got.Reason == Cancelled {
			cancels++
		}
		eqSteps += got.EqualitySteps
		sameRun(t, label, got, want)
		if set.HasEGDs() {
			sameEGDRun(t, label, got, want)
		}
		if !slices.Equal(gotLog.resolved(got), wantLog.resolved(want)) {
			t.Errorf("%s: OnStep logs differ", label)
		}
		if !slices.Equal(sortedKeys(got.Final), sortedKeys(want.Final)) {
			t.Errorf("%s: final keys differ", label)
		}
		if logic.FingerprintAtoms(got.Final.Atoms()) != logic.FingerprintAtoms(want.Final.Atoms()) {
			t.Errorf("%s: final fingerprint differs", label)
		}
	}
	for round := 0; round < 2; round++ {
		for _, p := range progs {
			prog := parser.MustParse(p.src)
			set := prog.TGDs
			a.Bind(set)
			variants := []Variant{Restricted, Oblivious, SemiOblivious}
			if set.HasEGDs() {
				variants = variants[:1]
			}
			for _, variant := range variants {
				for _, strat := range []Strategy{FIFO, LIFO, Random} {
					for _, budget := range []int{12, 400} {
						for _, drop := range []bool{true, false} {
							opts := Options{Variant: variant, Strategy: strat, Seed: 7, MaxSteps: budget, DropSteps: drop}
							check(fmt.Sprintf("round%d/%s/%v/%v/%d/drop=%v", round, p.name, variant, strat, budget, drop),
								context.Background(), set, prog, opts)
						}
					}
				}
			}
			// A run cancelled mid-chase, then a normal run on the same memory.
			opts := Options{Variant: Restricted, MaxSteps: 400, DropSteps: true}
			check(fmt.Sprintf("round%d/%s/cancelled", round, p.name), cancelled, set, prog, opts)
			check(fmt.Sprintf("round%d/%s/after-cancel", round, p.name), context.Background(), set, prog, opts)
		}
	}
	if runs < 100 || cancels < 4 || eqSteps == 0 {
		t.Fatalf("%d runs compared, %d cancelled, %d equality steps: the sequence must cover all three", runs, cancels, eqSteps)
	}
	if a.PeakAtoms() == 0 {
		t.Error("PeakAtoms = 0 after non-empty runs")
	}
}
