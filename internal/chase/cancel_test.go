package chase

import (
	"context"
	"testing"
	"time"

	"airct/internal/logic"
	"airct/internal/parser"
)

// ladderProgram diverges under the restricted chase: every invented value
// re-seeds S, so an unbounded run never reaches a fixpoint — the shape the
// cancellation tests need to keep an engine busy indefinitely.
const ladderProgram = `
	S(a).
	S(X) -> R(X,Y).
	R(X,Y) -> S(Y).
`

// cancelLatencyBound is deliberately generous against scheduler noise: the
// real promptness claim is "milliseconds, not the minutes an uncancelled
// 50M-step run would take".
const cancelLatencyBound = 5 * time.Second

func TestRunChaseContextCancelStopsPromptly(t *testing.T) {
	prog := parser.MustParse(ladderProgram)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	run := RunChaseContext(ctx, prog.Database, prog.TGDs, Options{
		Variant: Restricted, Strategy: FIFO, MaxSteps: 50_000_000,
	})
	elapsed := time.Since(start)
	if run.Reason != Cancelled {
		t.Fatalf("reason = %v, want Cancelled", run.Reason)
	}
	if elapsed > cancelLatencyBound {
		t.Errorf("cancelled run took %v; the engine is not observing ctx.Done() at its pop interval", elapsed)
	}
}

func TestRunChaseContextBackgroundMatchesPlainRun(t *testing.T) {
	prog := parser.MustParse(ladderProgram)
	opts := Options{Variant: Restricted, Strategy: FIFO, MaxSteps: 200}
	plain := RunChase(prog.Database, prog.TGDs, opts)
	bg := RunChaseContext(context.Background(), prog.Database, prog.TGDs, opts)
	if plain.Reason != bg.Reason || plain.StepsTaken != bg.StepsTaken || plain.Stats != bg.Stats {
		t.Errorf("Background-context run drifted: %v/%d/%+v vs %v/%d/%+v",
			bg.Reason, bg.StepsTaken, bg.Stats, plain.Reason, plain.StepsTaken, plain.Stats)
	}
}

func TestSearchContextCancelSequentialAndParallel(t *testing.T) {
	prog := parser.MustParse(ladderProgram)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := SearchTerminatingDerivationContext(ctx, prog.Database, prog.TGDs, SearchOptions{
		MaxStates: 50_000_000,
		MaxAtoms:  1 << 20,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatalf("Cancelled = false after ctx fired (found=%v exhausted=%v)", res.Found, res.Exhausted)
	}
	if res.Exhausted {
		t.Errorf("a cancelled search must not claim exhaustion")
	}
	if elapsed > cancelLatencyBound {
		t.Errorf("cancelled search took %v", elapsed)
	}
}

func TestStageOutcomesCacheRoundTrip(t *testing.T) {
	c := NewCache()
	fp := logic.Fingerprint{Hi: 7, Lo: 9}
	in := &StageOutcomes{
		Verdict:   "terminates",
		DecidedBy: "probe",
		Records: []StageRecord{
			{Stage: "full", Tier: 0, Verdict: "unknown", Detail: "set has existentials"},
			{Stage: "probe", Tier: 1, Decided: true, Verdict: "terminates", Steps: 64, DurationNS: 12345, Evidence: "σ1 pump"},
		},
	}
	if _, ok := c.LookupStageOutcomes(fp, 42); ok {
		t.Fatal("lookup hit on an empty cache")
	}
	c.StoreStageOutcomes(fp, 42, in)
	got, ok := c.LookupStageOutcomes(fp, 42)
	if !ok {
		t.Fatal("stored entry not found")
	}
	if got.Verdict != in.Verdict || got.DecidedBy != in.DecidedBy || len(got.Records) != len(in.Records) {
		t.Errorf("round trip drifted: %+v vs %+v", got, in)
	}
	for i := range in.Records {
		if got.Records[i] != in.Records[i] {
			t.Errorf("record %d drifted: %+v vs %+v", i, got.Records[i], in.Records[i])
		}
	}
	// A different salt is a different entry: budgets must not collide.
	if _, ok := c.LookupStageOutcomes(fp, 43); ok {
		t.Error("lookup under a different salt hit the same entry")
	}
}
