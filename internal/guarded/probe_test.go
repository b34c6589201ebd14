package guarded

// The portfolio's Tier 1 probe is DecideContext at a small step budget k;
// these tests pin what the probe relies on at k.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"airct/internal/parser"
	"airct/internal/tgds"
)

// swapIntroSet terminates on every database yet is not weakly acyclic — the
// shape where a k-round probe genuinely earns its keep.
func swapIntroSet(t *testing.T) *tgds.Set {
	t.Helper()
	set, err := parser.ParseTGDs(`
		T(X,Y) -> T(X,W).
		T(X,Y) -> T(Y,X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// decideAt is the portfolio's Tier 1 probe: DecideContext at step budget k.
func decideAt(t *testing.T, set *tgds.Set, k int) *Verdict {
	t.Helper()
	v, err := DecideContext(context.Background(), set, DecideOptions{MaxSteps: k})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestProbeDecidesSwapIntroAndPinsDecide pins the accepting probe: every
// seed saturates within k = 64, and larger budgets return the identical
// seed-exhaustion verdict, Depth included.
func TestProbeDecidesSwapIntroAndPinsDecide(t *testing.T) {
	set := swapIntroSet(t)
	probe := decideAt(t, set, 64)
	if !probe.Terminates || probe.Method != "seed-exhaustion" || probe.SeedsTried == 0 {
		t.Fatalf("probe did not accept: %+v", probe)
	}
	if probe.Depth <= 0 || probe.Depth > 64 {
		t.Errorf("saturation depth %d outside the probe's budget", probe.Depth)
	}
	for _, budget := range []int{500, 2000} {
		v := decideAt(t, set, budget)
		v.Budget = probe.Budget
		if !sameVerdictFields(v, probe) {
			t.Errorf("Decide at budget %d contradicts a decisive probe:\nprobe  %+v\ndecide %+v", budget, probe, v)
		}
	}
}

// TestProbeRejectsDivergingSetAndPinsDecide pins the rejecting fast path: a
// pump surfaced on the k-prefix decides Diverges at probe cost, and the
// full procedure at a 125× larger budget reaches the same conclusion
// through the same lemma on the same seed — method and seed position
// agree; only the pump pair quoted in the evidence may differ with the
// prefix length mined.
func TestProbeRejectsDivergingSetAndPinsDecide(t *testing.T) {
	set := mustSet(t, `
		S(X) -> R(X,Y).
		R(X,Y) -> S(Y).
	`)
	probe := decideAt(t, set, 16)
	if probe.Terminates || probe.Method != "divergence-witness" || probe.Evidence == "" {
		t.Fatalf("probe did not reject a diverging set with a certificate: %+v", probe)
	}
	if probe.Depth <= 0 || probe.Depth > 16 || probe.Depth < probe.PumpDepth {
		t.Errorf("depth %d outside the probe's own prefix (k=16) or below the pump depth %d", probe.Depth, probe.PumpDepth)
	}
	v := decideAt(t, set, 2000)
	if v.Terminates {
		t.Fatalf("Decide terminates on a set the probe rejected: %+v", v)
	}
	if v.Method != probe.Method || v.SeedsTried != probe.SeedsTried {
		t.Errorf("rejecting probe drifted from Decide:\nprobe  method=%q seeds=%d\ndecide method=%q seeds=%d",
			probe.Method, probe.SeedsTried, v.Method, v.SeedsTried)
	}
	if v.Evidence == "" {
		t.Errorf("Decide's divergence verdict carries no certificate: %+v", v)
	}
}

// TestProbeWithoutCertificateRoutesOnward pins the probe's abstention: a
// 70-rule guarded cycle repeats no rule within 64 steps, so the first seed
// exhausts k = 64 without a pump. The verdict is "budget-exhausted", which
// claims nothing, and no saturating seed contributes a depth.
func TestProbeWithoutCertificateRoutesOnward(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&b, "R%d(X,Y) -> R%d(Y,Z).\n", i, (i+1)%70)
	}
	b.WriteString("a: A(X,Y), B(Y) -> C(X).\n")
	v := decideAt(t, mustSet(t, b.String()), 64)
	if v.Terminates || v.Method != "budget-exhausted" || v.SeedsTried != 1 || v.Depth != 0 || v.Budget != 64 {
		t.Errorf("probe verdict %+v, want budget-exhausted on the first seed at k=64, depth 0", v)
	}
}

func TestProbeShortCircuitsWeakAcyclicity(t *testing.T) {
	v := decideAt(t, mustSet(t, `A(X) -> R(X,Y).`), 8)
	if *v != (Verdict{Terminates: true, Method: "weak-acyclicity"}) {
		t.Errorf("weakly acyclic set not short-circuited: %+v", v)
	}
}

func TestProbeRejectsNonGuarded(t *testing.T) {
	set := mustSet(t, `E(X,Y), E(Y,Z) -> E(X,Z).`)
	if _, err := DecideContext(context.Background(), set, DecideOptions{MaxSteps: 8}); err == nil {
		t.Fatal("non-guarded set accepted")
	}
}

func TestDecideContextCancelStopsPromptly(t *testing.T) {
	// The guarded ladder diverges; at a 50M-step budget an uncancelled
	// battery would chase for minutes. The racer contract is that a
	// cancelled Decide returns ctx's error within its check interval.
	set, err := parser.ParseTGDs(`
		G1(X,Y), S(X) -> G2(Y,Z).
		G1(X,Y) -> S(Y).
		G2(X,Y), S(X) -> G1(Y,Z).
		G2(X,Y) -> S(Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	v, err := DecideContext(ctx, set, DecideOptions{MaxSteps: 50_000_000})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("cancelled Decide returned a verdict: %+v", v)
	}
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancelled Decide took %v", elapsed)
	}
}

func TestProbeCancelled(t *testing.T) {
	set := swapIntroSet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecideContext(ctx, set, DecideOptions{MaxSteps: 64}); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
