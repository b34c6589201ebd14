package guarded

import (
	"bytes"
	"context"
	"testing"
	"time"

	"airct/internal/chase"
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

func TestProbeDecidesSwapIntroAndPinsDecide(t *testing.T) {
	set := swapIntroSet(t)
	opts := DecideOptions{MaxSteps: 2000}
	out, err := ProbeSeeds(context.Background(), set, opts, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Decided {
		t.Fatalf("probe undecided: %+v", out)
	}
	if out.WeaklyAcyclic {
		t.Fatal("swap-intro must not be weakly acyclic")
	}
	if out.Saturated != out.Seeds || out.Seeds == 0 {
		t.Errorf("probe outcome inconsistent: %+v", out)
	}
	// The probe's promise: the full procedure returns the identical
	// terminating seed-exhaustion verdict.
	v, err := Decide(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Terminates || v.Method != "seed-exhaustion" {
		t.Errorf("Decide contradicts a decisive probe: %+v", v)
	}
}

// TestProbeRejectsDivergingSetAndPinsDecide pins the rejecting fast path: a
// pump surfaced on the k-prefix decides Diverges at probe cost, and the
// full procedure at a 125× larger budget reaches the same conclusion
// through the same lemma on the same seed — method and seed position
// agree; only the pump pair quoted in the evidence may differ with the
// prefix length mined.
func TestProbeRejectsDivergingSetAndPinsDecide(t *testing.T) {
	set, err := parser.ParseTGDs(`
		S(X) -> R(X,Y).
		R(X,Y) -> S(Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	opts := DecideOptions{MaxSteps: 2000}
	out, err := ProbeSeeds(context.Background(), set, opts, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Decided || !out.Rejected {
		t.Fatalf("probe did not reject a diverging set: %+v", out)
	}
	if out.Method != "divergence-witness" || out.Evidence == "" {
		t.Fatalf("rejecting probe without a certificate: %+v", out)
	}
	if out.Depth <= 0 || out.Depth > 16 {
		t.Errorf("pump depth %d outside the probe's own prefix (k=16)", out.Depth)
	}
	v, err := Decide(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Terminates {
		t.Fatalf("Decide terminates on a set the probe rejected: %+v", v)
	}
	if v.Method != out.Method || v.SeedsTried != out.SeedsTried {
		t.Errorf("rejecting probe drifted from Decide:\nprobe  method=%q seeds=%d\ndecide method=%q seeds=%d",
			out.Method, out.SeedsTried, v.Method, v.SeedsTried)
	}
	if v.Evidence == "" {
		t.Errorf("Decide's divergence verdict carries no certificate: %+v", v)
	}
}

// TestProbeWithoutCertificateRoutesOnward pins the probe's abstention: at
// k=1 the diverging ladder's first non-saturating seed has too short a
// prefix to carry a pump, so the probe claims nothing and leaves the input
// undecided for the full procedure.
func TestProbeWithoutCertificateRoutesOnward(t *testing.T) {
	set, err := parser.ParseTGDs(`
		S(X) -> R(X,Y).
		R(X,Y) -> S(Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ProbeSeeds(context.Background(), set, DecideOptions{MaxSteps: 2000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Decided || out.Rejected {
		t.Fatalf("probe decided without a certificate: %+v", out)
	}
	if out.Saturated >= out.Seeds && out.Seeds > 0 {
		t.Errorf("undecided probe with a fully saturated pool: %+v", out)
	}
}

func TestProbeShortCircuitsWeakAcyclicity(t *testing.T) {
	set, err := parser.ParseTGDs(`A(X) -> R(X,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ProbeSeeds(context.Background(), set, DecideOptions{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Decided || !out.WeaklyAcyclic {
		t.Errorf("weakly acyclic set not short-circuited: %+v", out)
	}
}

func TestProbeRejectsNonGuarded(t *testing.T) {
	set, err := parser.ParseTGDs(`E(X,Y), E(Y,Z) -> E(X,Z).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProbeSeeds(context.Background(), set, DecideOptions{}, 8); err == nil {
		t.Fatal("non-guarded set accepted")
	}
}

// TestProbeWarmsDecideCache pins the probe→Decide handoff: after a decisive
// probe stored its saturated outcomes at the full budget, Decide on the
// same cache chases nothing.
func TestProbeWarmsDecideCache(t *testing.T) {
	set := swapIntroSet(t)
	cache := chase.NewCache()
	opts := DecideOptions{MaxSteps: 2000, Cache: cache}
	out, err := ProbeSeeds(context.Background(), set, opts, 64)
	if err != nil || !out.Decided {
		t.Fatalf("probe: %+v, %v", out, err)
	}
	before := cache.Stats()
	v, err := Decide(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Terminates {
		t.Fatalf("warm Decide verdict: %+v", v)
	}
	after := cache.Stats()
	if after.Hits <= before.Hits {
		t.Error("Decide after a decisive probe recorded no cache hits")
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
	if _, err := ProbeSeeds(ctx, set, DecideOptions{}, 64); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestProbeWarmReplayKeepsRejectDiagnostics pins ROADMAP 2d: a rejecting
// probe's pump depth is persisted through the seed-outcome ledger, so a
// warm replay — same cache, or a snapshot-restored one — reports the
// byte-identical ProbeOutcome, Depth included. Pre-PR the warm path rebuilt
// the verdict without PumpDepth, and the warm Depth degraded to the
// truncated run's length instead of the certificate's shortest prefix.
func TestProbeWarmReplayKeepsRejectDiagnostics(t *testing.T) {
	set, err := parser.ParseTGDs(`
		S(X) -> R(X,Y).
		R(X,Y) -> S(Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	cache := chase.NewCache()
	opts := DecideOptions{MaxSteps: 2000, Cache: cache}
	cold, err := ProbeSeeds(context.Background(), set, opts, 16)
	if err != nil || !cold.Rejected {
		t.Fatalf("cold probe did not reject: %+v, %v", cold, err)
	}
	if cold.Depth >= cold.ProbeSteps {
		// The fixture must have a pump shorter than the truncated run, or
		// the test cannot tell the certificate depth from the run length.
		t.Fatalf("fixture is not discriminating: pump depth %d = probe budget %d", cold.Depth, cold.ProbeSteps)
	}
	warm, err := ProbeSeeds(context.Background(), set, opts, 16)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Errorf("warm probe drifted from cold:\ncold %+v\nwarm %+v", cold, warm)
	}
	var buf bytes.Buffer
	if err := cache.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored, _, err := chase.LoadCache(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadCache: %v", err)
	}
	snap, err := ProbeSeeds(context.Background(), set, DecideOptions{MaxSteps: 2000, Cache: restored}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if snap != cold {
		t.Errorf("snapshot-warmed probe drifted from cold:\ncold %+v\nsnap %+v", cold, snap)
	}
}
