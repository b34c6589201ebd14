package portfolio

import (
	"context"
	"testing"

	"airct/internal/chase"
	"airct/internal/core"
	"airct/internal/workload"
)

// TestQuickCascadeMatchesReport is the cascade's property test: over a
// deterministic sweep of random existential programs, the cascade, with
// one shared cache, reaches exactly the exhaustive Report's conclusion on
// every program. In particular a Tier 1 divergence certificate can never
// contradict the Tier 2 semantic deciders: whenever the rejecting probe
// decides, Report (which reaches the same question through the guarded
// decider) must say Diverges too. Runs under the CI -race job, so the
// shared cache's locking is exercised alongside.
func TestQuickCascadeMatchesReport(t *testing.T) {
	cache := chase.NewCache()
	probeRejects := 0
	for seed := int64(0); seed < 200; seed++ {
		prog := workload.RandomExistentialProgram(seed)
		rep, err := Report(context.Background(), prog.TGDs, portOpts())
		if err != nil {
			t.Fatalf("seed %d: Report: %v", seed, err)
		}
		opts := portOpts()
		opts.Cache = cache
		res, err := Analyze(context.Background(), prog.TGDs, opts)
		if err != nil {
			t.Fatalf("seed %d: Analyze: %v", seed, err)
		}
		if res.Conclusion != rep.Conclusion {
			t.Fatalf("seed %d: cascade drifted: %v by %q, want %v (Report)\nstages: %+v",
				seed, res.Conclusion, res.DecidedBy, rep.Conclusion, res.Stages)
		}
		if res.DecidedBy == "probe" && res.Conclusion == core.Diverges {
			probeRejects++
			for _, s := range res.Stages {
				if s.Stage == "probe" && s.Decided && s.Evidence == "" {
					t.Errorf("seed %d: rejecting probe carries no certificate", seed)
				}
			}
		}
	}
	if probeRejects < 3 {
		t.Fatalf("only %d probe rejections exercised; generator too narrow", probeRejects)
	}
}
