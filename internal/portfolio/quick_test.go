package portfolio

import (
	"context"
	"testing"

	"airct/internal/chase"
	"airct/internal/core"
	"airct/internal/workload"
)

// TestQuickCascadeMatchesReport is the cascade's property test: over a
// deterministic sweep of random existential programs, the cascade — one
// shared cache, the programs' databases feeding the ∀∃ racer — reaches
// exactly the exhaustive Report's conclusion on every program. In
// particular a Tier 1 divergence certificate can never contradict the
// Tier 2 semantic deciders: whenever the rejecting probe decides, Report
// (which reaches the same question through the guarded decider) must say
// Diverges too. Runs under the CI -race job, so the shared cache's locking
// is exercised alongside.
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
		opts.Database = prog.Database
		opts.Exists = chase.SearchOptions{MaxStates: 200, MaxAtoms: 40}
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

// TestStageLedgerKeyedByDatabase is the cross-database replay regression:
// the whole-run StageOutcomes entry is keyed by the instance fingerprint
// too, so the same set analysed against a different database must MISS and
// re-run — its exists diagnostics belong to the other database — while the
// same (set, database) pair replays.
func TestStageLedgerKeyedByDatabase(t *testing.T) {
	a := workload.RandomExistentialProgram(7)
	b := workload.RandomExistentialProgram(1)
	if a.TGDs.Fingerprint() == b.TGDs.Fingerprint() {
		t.Fatal("want distinct programs")
	}
	cache := chase.NewCache()
	opts := portOpts()
	opts.Cache = cache
	opts.Database = a.Database
	opts.Exists = chase.SearchOptions{MaxStates: 200, MaxAtoms: 40}
	cold, err := Analyze(context.Background(), a.TGDs, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Analyze(context.Background(), a.TGDs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || !warm.CacheHit {
		t.Fatalf("same (set, database): cold hit=%v warm hit=%v", cold.CacheHit, warm.CacheHit)
	}
	opts.Database = b.Database
	other, err := Analyze(context.Background(), a.TGDs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHit {
		t.Fatal("different database replayed the other database's stage ledger")
	}
	if other.Conclusion != cold.Conclusion {
		t.Fatalf("conclusion depends on the database: %v vs %v", other.Conclusion, cold.Conclusion)
	}
	// And with no database at all (zero instance fingerprint): a third key.
	opts.Database = nil
	bare, err := Analyze(context.Background(), a.TGDs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bare.CacheHit {
		t.Fatal("database-free run replayed a database-keyed ledger")
	}
}
