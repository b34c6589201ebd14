package portfolio

import (
	"bytes"
	"context"
	"os"
	"testing"

	"airct/internal/chase"
	"airct/internal/guarded"
	"airct/internal/parser"
	"airct/internal/sticky"
)

// TestGoldenSnapshotKeysStillHit pins the cache keys against
// internal/chase/testdata/cache-v3.snap, written by `termcheck -cache-file`
// at its default budgets over five conformance programs in flat,
// -portfolio and -exists mode, when the seed-pool cap, the MFA bound, the
// probe budget and the ∀∃ frontier were still settable. The whole-run
// stage ledgers, the ∀∃ outcomes and the seed pools it holds must all
// still be found.
func TestGoldenSnapshotKeysStillHit(t *testing.T) {
	raw, err := os.ReadFile("../chase/testdata/cache-v3.snap")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pool bool // the guarded scan drained and stored the seed pool
	}{
		{"swap-intro", true},
		{"guard-chain-pump", true},
		{"sticky-relay-2", false},
		{"stage-grid-3", false},
		{"intro", false},
	} {
		src, err := os.ReadFile("../../testdata/conformance/" + tc.name + ".chase")
		if err != nil {
			t.Fatal(err)
		}
		prog := parser.MustParse(string(src))
		cache, _, err := chase.LoadCache(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		exists := chase.SearchOptions{MaxStates: 10_000, MaxAtoms: 200, Cache: cache}
		res, err := Analyze(context.Background(), prog.TGDs, Options{
			Guarded:  guarded.DecideOptions{MaxSteps: 2000},
			Sticky:   sticky.DecideOptions{MaxStates: 200_000},
			Cache:    cache,
			Database: prog.Database,
			Exists:   chase.SearchOptions{MaxStates: 10_000, MaxAtoms: 200},
		})
		if err != nil || !res.CacheHit {
			t.Errorf("%s: stage ledger missed (err %v)", tc.name, err)
		}
		if ex, err := chase.SearchTerminatingDerivation(prog.Database, prog.TGDs, exists); err != nil || !ex.Replayed {
			t.Errorf("%s: ∀∃ outcome missed (err %v)", tc.name, err)
		}
		if _, ok := cache.LookupSeedPool(prog.TGDs.Fingerprint(), 256); ok != tc.pool {
			t.Errorf("%s: seed pool found = %v, want %v", tc.name, ok, tc.pool)
		}
	}
}
