package portfolio

import (
	"bytes"
	"context"
	"os"
	"slices"
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
// probe budget and the ∀∃ frontier were still settable. The ∀∃ outcomes
// it holds must still be found. Its whole-run stage ledgers were stored
// under the programs' fact fingerprints, which a ∀∀ run no longer reads: a
// rule-only Analyze must miss them, store a ledger of its own without an
// exists record, and replay that on the next call.
func TestGoldenSnapshotKeysStillHit(t *testing.T) {
	raw, err := os.ReadFile("../chase/testdata/cache-v3.snap")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"swap-intro", "guard-chain-pump", "sticky-relay-2", "stage-grid-3", "intro"} {
		src, err := os.ReadFile("../../testdata/conformance/" + name + ".chase")
		if err != nil {
			t.Fatal(err)
		}
		prog := parser.MustParse(string(src))
		cache, _, err := chase.LoadCache(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		exists := chase.SearchOptions{MaxStates: 10_000, MaxAtoms: 200, Cache: cache}
		opts := Options{
			Guarded: guarded.DecideOptions{MaxSteps: 2000},
			Sticky:  sticky.DecideOptions{MaxStates: 200_000},
			Cache:   cache,
		}
		if res, err := Analyze(context.Background(), prog.TGDs, opts); err != nil || res.CacheHit {
			t.Errorf("%s: rule-only run replayed a fact-keyed stage ledger (err %v)", name, err)
		}
		res, err := Analyze(context.Background(), prog.TGDs, opts)
		if err != nil || !res.CacheHit {
			t.Errorf("%s: rule-only stage ledger missed (err %v)", name, err)
		} else if slices.ContainsFunc(res.Stages, func(s StageOutcome) bool { return s.Stage == "exists" }) {
			t.Errorf("%s: replayed ledger carries an exists record", name)
		}
		if ex, err := chase.SearchTerminatingDerivation(prog.Database, prog.TGDs, exists); err != nil || !ex.Replayed {
			t.Errorf("%s: ∀∃ outcome missed (err %v)", name, err)
		}
	}
}
