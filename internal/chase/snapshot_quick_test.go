package chase_test

// Property tests for the persistent cache tier's visible contract: a
// snapshot→restore→warm run is indistinguishable from an in-process warm
// run — and from the cold run itself — over random workload programs. The
// external test package lets the portfolio participate (chase cannot
// import it), so the property covers both the ∀∃ search outcomes and the
// ∀∀ stage ledgers flowing through one snapshot.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"airct/internal/acyclicity"
	"airct/internal/chase"
	"airct/internal/guarded"
	"airct/internal/portfolio"
	"airct/internal/workload"
)

// existsSignature renders everything a caller can observe about an
// ExistsResult, including the witness derivation's trigger identities.
func existsSignature(r *chase.ExistsResult) string {
	sig := fmt.Sprintf("found=%t exhausted=%t cancelled=%t states=%d stats=%+v",
		r.Found, r.Exhausted, r.Cancelled, r.StatesVisited, r.Stats)
	for _, tr := range r.Derivation {
		sig += " " + tr.String()
	}
	return sig
}

// Property: for random existential programs, the ∀∃ search is bit-identical
// across {cold, in-process warm, snapshot→restore→warm}, and the restored
// run actually hits the cache instead of re-searching.
func TestQuickSnapshotRestoreEqualsWarm(t *testing.T) {
	restoredHits := 0
	f := func(seed int64) bool {
		prog := workload.RandomExistentialProgram(seed % 4000)
		opts := chase.SearchOptions{MaxStates: 400, MaxAtoms: 60}
		search := func() *chase.ExistsResult {
			res, err := chase.SearchTerminatingDerivation(prog.Database, prog.TGDs, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res
		}

		cache := chase.NewCache()
		opts.Cache = cache
		cold := search()
		warm := search()

		var buf bytes.Buffer
		if err := cache.Snapshot(&buf); err != nil {
			t.Logf("seed %d: Snapshot: %v", seed, err)
			return false
		}
		restored, rep, err := chase.LoadCache(bytes.NewReader(buf.Bytes()))
		if err != nil || rep.Skipped > 0 || rep.Truncated {
			t.Logf("seed %d: LoadCache: %v, report %+v", seed, err, rep)
			return false
		}
		opts.Cache = restored
		snap := search()

		want := existsSignature(cold)
		if got := existsSignature(warm); got != want {
			t.Logf("seed %d: in-process warm drifted:\n  cold %s\n  warm %s", seed, want, got)
			return false
		}
		if got := existsSignature(snap); got != want {
			t.Logf("seed %d: snapshot warm drifted:\n  cold %s\n  snap %s", seed, want, got)
			return false
		}
		if restored.Stats().Hits > 0 {
			restoredHits++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
	if restoredHits < 20 {
		t.Fatalf("only %d restored runs hit the snapshot cache; the tier is not warming", restoredHits)
	}
}

// Property: the flat report of a guarded set, warmed from a snapshot of
// another process's cache (modelled as snapshot→restore in-process),
// renders identically to the cold report and replays the whole run from
// one stage-ledger hit, so no decider runs.
func TestQuickSnapshotRestoreWarmsGuardedDecide(t *testing.T) {
	checked := 0
	f := func(seed int64) bool {
		set := workload.RandomTGDSet(seed%4000, workload.RandomOptions{Rules: 3})
		if !set.IsGuarded() {
			return true
		}
		report := func(cache *chase.Cache) (string, bool) {
			rep, err := portfolio.Report(context.Background(), set, portfolio.Options{
				Guarded: guarded.DecideOptions{MaxSteps: 300},
				Cache:   cache,
			})
			if err != nil {
				return "", false
			}
			return rep.Summary(), true
		}
		cache := chase.NewCache()
		base, ok := report(cache)
		if !ok {
			return false
		}

		var buf bytes.Buffer
		if err := cache.Snapshot(&buf); err != nil {
			return false
		}
		restored, rep, err := chase.LoadCache(bytes.NewReader(buf.Bytes()))
		if err != nil || rep.Skipped > 0 || rep.Truncated {
			return false
		}
		got, ok := report(restored)
		if !ok {
			return false
		}
		if got != base {
			t.Logf("seed %d: snapshot-warmed report drifted:\n%s\nvs\n%s", seed, got, base)
			return false
		}
		if st := restored.Stats(); st.Hits != 1 || st.Misses != 0 {
			t.Logf("seed %d: snapshot-warmed report: %+v, want one hit and no miss", seed, st)
			return false
		}
		if !acyclicity.IsWeaklyAcyclic(set) {
			checked++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
	if checked < 5 {
		t.Fatalf("only %d seed-searching reports exercised the snapshot; generator too narrow", checked)
	}
}
