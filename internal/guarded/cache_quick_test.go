package guarded_test

// Property tests for the cross-run cache's visible contract on guarded
// sets, whose flat report carries the seed battery's evidence and witness
// strings: portfolio.Report with a warm cache renders the report it renders
// with a cold cache and with no cache at all — verdict, every reason line
// and the witnesses — and a warm report costs one stage-ledger hit. The
// random sets come from the shared workload generators; the CI -race job
// runs this file with one cache shared across the sets.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"airct/internal/acyclicity"
	"airct/internal/chase"
	"airct/internal/guarded"
	"airct/internal/portfolio"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// summary is the flat report's rendering at guarded budget 300.
func summary(set *tgds.Set, cache *chase.Cache) (string, error) {
	rep, err := portfolio.Report(context.Background(), set, portfolio.Options{
		Guarded: guarded.DecideOptions{MaxSteps: 300},
		Cache:   cache,
	})
	if err != nil {
		return "", err
	}
	return rep.Summary(), nil
}

// Property: for random guarded sets, the flat report is byte-identical
// across {no cache, cold cache, warm cache}, and the warm report adds
// exactly one cache hit and no miss.
func TestQuickDecideWarmCacheEqualsCold(t *testing.T) {
	checked := 0
	f := func(seed int64) bool {
		set := workload.RandomTGDSet(seed%4000, workload.RandomOptions{Rules: 3})
		if !set.IsGuarded() {
			return true
		}
		base, err := summary(set, nil)
		if err != nil {
			return false
		}
		cache := chase.NewCache()
		for _, label := range []string{"cold", "warm"} {
			before := cache.Stats()
			got, err := summary(set, cache)
			if err != nil {
				return false
			}
			if got != base {
				t.Logf("seed %d: %s cache: report drifted:\n%s\nvs\n%s", seed, label, got, base)
				return false
			}
			after := cache.Stats()
			if label == "warm" && (after.Hits != before.Hits+1 || after.Misses != before.Misses) {
				t.Logf("seed %d: warm report: hits %d -> %d, misses %d -> %d; want one hit and no miss",
					seed, before.Hits, after.Hits, before.Misses, after.Misses)
				return false
			}
		}
		if !acyclicity.IsWeaklyAcyclic(set) {
			checked++
		}
		return true
	}
	// Deterministic draws: the checked-count floor below must not depend on
	// testing/quick's time-seeded default source.
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
	if checked < 5 {
		t.Fatalf("only %d seed-searching reports exercised the cache; generator too narrow", checked)
	}
}

// Property: sharing ONE cache across different random sets never leaks a
// report between sets — each set's cached report matches its own uncached
// report (the set-fingerprint half of the key is doing its job).
func TestQuickDecideSharedCacheKeysBySet(t *testing.T) {
	cache := chase.NewCache()
	f := func(seed int64) bool {
		set := workload.RandomTGDSet(seed%4000, workload.RandomOptions{Rules: 3})
		if !set.IsGuarded() {
			return true
		}
		base, err := summary(set, nil)
		if err != nil {
			return false
		}
		got, err := summary(set, cache)
		return err == nil && got == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
