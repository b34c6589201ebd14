package sticky

// Tests for the sticky decision's cache tier: a warm Decide replays the
// identical Verdict — including the witness seed and lasso — without
// exploring an automaton, both from an in-process warm cache and from a
// snapshot→restore of one, and the replayed witness stays materialisable.

import (
	"bytes"
	"reflect"
	"testing"

	"airct/internal/chase"
	"airct/internal/tgds"
)

func decideWith(t *testing.T, s *tgds.Set, cache *chase.Cache) *Verdict {
	t.Helper()
	v, err := Decide(s, DecideOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestDecideWarmCacheReplaysVerdict(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"diverging ladder", `S(X) -> R(X,Y). R(X,Y) -> S(Y).`},
		{"diverging swap cascade", `R(X,Y) -> P(X,Y). P(X,Y) -> R(Y,Z).`},
		{"terminating datalog", `A(X) -> B(X). B(X) -> C(X).`},
		{"terminating one-shot existential", `A(X) -> R(X,Y). R(X,Y) -> B(X).`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := set(t, tc.src)
			cache := chase.NewCache()
			cold := decideWith(t, s, cache)
			if cache.Stats().Entries == 0 {
				t.Fatal("cold Decide stored nothing")
			}

			warm := decideWith(t, s, cache)
			if !reflect.DeepEqual(warm, cold) {
				t.Errorf("warm replay drifted:\n  cold %+v\n  warm %+v", cold, warm)
			}
			if cache.Stats().Hits == 0 {
				t.Error("warm Decide missed the cache")
			}

			// The same contract must survive a snapshot round-trip.
			var buf bytes.Buffer
			if err := cache.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			restored, rep, err := chase.LoadCache(bytes.NewReader(buf.Bytes()))
			if err != nil || rep.Skipped > 0 || rep.Truncated {
				t.Fatalf("LoadCache: %v, report %+v", err, rep)
			}
			snap := decideWith(t, s, restored)
			if !reflect.DeepEqual(snap, cold) {
				t.Errorf("snapshot replay drifted:\n  cold %+v\n  snap %+v", cold, snap)
			}
			if restored.Stats().Hits == 0 {
				t.Error("snapshot-warmed Decide missed the cache")
			}

			// Replayed witnesses are as usable as live ones.
			if !cold.Terminates {
				live, err := MaterializeWitness(s, *cold.Seed, cold.Lasso, 2)
				if err != nil {
					t.Fatalf("live witness does not materialise: %v", err)
				}
				replayed, err := MaterializeWitness(s, *snap.Seed, snap.Lasso, 2)
				if err != nil {
					t.Fatalf("replayed witness does not materialise: %v", err)
				}
				ldb, err := witnessDatabase(live)
				if err != nil {
					t.Fatal(err)
				}
				rdb, err := witnessDatabase(replayed)
				if err != nil {
					t.Fatal(err)
				}
				if ldb.String() != rdb.String() {
					t.Error("replayed witness materialises to a different database")
				}
			}
		})
	}
}

// TestDecideCacheKeysByStateBound: the state bound is part of the key, so a
// decision at one bound never serves a different bound (a bound-relative
// "terminates" must not leak to a larger budget).
func TestDecideCacheKeysByStateBound(t *testing.T) {
	s := set(t, `S(X) -> R(X,Y). R(X,Y) -> S(Y).`)
	cache := chase.NewCache()
	if _, err := Decide(s, DecideOptions{MaxStates: 50, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	if _, err := Decide(s, DecideOptions{MaxStates: 5000, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Hits != before.Hits {
		t.Errorf("a 50-state decision served a 5000-state request: hits %d -> %d", before.Hits, after.Hits)
	}
	if after.Entries != before.Entries+1 {
		t.Errorf("second bound did not store its own entry: entries %d -> %d", before.Entries, after.Entries)
	}
}

// TestDecideReplayOfUnfitWitnessIndexRecomputes: a cached outcome whose
// witness index does not fit the set's Seeds — a fingerprint collision or
// a foreign snapshot frame; no decision of this set records it — is a
// miss: Decide explores afresh and answers as cold.
func TestDecideReplayOfUnfitWitnessIndexRecomputes(t *testing.T) {
	s := set(t, `S(X) -> R(X,Y). R(X,Y) -> S(Y).`)
	cold := decideWith(t, s, nil)
	cache := chase.NewCache()
	cache.StoreStickyOutcome(s.Fingerprint(), DecideOptions{}.maxStates(), &chase.StickyOutcome{
		Method: "buchi-witness", Complete: true, SeedIndex: int32(len(Seeds(s))),
		LassoCycle: []string{"x"},
	})
	if warm := decideWith(t, s, cache); !reflect.DeepEqual(warm, cold) {
		t.Errorf("unfit replay drifted:\n  cold %+v\n  got  %+v", cold, warm)
	}
}
