package chase

// Unit tests for the cross-run cache's own mechanics — stats accounting,
// per-kind key separation, and segment eviction keeping the newest entry —
// complementing the behavioural pins (engine_delta_test.go round-trips,
// the conformance corpus, the portfolio's warm≡cold properties).

import (
	"fmt"
	"testing"

	"airct/internal/logic"
)

func fpOf(s string) logic.Fingerprint {
	return logic.HashTerm(logic.Const(s))
}

func TestCacheStatsAndKindSeparation(t *testing.T) {
	c := NewCache()
	set := fpOf("set")
	if _, ok := c.LookupStageOutcomes(set, 100); ok {
		t.Fatal("empty cache hit")
	}
	c.StoreStageOutcomes(set, 100, &StageOutcomes{Verdict: "diverges", DecidedBy: "probe"})
	// Same fingerprints and salt bits, different kind, and a different
	// salt: all misses.
	if _, ok := c.LookupExistsOutcome(set, logic.Fingerprint{}, 100, 100); ok {
		t.Error("∀∃ lookup hit a stage-ledger entry")
	}
	if _, ok := c.LookupStageOutcomes(set, 200); ok {
		t.Error("the salt is not part of the ledger key")
	}
	o, ok := c.LookupStageOutcomes(set, 100)
	if !ok || o.Verdict != "diverges" || o.DecidedBy != "probe" {
		t.Errorf("ledger round-trip = %+v, %v", o, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("stats = %+v, want 1 hit, 3 misses, 1 entry, positive bytes", st)
	}
}

// TestCacheEvictionKeepsNewestEntry drives one stripe past its share of a
// tiny byte limit: the overflowing store must drop the stripe's old
// entries BEFORE inserting, so the newest entry is always retrievable and
// the byte estimate stays bounded.
func TestCacheEvictionKeepsNewestEntry(t *testing.T) {
	limit := int64(cacheStripes * 512)
	c := NewCacheWithLimit(limit)
	set := fpOf("set")
	// Salt-only variation lands every entry in ONE stripe: the ledger key's
	// instance half is zero, its salt folds a constant kind with the
	// caller's salt, and that salt is kept a multiple of cacheStripes so
	// the stripe index never moves.
	verdict := string(make([]byte, 64))
	stored := 0
	for i := 0; i < 256; i++ {
		salt := uint64(i+1) * cacheStripes
		c.StoreStageOutcomes(set, salt, &StageOutcomes{Verdict: verdict})
		stored++
		if _, ok := c.LookupStageOutcomes(set, salt); !ok {
			t.Fatalf("store %d: newest entry did not survive its own eviction", i)
		}
	}
	st := c.Stats()
	if st.Entries >= int64(stored) {
		t.Errorf("no eviction happened: %d entries after %d oversized stores under a %dB limit",
			st.Entries, stored, limit)
	}
	if st.Entries <= 0 {
		t.Error("eviction left the cache empty")
	}
	if st.Bytes > limit {
		t.Errorf("byte estimate %d exceeds the whole-cache limit %d", st.Bytes, limit)
	}
}

// TestCacheConcurrentStripes hammers lookups and stores from many
// goroutines; correctness assertions are light (the -race build is the
// real check), but every stored entry must be retrievable or evicted —
// never corrupted.
func TestCacheConcurrentStripes(t *testing.T) {
	c := NewCache()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				set := fpOf(fmt.Sprintf("set-%d-%d", w, i))
				salt := uint64(i % 7)
				c.StoreStageOutcomes(set, salt, &StageOutcomes{Verdict: "m"})
				if o, ok := c.LookupStageOutcomes(set, salt); ok && o.Verdict != "m" {
					t.Error("corrupted entry")
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

// TestCacheEvictionDropsOldestHalf pins the age-aware policy (ROADMAP 1a):
// a store that overflows its stripe's share evicts only the stripe's oldest
// half by insertion sequence, so entries inserted just before the overflow
// — the hot ones — survive. The pre-PR policy dropped the whole stripe,
// hot entries included, and fails this test.
func TestCacheEvictionDropsOldestHalf(t *testing.T) {
	// Share per stripe: 1024 bytes. Each entry below costs exactly its
	// 64-byte body (the 59-byte verdict and its length byte, the two-digit
	// deciding stage and its length byte, and the empty record count)
	// + 48 (overhead) = 112 bytes, so nine entries (1008B) fit and the
	// tenth store triggers an eviction.
	c := NewCacheWithLimit(int64(cacheStripes * 1024))
	// A zero salt keeps the key's salt at the bare kind tag; Set.Lo
	// multiples of cacheStripes pin every key to stripe 0.
	key := func(i int) logic.Fingerprint {
		return logic.Fingerprint{Hi: uint64(i), Lo: uint64(i * cacheStripes)}
	}
	entry := func(i int) *StageOutcomes {
		return &StageOutcomes{Verdict: string(make([]byte, 59)), DecidedBy: fmt.Sprintf("%02d", i)}
	}
	for i := 1; i <= 9; i++ {
		c.StoreStageOutcomes(key(i), 0, entry(i))
	}
	// Entry 9 is the hot one: inserted last before the overflow below.
	c.StoreStageOutcomes(key(10), 0, entry(10))

	// The overflow evicts ⌈9/2⌉ = 5 oldest entries (1..5); 6..10 survive.
	for i := 1; i <= 5; i++ {
		if _, ok := c.LookupStageOutcomes(key(i), 0); ok {
			t.Errorf("entry %d is in the oldest half and should have been evicted", i)
		}
	}
	for i := 6; i <= 10; i++ {
		if o, ok := c.LookupStageOutcomes(key(i), 0); !ok || o.DecidedBy != entry(i).DecidedBy {
			t.Errorf("entry %d was inserted just before the overflow and must survive (ok=%v o=%+v)", i, ok, o)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.EvictedEntries != 5 {
		t.Errorf("stats = %+v, want exactly 1 eviction dropping 5 entries", st)
	}
	if st.Entries != 5 {
		t.Errorf("entries = %d, want 5 survivors", st.Entries)
	}
}

// TestCacheExistsLadderKeepsDeepInconclusive pins the two-rung ∀∃ ladder
// (ROADMAP 5c): a decisive outcome recorded at a budget ABOVE a deep
// inconclusive one must not discard it — queries below the decisive budget
// keep replaying the inconclusive run instead of re-searching. The pre-PR
// single-slot "prefer decisive" policy fails the low-budget lookup.
func TestCacheExistsLadderKeepsDeepInconclusive(t *testing.T) {
	c := NewCache()
	set, inst := fpOf("set"), fpOf("inst")
	inc := &ExistsOutcome{Budget: 1000, StatesVisited: 1000}
	c.StoreExistsOutcome(set, inst, 50, inc)
	dec := &ExistsOutcome{Exhausted: true, Budget: 2000, StatesVisited: 1500}
	c.StoreExistsOutcome(set, inst, 50, dec)

	// At or above the decisive budget the decisive rung answers.
	if o, ok := c.LookupExistsOutcome(set, inst, 50, 3000); !ok || !o.Exhausted {
		t.Errorf("lookup at 3000 = %+v, %v; want the decisive rung", o, ok)
	}
	// Below the inconclusive depth the inconclusive rung still replays.
	if o, ok := c.LookupExistsOutcome(set, inst, 50, 500); !ok || o.decisive() || o.Budget != 1000 {
		t.Errorf("lookup at 500 = %+v, %v; want the deep inconclusive rung", o, ok)
	}
	// Between the rungs neither claim applies: an honest miss.
	if o, ok := c.LookupExistsOutcome(set, inst, 50, 1500); ok {
		t.Errorf("lookup at 1500 = %+v; want a miss (neither rung serves)", o)
	}
}

// TestCacheExistsLadderRungPreference pins the per-rung replacement order:
// among decisive outcomes the lowest budget wins (it serves a superset of
// queries), among inconclusive ones the deepest wins.
func TestCacheExistsLadderRungPreference(t *testing.T) {
	c := NewCache()
	set, inst := fpOf("set"), fpOf("inst")
	c.StoreExistsOutcome(set, inst, 50, &ExistsOutcome{Found: true, Budget: 800})
	c.StoreExistsOutcome(set, inst, 50, &ExistsOutcome{Found: true, Budget: 200})
	c.StoreExistsOutcome(set, inst, 50, &ExistsOutcome{Found: true, Budget: 400})
	if o, ok := c.LookupExistsOutcome(set, inst, 50, 250); !ok || o.Budget != 200 {
		t.Errorf("decisive rung = %+v, %v; want the lowest budget (200)", o, ok)
	}
	// The inconclusive rung keeps the deepest budget; a query below the
	// decisive rung's budget (which cannot serve it) replays that rung.
	c.StoreExistsOutcome(set, inst, 50, &ExistsOutcome{Budget: 300})
	c.StoreExistsOutcome(set, inst, 50, &ExistsOutcome{Budget: 900})
	c.StoreExistsOutcome(set, inst, 50, &ExistsOutcome{Budget: 600})
	if o, ok := c.LookupExistsOutcome(set, inst, 50, 150); !ok || o.decisive() || o.Budget != 900 {
		t.Errorf("lookup at 150 = %+v, %v; want the deepest inconclusive rung (900)", o, ok)
	}
}
