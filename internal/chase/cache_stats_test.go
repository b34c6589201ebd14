package chase

import (
	"encoding/json"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"airct/internal/logic"
	"airct/internal/parser"
)

// TestCacheStatsRoundTrip pins the one-struct-two-renderings contract of
// CacheStats: the text line termcheck prints and the JSON object termcheckd
// serves must carry the same keys with the same values, and both renderings
// must round-trip losslessly. A field added to the struct without updating
// String/ParseCacheStatsLine (or vice versa) fails here.
func TestCacheStatsRoundTrip(t *testing.T) {
	s := CacheStats{Hits: 12, Misses: 34, Entries: 5, Bytes: 67890, Evictions: 2, EvictedEntries: 41}

	// Text line → struct.
	back, err := ParseCacheStatsLine(s.String())
	if err != nil {
		t.Fatalf("parse of own rendering: %v", err)
	}
	if back != s {
		t.Errorf("text round-trip drifted: %+v vs %+v", back, s)
	}

	// JSON → struct.
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var jback CacheStats
	if err := json.Unmarshal(raw, &jback); err != nil {
		t.Fatal(err)
	}
	if jback != s {
		t.Errorf("JSON round-trip drifted: %+v vs %+v", jback, s)
	}

	// Key parity: every key=value pair of the text line appears as a JSON
	// key with the identical value, and the two renderings have the same
	// number of keys — so neither can grow a field the other lacks.
	var obj map[string]int64
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatal(err)
	}
	pairs := regexp.MustCompile(`([a-z-]+)=(-?\d+)`).FindAllStringSubmatch(s.String(), -1)
	if len(pairs) != len(obj) {
		t.Fatalf("text line has %d keys, JSON has %d:\n%s\n%s", len(pairs), len(obj), s.String(), raw)
	}
	for _, kv := range pairs {
		got, ok := obj[kv[1]]
		if !ok {
			t.Errorf("text key %q missing from JSON rendering %s", kv[1], raw)
			continue
		}
		if want := kv[2]; want != jsonInt(got) {
			t.Errorf("key %q: text %s vs JSON %d", kv[1], want, got)
		}
	}

	// Struct parity: every field is rendered (no silent omissions).
	if n := reflect.TypeOf(s).NumField(); n != len(obj) {
		t.Errorf("CacheStats has %d fields but renders %d keys", n, len(obj))
	}

	// Malformed lines are rejected, not zero-filled.
	if _, err := ParseCacheStatsLine("cache: hits=1"); err == nil {
		t.Error("truncated line must not parse")
	}
}

func jsonInt(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestCacheStatsStringMatchesLiveCounters exercises String against a live
// cache so the line reflects real counter motion, not just a struct dump.
func TestCacheStatsStringMatchesLiveCounters(t *testing.T) {
	c := NewCache()
	set := logic.Fingerprint{Hi: 1, Lo: 1}
	if _, ok := c.LookupStageOutcomes(set, 10); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.StoreStageOutcomes(set, 10, &StageOutcomes{Verdict: "diverges", DecidedBy: "guarded"})
	if _, ok := c.LookupStageOutcomes(set, 10); !ok {
		t.Fatal("stored ledger not served")
	}
	line := c.Stats().String()
	if !strings.HasPrefix(line, "cache: hits=1 misses=1 entries=1 ") {
		t.Errorf("live stats line off: %s", line)
	}
}

// TestCacheActivityTotalsAggregateRuns pins the /v1/stats engine-activity
// surface: every run sharing the cache reports into ActivityTotals, and the
// totals mirror the per-run Stats counters it folded in. DeltaRechecks and
// SeedIndexHits keep their JSON keys and read 0.
func TestCacheActivityTotalsAggregateRuns(t *testing.T) {
	cache := NewCache()
	if got := cache.ActivityTotals(); got != (ActivityTotals{}) {
		t.Fatalf("fresh cache has activity: %+v", got)
	}
	prog := parser.MustParse(`
		E(X,Y) -> E(Y,Z).
		E(a,b).
	`)
	var wantChecks int64
	const runs = 3
	for i := 0; i < runs; i++ {
		run := RunChase(prog.Database, prog.TGDs, Options{
			Variant: Restricted, MaxSteps: 20, Cache: cache,
		})
		wantChecks += int64(run.Stats.ActivityChecks)
	}
	got := cache.ActivityTotals()
	if got.Runs != runs {
		t.Errorf("runs = %d, want %d", got.Runs, runs)
	}
	if got.ActivityChecks != wantChecks {
		t.Errorf("totals %+v drifted from the per-run sum (checks %d)", got, wantChecks)
	}
	if got.DeltaRechecks != 0 {
		t.Errorf("delta rechecks = %d, want 0 (the engine runs no delta re-check)", got.DeltaRechecks)
	}
	if got.SeedIndexHits != 0 {
		t.Errorf("seed-index hits = %d, want 0 (the seed-index kind is deleted)", got.SeedIndexHits)
	}
}
