package chase

// The cross-run chase-state cache: whole analysis answers memoised on
// (TGD-set fingerprint, instance fingerprint) keys, so that a served
// workload that repeats a program costs one map probe and one decode
// instead of a run. Two entry kinds share the store:
//
//   - stage ledgers (portfolio.Analyze and portfolio.Report): the recorded
//     stages of one ∀∀ run, replayed without running any decider. A ∀∀
//     run reads no facts, so the instance fingerprint is zero.
//   - ∀∃ ladders (SearchTerminatingDerivation): whole recorded searches of
//     one database, replayed without searching.
//
// An entry is stored as its kind's snapshot body (snapshot.go): the bytes a
// snapshot frame carries after the key. Store encodes, Lookup decodes a
// fresh value the caller owns, an entry costs its body length plus a fixed
// overhead, and Snapshot writes the stored bytes unchanged.
//
// Key derivation: the set fingerprint is tgds.Set.Fingerprint (order-
// sensitive over rule labels and atoms — the identity under which runs and
// evidence strings are reproducible); the instance fingerprint is the
// order-independent logic.FingerprintAtoms of the database. The kind tag
// and any scalar parameters (budgets, the atom bound) are folded into a
// salt so the kinds never collide. Fingerprint equality is trusted as
// content equality, like every other fingerprint consumer.
//
// Concurrency contract (docs/ARCHITECTURE.md): the cache is shared by
// concurrent analyses and must not serialise them — the store is striped
// by key hash across cacheStripes mutexes. Stored bodies are never written after
// store (a merge swaps in a new body) and hold no interner-bound identity,
// so a hit never touches another run's interner and no interner grows a
// lock.
//
// Eviction is age-aware: each stripe owns a 1/cacheStripes share of the
// byte limit, every entry carries the stripe's insertion sequence number,
// and a store that would overflow its stripe's share evicts the stripe's
// OLDEST HALF by insertion order BEFORE inserting — so the newest entry
// always survives its own eviction and recent work outlives the cold
// long tail. One lock round-trip on the hot path, no access-time
// bookkeeping (insertion order, not LRU — a deliberate trade: tracking
// reads would put a write on every lookup).

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"airct/internal/logic"
)

const (
	cacheStripes = 64

	// DefaultCacheBytes bounds the cache's footprint by default.
	DefaultCacheBytes = 64 << 20

	// entryOverhead is the fixed per-entry cost added to the body length:
	// the 40-byte key plus the insertion sequence number.
	entryOverhead = 48
)

// Entry-kind salt tags (the salt's top byte); ORed with per-kind scalar
// parameters so distinct kinds and parameters occupy distinct key space.
// Tags 1, 2, 3, 5 and 7 are retired: 1 held the guarded battery's per-seed
// outcomes, 3 its seed pools and 5 the sticky Büchi verdicts, all three
// replaced by the flat report's stage ledger; 2 held the engine's root
// trigger index, deleted because it cost more than it saved, and 7 the
// deleted portfolio cost model. v3 snapshots that still carry such frames
// skip them as unknown kinds. Never reuse them.
const (
	kindStageOutcomes uint64 = 4 << 56
	kindExistsOutcome uint64 = 6 << 56
)

// CacheKey identifies one cached chase artefact.
type CacheKey struct {
	// Set is the TGD-set fingerprint (tgds.Set.Fingerprint).
	Set logic.Fingerprint
	// Inst is the instance fingerprint of the database chased.
	Inst logic.Fingerprint
	// Salt folds the entry kind and its scalar parameters.
	Salt uint64
}

// CacheStats is a point-in-time snapshot of the cache's counters. It is
// the one stats shape shared by every surface that reports cache work —
// the CLI's `cache:` line (String) and the daemon's /v1/stats JSON (the
// field tags) render the same struct, and TestCacheStatsRoundTrip pins the
// two renderings key-for-key so they can never drift.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int64 `json:"entries"`
	// Bytes is the retained footprint: every entry's body length plus a
	// fixed per-entry overhead.
	Bytes int64 `json:"bytes"`
	// Evictions counts eviction events: a store that would overflow its
	// stripe's byte share first drops the stripe's oldest half by
	// insertion sequence. EvictedEntries totals the entries those events
	// discarded — a warm entry silently lost to eviction is otherwise
	// unobservable.
	Evictions      int64 `json:"evictions"`
	EvictedEntries int64 `json:"evicted-entries"`
}

// String renders the canonical `cache:` stats line (without a trailing
// newline), exactly as termcheck prints it. The key names are the JSON
// field tags, in struct order.
func (s CacheStats) String() string {
	return fmt.Sprintf("cache: hits=%d misses=%d entries=%d bytes=%d evictions=%d evicted-entries=%d",
		s.Hits, s.Misses, s.Entries, s.Bytes, s.Evictions, s.EvictedEntries)
}

// ParseCacheStatsLine parses a String-rendered `cache:` line back into the
// struct — the round-trip direction that keeps the text rendering honest
// against the JSON shape.
func ParseCacheStatsLine(line string) (CacheStats, error) {
	var s CacheStats
	_, err := fmt.Sscanf(strings.TrimSpace(line),
		"cache: hits=%d misses=%d entries=%d bytes=%d evictions=%d evicted-entries=%d",
		&s.Hits, &s.Misses, &s.Entries, &s.Bytes, &s.Evictions, &s.EvictedEntries)
	if err != nil {
		return CacheStats{}, fmt.Errorf("chase: malformed cache stats line %q: %w", line, err)
	}
	return s, nil
}

// StageRecord is one stage's outcome inside a cached StageOutcomes entry:
// what a portfolio stage attempted and decided for a set. Verdict strings
// ("terminates"/"diverges"/"unknown") keep the entry free of higher-layer
// types; Steps and DurationNS record the stage's work when it ran live.
type StageRecord struct {
	Stage   string
	Tier    int
	Decided bool
	Verdict string
	Detail  string
	// Evidence carries a stage's divergence certificate (the Tier 1
	// probe's guard-chain pump) or, under the flat report, its witness
	// line, so warm replays serve the string, not just the verdict.
	Evidence   string
	Steps      int
	DurationNS int64
	// Seeds, Saturated and Depth carry the Tier 1 probe's diagnostics
	// (pool size, seeds whose whole battery saturated within k, and the
	// deepest saturating chase) so a warm StageOutcomes hit serves them
	// without re-probing; zero for non-probe stages.
	Seeds     int
	Saturated int
	Depth     int
}

// StageOutcomes is a cached portfolio run: the per-stage records plus the
// combined verdict and the deciding stage. Entries are keyed by the set
// fingerprint and an options salt (the caller folds its budgets and its
// schedule into it); the instance fingerprint is always zero, since a ∀∀
// run reads no facts.
type StageOutcomes struct {
	Records   []StageRecord
	Verdict   string
	DecidedBy string
}

// ExistsStep is one trigger of a cached ∀∃ derivation in portable form: the
// TGD index plus the body substitution as parallel (variable, value) slices
// in sorted variable order, terms by value.
type ExistsStep struct {
	TGD  int32
	Vars []logic.Term
	Vals []logic.Term
}

// ExistsOutcome is a cached ∀∃ search outcome, keyed by (set fingerprint,
// instance fingerprint, atom bound) with the state budget stored
// IN the entry, not the key — lookups apply the budget-monotonicity rule:
//
//   - a decisive outcome (Found or Exhausted) at budget B serves any query
//     with budget ≥ B: the bigger-budget run explores the same space and
//     decides identically (the budget cut only ever truncates);
//   - an inconclusive outcome at budget B serves only queries with budget
//     ≤ B: the smaller-budget run is a prefix of the recorded one and can
//     find nothing the recorded run did not.
//
// A replayed hit reports the recorded run's statistics and witness.
type ExistsOutcome struct {
	Found     bool
	Exhausted bool
	// Budget is the MaxStates bound the recorded run used.
	Budget        int
	StatesVisited int
	Derivation    []ExistsStep
	Stats         SearchStats
}

func (o *ExistsOutcome) decisive() bool { return o.Found || o.Exhausted }

// serves applies the budget-monotonicity rule for a query at maxStates.
func (o *ExistsOutcome) serves(maxStates int) bool {
	if o.decisive() {
		return o.Budget <= maxStates
	}
	return o.Budget >= maxStates
}

// existsLadder is the per-key ∀∃ entry: a two-rung ladder instead of a
// single slot. The decisive rung keeps the lowest-budget decisive outcome
// (it serves every query at or above its budget); the inconclusive rung
// keeps the deepest inconclusive one (it serves every query at or below
// its budget). Both are kept because neither subsumes the other: a
// decisive outcome recorded at budget B says nothing to a query below B,
// where the deep inconclusive rung still replays — a single "prefer
// decisive" slot would discard it and force those queries to re-search.
type existsLadder struct {
	decisive     *ExistsOutcome
	inconclusive *ExistsOutcome
}

// serve picks the rung for a query at maxStates: the decisive rung when it
// applies (it is an answer, not a shrug), else the inconclusive one.
func (l *existsLadder) serve(maxStates int) (*ExistsOutcome, bool) {
	if l.decisive != nil && l.decisive.serves(maxStates) {
		return l.decisive, true
	}
	if l.inconclusive != nil && l.inconclusive.serves(maxStates) {
		return l.inconclusive, true
	}
	return nil, false
}

// merge folds o into its rung and reports whether the ladder changed: it
// does not when the rung already holds an outcome at a better budget.
func (l *existsLadder) merge(o *ExistsOutcome) bool {
	if o.decisive() {
		if l.decisive != nil && l.decisive.Budget <= o.Budget {
			return false
		}
		l.decisive = o
		return true
	}
	if l.inconclusive != nil && l.inconclusive.Budget >= o.Budget {
		return false
	}
	l.inconclusive = o
	return true
}

// absorb folds v's rungs into l and reports whether l changed — the
// ladder kind's merge.
func (l *existsLadder) absorb(v *existsLadder) (*existsLadder, bool) {
	changed := false
	for _, o := range v.rungs() {
		changed = l.merge(o) || changed
	}
	return l, changed
}

// rungs lists the ladder's outcomes, decisive first — the snapshot codec's
// canonical order.
func (l *existsLadder) rungs() []*ExistsOutcome {
	var out []*ExistsOutcome
	if l.decisive != nil {
		out = append(out, l.decisive)
	}
	if l.inconclusive != nil {
		out = append(out, l.inconclusive)
	}
	return out
}

// kind is one entry kind: the codec between its values and their stored
// bodies. decode reports a body it cannot accept through d.fail. merge,
// set only for the ∀∃ ladder, replaces first-writer-wins: it folds v into
// the stored value and reports whether that changed it.
type kind[T any] struct {
	encode func(b []byte, v T) []byte
	decode func(d *decoder) T
	merge  func(stored, v T) (T, bool)
}

// decodeBody decodes one whole body; trailing bytes are a failure.
func (k *kind[T]) decodeBody(body []byte) (T, bool) {
	d := &decoder{b: body}
	v := k.decode(d)
	return v, d.err == nil && d.off == len(body)
}

// get returns the decoded entry under key without counting the lookup. A
// body the decoder refuses reads as absent.
func (k *kind[T]) get(c *Cache, key CacheKey) (T, bool) {
	s := c.stripe(key)
	s.mu.Lock()
	e, ok := s.m[key]
	s.mu.Unlock()
	if !ok {
		var zero T
		return zero, false
	}
	return k.decodeBody(e.body)
}

// lookup is get, counting the hit or miss.
func (k *kind[T]) lookup(c *Cache, key CacheKey) (T, bool) {
	v, ok := k.get(c, key)
	c.count(ok)
	return v, ok
}

// store encodes v under key: first writer wins (entries are deterministic,
// so racing writers store equal values), or, for a merging kind, v is
// folded into the stored value and the merged body replaces it.
func (k *kind[T]) store(c *Cache, key CacheKey, v T) {
	s := c.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	old, dup := s.m[key]
	if dup {
		if k.merge == nil {
			return
		}
		if stored, ok := k.decodeBody(old.body); ok {
			merged, changed := k.merge(stored, v)
			if !changed {
				return
			}
			v = merged
		}
	}
	c.putLocked(s, key, old, k.encode(nil, v))
}

// restore stores one snapshot frame body, reporting false (skip the frame)
// when the body does not decode. A merging kind folds the decoded value in
// through store. Any other kind's body already is its stored form, so once
// the decoder accepts it, it is kept as it is, first writer wins: copied,
// since Restore reuses its frame buffer, and never re-encoded.
func (k *kind[T]) restore(c *Cache, key CacheKey, body []byte) bool {
	if k.merge != nil {
		v, ok := k.decodeBody(body)
		if ok {
			k.store(c, key, v)
		}
		return ok
	}
	d := &decoder{b: body, validate: true}
	k.decode(d)
	if d.err != nil || d.off != len(body) {
		return false
	}
	s := c.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.m[key]; !dup {
		c.putLocked(s, key, nil, bytes.Clone(body))
	}
	return true
}

// cacheEntry is one stored entry: its kind's snapshot body and the
// stripe's insertion sequence number — the age signal the evictor sorts
// by. A merge swaps in a new entry; a body is never written after store.
type cacheEntry struct {
	body []byte
	seq  uint64
}

func (e *cacheEntry) size() int64 { return int64(len(e.body)) + entryOverhead }

type cacheStripe struct {
	mu    sync.Mutex
	m     map[CacheKey]*cacheEntry
	bytes int64
	// seq counts insertions into this stripe; each entry records the value
	// at its insert (or replace), making "oldest half" well defined.
	seq uint64
}

// Cache is the cross-run chase-state cache. The zero value is not usable;
// call NewCache or NewCacheWithLimit. Safe for concurrent use.
type Cache struct {
	stripes  [cacheStripes]cacheStripe
	maxBytes int64

	hits           atomic.Int64
	misses         atomic.Int64
	entries        atomic.Int64
	bytes          atomic.Int64
	evictions      atomic.Int64
	evictedEntries atomic.Int64

	// Aggregated engine activity across cache-sharing runs (NoteRunActivity).
	actRuns   atomic.Int64
	actChecks atomic.Int64
}

// NewCache returns an empty cache bounded by DefaultCacheBytes.
func NewCache() *Cache { return NewCacheWithLimit(DefaultCacheBytes) }

// NewCacheWithLimit returns an empty cache that evicts once its footprint
// passes maxBytes (0 or negative: DefaultCacheBytes).
func NewCacheWithLimit(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	c := &Cache{maxBytes: maxBytes}
	for i := range c.stripes {
		c.stripes[i].m = make(map[CacheKey]*cacheEntry)
	}
	return c
}

// Stats snapshots the counters. Taken without locks; under concurrent use
// the fields are individually (not mutually) consistent.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Entries:        c.entries.Load(),
		Bytes:          c.bytes.Load(),
		Evictions:      c.evictions.Load(),
		EvictedEntries: c.evictedEntries.Load(),
	}
}

func (c *Cache) stripe(k CacheKey) *cacheStripe {
	// The fingerprint halves are already full-avalanche mixes; their low
	// bits stripe uniformly.
	return &c.stripes[(k.Set.Lo^k.Inst.Lo^k.Salt)%cacheStripes]
}

func (c *Cache) count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// putLocked stores body under k in the locked stripe: it replaces old when
// there is one, re-stamping its age, and otherwise inserts, evicting the
// stripe's oldest half BEFORE the insert when the body would overflow its
// 1/cacheStripes share of the byte limit — so the newest (hottest) entry
// always survives its own eviction and a saturated cache sheds its cold
// tail, never fresh work. An entry larger than a whole share still gets
// stored (alone in its stripe).
func (c *Cache) putLocked(s *cacheStripe, k CacheKey, old *cacheEntry, body []byte) {
	s.seq++
	e := &cacheEntry{body: body, seq: s.seq}
	size := e.size()
	if old != nil {
		size -= old.size()
	} else {
		for s.bytes+size > c.maxBytes/cacheStripes && len(s.m) > 0 {
			c.evictOldestHalfLocked(s)
		}
		c.entries.Add(1)
	}
	s.m[k] = e
	s.bytes += size
	c.bytes.Add(size)
}

// evictOldestHalfLocked drops the stripe's oldest ⌈n/2⌉ entries by
// insertion sequence — one eviction event. putLocked loops it for the
// rare store that still overflows after one round (a near-share-sized
// entry), which converges because every round halves the entry count.
func (c *Cache) evictOldestHalfLocked(s *cacheStripe) {
	type aged struct {
		k   CacheKey
		seq uint64
	}
	order := make([]aged, 0, len(s.m))
	for k, e := range s.m {
		order = append(order, aged{k, e.seq})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].seq < order[j].seq })
	drop := (len(order) + 1) / 2
	var freed int64
	for _, a := range order[:drop] {
		freed += s.m[a.k].size()
		delete(s.m, a.k)
	}
	s.bytes -= freed
	c.entries.Add(-int64(drop))
	c.bytes.Add(-freed)
	c.evictions.Add(1)
	c.evictedEntries.Add(int64(drop))
}

func stageOutcomesKey(set logic.Fingerprint, salt uint64) CacheKey {
	// Mask the caller's salt into the low 56 bits so the kind tag stays
	// collision-free against the other entry kinds.
	return CacheKey{Set: set, Salt: kindStageOutcomes | (salt &^ (uint64(0xFF) << 56))}
}

// LookupStageOutcomes returns the cached portfolio stage outcomes of the
// set under the options salt.
func (c *Cache) LookupStageOutcomes(set logic.Fingerprint, salt uint64) (*StageOutcomes, bool) {
	return stageOutcomes.lookup(c, stageOutcomesKey(set, salt))
}

// StoreStageOutcomes records a portfolio run's stage outcomes.
func (c *Cache) StoreStageOutcomes(set logic.Fingerprint, salt uint64, o *StageOutcomes) {
	stageOutcomes.store(c, stageOutcomesKey(set, salt), o)
}

// existsOutcomeKey keeps bits 48–55 of the salt zero: they held the
// frontier strategy, and smallest-first, the one left, was strategy 0.
func existsOutcomeKey(set, inst logic.Fingerprint, maxAtoms int) CacheKey {
	return CacheKey{
		Set:  set,
		Inst: inst,
		Salt: kindExistsOutcome | uint64(uint32(maxAtoms)),
	}
}

// LookupExistsOutcome returns a cached ∀∃ search outcome able to serve a
// query at the given state budget under the budget-monotonicity rule (see
// ExistsOutcome and existsLadder). A ladder present but with no serving
// rung counts as a miss.
func (c *Cache) LookupExistsOutcome(set, inst logic.Fingerprint, maxAtoms, maxStates int) (*ExistsOutcome, bool) {
	l, ok := existsLadders.get(c, existsOutcomeKey(set, inst, maxAtoms))
	var o *ExistsOutcome
	if ok {
		o, ok = l.serve(maxStates)
	}
	c.count(ok)
	return o, ok
}

// StoreExistsOutcome records a search outcome on the key's two-rung ladder:
// among decisive outcomes the lowest budget wins, among inconclusive ones
// the deepest budget wins, and both rungs persist — a decisive outcome no
// longer discards a deeper inconclusive one, so queries below the decisive
// budget keep replaying instead of re-searching.
func (c *Cache) StoreExistsOutcome(set, inst logic.Fingerprint, maxAtoms int, o *ExistsOutcome) {
	l := &existsLadder{}
	l.merge(o)
	existsLadders.store(c, existsOutcomeKey(set, inst, maxAtoms), l)
}

// ActivityTotals aggregates the engine's activity checks across every
// cache-sharing chase run — the process-wide view of the per-run
// Stats.ActivityChecks, exported by the daemon's /v1/stats.
type ActivityTotals struct {
	// Runs counts the chase runs that reported into the totals.
	Runs int64 `json:"runs"`
	// ActivityChecks totals Stats.ActivityChecks (activity checks at pop).
	ActivityChecks int64 `json:"activity-checks"`
	// DeltaRechecks is always 0. It counted pops resolved by a
	// delta-pinned head search, which the engine no longer runs: every pop
	// is one full activity check. The field stays so /v1/stats readers keep
	// their shape.
	DeltaRechecks int64 `json:"delta-rechecks"`
	// SeedIndexHits is always 0. It counted runs whose initial pending
	// queue loaded from a cached root trigger index, a cache kind since
	// deleted; the field stays so /v1/stats readers keep their shape.
	SeedIndexHits int64 `json:"seed-index-hits"`
}

// NoteRunActivity folds one finished chase run's bookkeeping counters into
// the cache's activity totals. The engine calls it for every run that
// shares this cache (Options.Cache).
func (c *Cache) NoteRunActivity(stats Stats) {
	c.actRuns.Add(1)
	c.actChecks.Add(int64(stats.ActivityChecks))
}

// ActivityTotals snapshots the aggregated engine activity counters. Taken
// without locks; fields are individually consistent under concurrency.
func (c *Cache) ActivityTotals() ActivityTotals {
	return ActivityTotals{
		Runs:           c.actRuns.Load(),
		ActivityChecks: c.actChecks.Load(),
	}
}

// forEachEntry visits every entry's key and body, one stripe at a time
// under its lock, in unspecified order — the snapshot writer's iteration.
// Bodies are never written after store, so f may retain them.
func (c *Cache) forEachEntry(f func(k CacheKey, body []byte)) {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for k, e := range s.m {
			f(k, e.body)
		}
		s.mu.Unlock()
	}
}
