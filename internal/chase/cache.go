package chase

// The cross-run chase-state cache: verdict-bearing chase work memoised on
// (TGD-set fingerprint, instance fingerprint) keys so that re-chasing the
// same seed database under the same rules — which the guarded ∀∀ decision
// does constantly, both inside one Decide call (each seed runs a battery of
// trigger orders; treeification re-derives seeds) and across Decide calls
// (a served workload repeats programs) — costs one map probe instead of a
// chase. Six entry kinds share the store, among them:
//
//   - seed outcomes (guarded.chaseSeed): the per-seed divergence verdict of
//     the bounded chase battery, keyed additionally by the step budget. A
//     hit skips the whole battery; the witness database is the caller's
//     seed, so nothing interner-bound is stored.
//   - seed indexes (engine.RunChase): the root trigger index of a
//     (set, database) pair — every trigger on the database in canonical
//     enqueue order with its birth-activity flag, stored portably as terms
//     by value. A hit re-interns the terms into the new run's private
//     interner and skips both the per-TGD enumeration that seeds the
//     pending queue and the birth activity checks of the delta-maintained
//     activity machinery (engine.go). This is the "reuse the index instead
//     of re-seeding the queue" half of the ROADMAP follow-up.
//   - seed pools (guarded.Decide): the generated candidate databases of a
//     set, keyed by the pool cap. A hit skips seed generation — including
//     the oblivious-chase treeification expansions, the expensive part —
//     and rebuilds fresh Database values from stored atoms.
//
// Key derivation: the set fingerprint is tgds.Set.Fingerprint (order-
// sensitive over rule labels and atoms — the identity under which runs and
// evidence strings are reproducible); the instance fingerprint is the
// order-independent logic.FingerprintAtoms / Instance.Fingerprint of the
// database. The kind and any scalar parameters (budget, pool cap) are
// folded into a salt so the three kinds never collide. Fingerprint equality
// is trusted as content equality, like every other fingerprint consumer.
//
// Concurrency contract (docs/ARCHITECTURE.md): the cache is shared by the
// guarded decision's bounded worker pool and must not serialise it — the
// store is striped by key hash across cacheStripes mutexes, like the
// parallel search's memo shards. Entries are immutable after Store and
// contain no interner-bound identity (terms and atoms by value only), so a
// hit never touches another run's interner and no interner grows a lock.
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
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"airct/internal/logic"
)

const (
	cacheStripes = 64

	// DefaultCacheBytes bounds the cache's estimated footprint by default.
	DefaultCacheBytes = 64 << 20
)

// entry-kind salts; ORed with per-kind scalar parameters (budgets, caps)
// so distinct kinds and parameters occupy distinct key space. Tag 7 is
// retired: it held the deleted portfolio cost model, and v3 snapshots that
// still carry such frames skip them as unknown kinds. Never reuse it.
const (
	kindSeedOutcome   uint64 = 1 << 56
	kindSeedIndex     uint64 = 2 << 56
	kindSeedPool      uint64 = 3 << 56
	kindStageOutcomes uint64 = 4 << 56
	kindStickyOutcome uint64 = 5 << 56
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
	// Bytes estimates the retained footprint (keys, strings, slices).
	Bytes int64 `json:"bytes"`
	// Evictions counts stripe segment evictions (a store that would
	// overflow its stripe's byte share drops the whole stripe first);
	// EvictedEntries totals the entries those evictions discarded. A warm
	// entry silently lost to eviction is otherwise unobservable, and the
	// planned age/size-aware policy needs this signal.
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

// SeedOutcome is a cached per-seed decision outcome: what the guarded
// procedure's bounded chase battery concluded about one seed database. The
// witness database is not stored — it is the seed the caller already holds.
type SeedOutcome struct {
	// Diverges is false when every order of the battery saturated quietly.
	Diverges bool
	// Method and Evidence mirror guarded.Verdict on diverging seeds.
	Method   string
	Evidence string
	// Steps is the battery's saturation depth: the deepest chase among the
	// trigger orders on a saturating seed, or the diverging run's step
	// count — so a warm hit can still serve probe diagnostics.
	Steps int
	// PumpDepth is, on a diverging outcome with a guard-chain pump, the
	// length of the shortest run prefix that already carries the
	// certificate (guarded.Verdict.PumpDepth). Persisting it keeps a warm
	// replay's `depth=` diagnostics identical to the cold run's — without
	// it a warm Tier 1 reject could only report the truncated run length.
	PumpDepth int
}

// SeedTrigger is one portable trigger of a SeedIndex: the TGD index and the
// body bindings in slot order, as terms by value (interner-free).
type SeedTrigger struct {
	TGD  int32
	Bind []logic.Term
	// Active is the trigger's birth activity on the database (Restricted
	// semantics): false when the head is already satisfied at enqueue time.
	Active bool
}

// SeedIndex is the portable root trigger index of a (set, database) pair:
// every trigger on the database, in the exact canonical order the engine
// enqueues them. Loading it reproduces the engine's initial pending queue
// byte-for-byte without enumerating a single homomorphism.
type SeedIndex struct {
	Triggers []SeedTrigger
}

// SeedPool is a cached candidate-seed pool: each seed database's atoms in
// generation order, by value.
type SeedPool struct {
	Seeds [][]logic.Atom
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
	// probe's confirmed guard-chain pump) so warm replays serve the
	// certificate string, not just the verdict.
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
// fingerprint, the instance fingerprint of the request's database (zero
// for pure rule sets — keeping the ledger's diagnostics honest about which
// database they describe) and an options salt (the caller folds its
// budgets into it), never by worker counts — verdicts are worker-invariant
// by construction.
type StageOutcomes struct {
	Records   []StageRecord
	Verdict   string
	DecidedBy string
}

// StickyOutcome is a cached sticky Büchi decision, keyed by (set
// fingerprint, per-component state bound): the whole Verdict of
// sticky.DecideContext in portable form. The witness component is stored as
// an index into the deterministic sticky.Seeds enumeration and the lasso as
// its symbol keys by value, so the entry is interner-free and a warm hit
// replays the identical Verdict — including witness material — without
// building or exploring a single automaton.
type StickyOutcome struct {
	Terminates bool
	Method     string
	Complete   bool
	// StatesExplored totals explored product states across components when
	// the decision ran live; replays report the recorded number.
	StatesExplored int
	// SeedIndex is the witnessing component's index into sticky.Seeds(set)
	// (a deterministic enumeration); -1 when there is no witness.
	SeedIndex int32
	// LassoPrefix/LassoCycle/LassoGap mirror buchi.Lasso by value.
	LassoPrefix []string
	LassoCycle  []string
	LassoGap    int
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
// instance fingerprint, strategy, atom bound) with the state budget stored
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
// Ladders are immutable; a rung update swaps in a fresh ladder value.
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

// merged returns the ladder with o folded into its rung, or nil when o is
// no improvement (rung already present at a better budget).
func (l *existsLadder) merged(o *ExistsOutcome) *existsLadder {
	if o.decisive() {
		if l.decisive != nil && l.decisive.Budget <= o.Budget {
			return nil
		}
		return &existsLadder{decisive: o, inconclusive: l.inconclusive}
	}
	if l.inconclusive != nil && l.inconclusive.Budget >= o.Budget {
		return nil
	}
	return &existsLadder{decisive: l.decisive, inconclusive: o}
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

func existsLadderSize(l *existsLadder) int64 {
	size := int64(16)
	for _, o := range l.rungs() {
		size += existsOutcomeSize(o)
	}
	return size
}

// cacheEntry wraps a stored value with its byte estimate and the stripe's
// insertion sequence number — the age signal the evictor sorts by. The
// wrapped value stays immutable; replacement swaps the whole entry.
type cacheEntry struct {
	v    any
	size int64
	seq  uint64
}

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
	actRuns      atomic.Int64
	actChecks    atomic.Int64
	actBirth     atomic.Int64
	actWatermark atomic.Int64
	actDelta     atomic.Int64
	actSeedHits  atomic.Int64
}

// NewCache returns an empty cache bounded by DefaultCacheBytes.
func NewCache() *Cache { return NewCacheWithLimit(DefaultCacheBytes) }

// NewCacheWithLimit returns an empty cache that segment-evicts once its
// byte estimate passes maxBytes (0 or negative: DefaultCacheBytes).
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

// lookup returns the immutable entry for the key, counting the hit or miss.
func (c *Cache) lookup(k CacheKey) (any, bool) {
	s := c.stripe(k)
	s.mu.Lock()
	e, ok := s.m[k]
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return e.v, true
	}
	c.misses.Add(1)
	return nil, false
}

// store inserts the entry (first writer wins; entries are deterministic, so
// racing writers store equal values), evicting the stripe's oldest half
// BEFORE the insert when it would overflow its 1/cacheStripes share of the
// byte limit — so the newest (hottest) entry always survives its own
// eviction and a saturated cache sheds its cold tail, never fresh work. An
// entry larger than a whole share still gets stored (alone in its stripe).
func (c *Cache) store(k CacheKey, v any, size int64) {
	size += entryOverhead
	s := c.stripe(k)
	s.mu.Lock()
	if _, dup := s.m[k]; !dup {
		c.insertLocked(s, k, v, size)
	}
	s.mu.Unlock()
}

// entryOverhead approximates the key + map bookkeeping cost per entry.
const entryOverhead = 48

// insertLocked performs the evict-then-insert step of store under the
// stripe's lock.
func (c *Cache) insertLocked(s *cacheStripe, k CacheKey, v any, size int64) {
	for s.bytes+size > c.maxBytes/cacheStripes && len(s.m) > 0 {
		c.evictOldestHalfLocked(s)
	}
	s.seq++
	s.m[k] = &cacheEntry{v: v, size: size, seq: s.seq}
	s.bytes += size
	c.entries.Add(1)
	c.bytes.Add(size)
}

// evictOldestHalfLocked drops the stripe's oldest ⌈n/2⌉ entries by
// insertion sequence — one eviction event. insertLocked loops it for the
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
		freed += s.m[a.k].size
		delete(s.m, a.k)
	}
	s.bytes -= freed
	c.entries.Add(-int64(drop))
	c.bytes.Add(-freed)
	c.evictions.Add(1)
	c.evictedEntries.Add(int64(drop))
}

// replaceLocked swaps the value under an existing key, re-stamping its age
// and adjusting the byte accounting by the size delta.
func (c *Cache) replaceLocked(s *cacheStripe, k CacheKey, old *cacheEntry, v any, size int64) {
	s.seq++
	s.m[k] = &cacheEntry{v: v, size: size, seq: s.seq}
	s.bytes += size - old.size
	c.bytes.Add(size - old.size)
}

func outcomeKey(set, inst logic.Fingerprint, budget int) CacheKey {
	return CacheKey{Set: set, Inst: inst, Salt: kindSeedOutcome | uint64(uint32(budget))}
}

// LookupSeedOutcome returns the cached battery outcome of the seed under
// the step budget.
func (c *Cache) LookupSeedOutcome(set, inst logic.Fingerprint, budget int) (SeedOutcome, bool) {
	v, ok := c.lookup(outcomeKey(set, inst, budget))
	if !ok {
		return SeedOutcome{}, false
	}
	return v.(SeedOutcome), true
}

// StoreSeedOutcome records the battery outcome of the seed.
func (c *Cache) StoreSeedOutcome(set, inst logic.Fingerprint, budget int, o SeedOutcome) {
	c.store(outcomeKey(set, inst, budget), o, seedOutcomeSize(o))
}

func seedIndexKey(set, inst logic.Fingerprint) CacheKey {
	return CacheKey{Set: set, Inst: inst, Salt: kindSeedIndex}
}

// LookupSeedIndex returns the cached root trigger index of the
// (set, database) pair. The caller must not mutate the result.
func (c *Cache) LookupSeedIndex(set, inst logic.Fingerprint) (*SeedIndex, bool) {
	v, ok := c.lookup(seedIndexKey(set, inst))
	if !ok {
		return nil, false
	}
	return v.(*SeedIndex), true
}

// StoreSeedIndex records the root trigger index. The index must not be
// mutated afterwards.
func (c *Cache) StoreSeedIndex(set, inst logic.Fingerprint, si *SeedIndex) {
	c.store(seedIndexKey(set, inst), si, seedIndexSize(si))
}

func seedPoolKey(set logic.Fingerprint, maxSeeds int) CacheKey {
	return CacheKey{Set: set, Salt: kindSeedPool | uint64(uint32(maxSeeds))}
}

// LookupSeedPool returns the cached candidate-seed pool of the set under
// the pool cap. The caller must not mutate the result.
func (c *Cache) LookupSeedPool(set logic.Fingerprint, maxSeeds int) (*SeedPool, bool) {
	v, ok := c.lookup(seedPoolKey(set, maxSeeds))
	if !ok {
		return nil, false
	}
	return v.(*SeedPool), true
}

func stageOutcomesKey(set, inst logic.Fingerprint, salt uint64) CacheKey {
	// Mask the caller's salt into the low 56 bits so the kind tag stays
	// collision-free against the other entry kinds.
	return CacheKey{Set: set, Inst: inst, Salt: kindStageOutcomes | (salt &^ (uint64(0xFF) << 56))}
}

// LookupStageOutcomes returns the cached portfolio stage outcomes of the
// (set, database) pair under the options salt (inst is the zero
// fingerprint for pure rule sets). The caller must not mutate the result.
func (c *Cache) LookupStageOutcomes(set, inst logic.Fingerprint, salt uint64) (*StageOutcomes, bool) {
	v, ok := c.lookup(stageOutcomesKey(set, inst, salt))
	if !ok {
		return nil, false
	}
	return v.(*StageOutcomes), true
}

// StoreStageOutcomes records a portfolio run's stage outcomes. The entry
// must not be mutated afterwards.
func (c *Cache) StoreStageOutcomes(set, inst logic.Fingerprint, salt uint64, o *StageOutcomes) {
	c.store(stageOutcomesKey(set, inst, salt), o, stageOutcomesSize(o))
}

// StoreSeedPool records the candidate-seed pool. The pool must not be
// mutated afterwards.
func (c *Cache) StoreSeedPool(set logic.Fingerprint, maxSeeds int, p *SeedPool) {
	c.store(seedPoolKey(set, maxSeeds), p, seedPoolSize(p))
}

func stickyOutcomeKey(set logic.Fingerprint, maxStates int) CacheKey {
	return CacheKey{Set: set, Salt: kindStickyOutcome | uint64(uint32(maxStates))}
}

// LookupStickyOutcome returns the cached sticky Büchi decision of the set
// under the per-component state bound. The caller must not mutate the
// result.
func (c *Cache) LookupStickyOutcome(set logic.Fingerprint, maxStates int) (*StickyOutcome, bool) {
	v, ok := c.lookup(stickyOutcomeKey(set, maxStates))
	if !ok {
		return nil, false
	}
	return v.(*StickyOutcome), true
}

// StoreStickyOutcome records a sticky Büchi decision. The entry must not be
// mutated afterwards.
func (c *Cache) StoreStickyOutcome(set logic.Fingerprint, maxStates int, o *StickyOutcome) {
	c.store(stickyOutcomeKey(set, maxStates), o, stickyOutcomeSize(o))
}

func existsOutcomeKey(set, inst logic.Fingerprint, strat SearchStrategy, maxAtoms int) CacheKey {
	return CacheKey{
		Set:  set,
		Inst: inst,
		Salt: kindExistsOutcome | uint64(strat)<<48 | uint64(uint32(maxAtoms)),
	}
}

// LookupExistsOutcome returns a cached ∀∃ search outcome able to serve a
// query at the given state budget under the budget-monotonicity rule (see
// ExistsOutcome and existsLadder). A ladder present but with no serving
// rung counts as a miss. The caller must not mutate the result.
func (c *Cache) LookupExistsOutcome(set, inst logic.Fingerprint, strat SearchStrategy, maxAtoms, maxStates int) (*ExistsOutcome, bool) {
	k := existsOutcomeKey(set, inst, strat, maxAtoms)
	s := c.stripe(k)
	s.mu.Lock()
	e, ok := s.m[k]
	s.mu.Unlock()
	if ok {
		if o, served := e.v.(*existsLadder).serve(maxStates); served {
			c.hits.Add(1)
			return o, true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// StoreExistsOutcome records a search outcome on the key's two-rung ladder:
// among decisive outcomes the lowest budget wins, among inconclusive ones
// the deepest budget wins, and both rungs persist — a decisive outcome no
// longer discards a deeper inconclusive one, so queries below the decisive
// budget keep replaying instead of re-searching. The entry must not be
// mutated afterwards.
func (c *Cache) StoreExistsOutcome(set, inst logic.Fingerprint, strat SearchStrategy, maxAtoms int, o *ExistsOutcome) {
	c.mergeExistsOutcome(existsOutcomeKey(set, inst, strat, maxAtoms), o)
}

// mergeExistsOutcome folds one outcome into the key's ladder under the
// stripe lock — shared by StoreExistsOutcome and the snapshot loader.
func (c *Cache) mergeExistsOutcome(k CacheKey, o *ExistsOutcome) {
	s := c.stripe(k)
	s.mu.Lock()
	old, dup := s.m[k]
	if !dup {
		l := (&existsLadder{}).merged(o)
		c.insertLocked(s, k, l, existsLadderSize(l)+entryOverhead)
	} else if l := old.v.(*existsLadder).merged(o); l != nil {
		c.replaceLocked(s, k, old, l, existsLadderSize(l)+entryOverhead)
	}
	s.mu.Unlock()
}

// ActivityTotals aggregates the engine's delta-activity diagnostics across
// every cache-sharing chase run — the process-wide view of the per-run
// `trigger-index:`/Activity numbers, exported by the daemon's /v1/stats.
type ActivityTotals struct {
	// Runs counts the chase runs that reported into the totals.
	Runs int64 `json:"runs"`
	// ActivityChecks totals Stats.ActivityChecks (IsActive evaluations).
	ActivityChecks int64 `json:"activity-checks"`
	// BirthChecks/WatermarkSkips/DeltaRechecks total the delta-maintained
	// activity machinery's work (DeltaActivityStats).
	BirthChecks    int64 `json:"birth-checks"`
	WatermarkSkips int64 `json:"watermark-skips"`
	DeltaRechecks  int64 `json:"delta-rechecks"`
	// SeedIndexHits counts runs whose initial pending queue loaded from
	// the cached root trigger index instead of being enumerated.
	SeedIndexHits int64 `json:"seed-index-hits"`
}

// NoteRunActivity folds one finished chase run's bookkeeping counters into
// the cache's activity totals. The engine calls it for every run that
// shares this cache (Options.Cache).
func (c *Cache) NoteRunActivity(stats Stats, act DeltaActivityStats) {
	c.actRuns.Add(1)
	c.actChecks.Add(int64(stats.ActivityChecks))
	c.actBirth.Add(int64(act.BirthChecks))
	c.actWatermark.Add(int64(act.WatermarkSkips))
	c.actDelta.Add(int64(act.DeltaRechecks))
	if act.SeedIndexHit {
		c.actSeedHits.Add(1)
	}
}

// ActivityTotals snapshots the aggregated engine activity counters. Taken
// without locks; fields are individually consistent under concurrency.
func (c *Cache) ActivityTotals() ActivityTotals {
	return ActivityTotals{
		Runs:           c.actRuns.Load(),
		ActivityChecks: c.actChecks.Load(),
		BirthChecks:    c.actBirth.Load(),
		WatermarkSkips: c.actWatermark.Load(),
		DeltaRechecks:  c.actDelta.Load(),
		SeedIndexHits:  c.actSeedHits.Load(),
	}
}

// forEachEntry visits every entry, one stripe at a time under its lock, in
// unspecified order — the snapshot writer's iteration. Entries are
// immutable, so f may retain them.
func (c *Cache) forEachEntry(f func(k CacheKey, v any)) {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for k, e := range s.m {
			f(k, e.v)
		}
		s.mu.Unlock()
	}
}

// The per-kind size estimators, shared by the Store methods and the
// snapshot loader so a restored cache accounts bytes like the cache that
// wrote it.

func termsSize(ts []logic.Term) int64 {
	size := int64(0)
	for _, t := range ts {
		size += int64(len(t.Name)) + 24
	}
	return size
}

func stringsSize(ss []string) int64 {
	size := int64(0)
	for _, s := range ss {
		size += int64(len(s)) + 16
	}
	return size
}

func seedOutcomeSize(o SeedOutcome) int64 {
	return int64(len(o.Method)+len(o.Evidence)) + 24
}

func seedIndexSize(si *SeedIndex) int64 {
	size := int64(24)
	for _, tr := range si.Triggers {
		size += 32 + termsSize(tr.Bind)
	}
	return size
}

func seedPoolSize(p *SeedPool) int64 {
	size := int64(24)
	for _, atoms := range p.Seeds {
		size += 24
		for _, a := range atoms {
			size += int64(len(a.Pred.Name)) + 32 + termsSize(a.Args)
		}
	}
	return size
}

func stageOutcomesSize(o *StageOutcomes) int64 {
	size := int64(48 + len(o.Verdict) + len(o.DecidedBy))
	for _, r := range o.Records {
		size += int64(len(r.Stage)+len(r.Verdict)+len(r.Detail)+len(r.Evidence)) + 88
	}
	return size
}

func stickyOutcomeSize(o *StickyOutcome) int64 {
	return int64(len(o.Method)) + 64 + stringsSize(o.LassoPrefix) + stringsSize(o.LassoCycle)
}

func existsOutcomeSize(o *ExistsOutcome) int64 {
	size := int64(96)
	for _, st := range o.Derivation {
		size += 56 + termsSize(st.Vars) + termsSize(st.Vals)
	}
	return size
}
