package guarded

import (
	"context"

	"airct/internal/chase"
	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// seedSweep is the one seed scan Decide and the probe share. It yields the
// GenerateSeeds pool in order — replayed from the cross-run cache when the
// pool is stored there, else enumerated lazily by a seedEnum — and then
// DecideOptions.ExtraSeeds, skipping seeds whose exact content repeats an
// earlier one. A cold sweep that drains its enumeration stores the pool,
// so later sweeps of the set replay it; a sweep stopped early generates
// and stores nothing past its stop.
//
// Exact-content dedup: GenerateSeeds dedups isomorphism-insensitively
// within its own pool, but ExtraSeeds and treeification can repeat exact
// databases, and within one pool the cross-run cache cannot hit (every
// fingerprint is new there). A skipped duplicate cannot change a verdict:
// its representative sits at an earlier position with the identical
// outcome (the engine's trigger order is canonical in term content), so a
// first-diverging-seed scan never reaches it.
//
// Not safe for concurrent use.
type seedSweep struct {
	maxSeeds int
	cache    *chase.Cache
	setFP    logic.Fingerprint // the set's fingerprint when cache != nil

	pooled []*instance.Database // the cached pool; nil on a cold sweep
	enum   *seedEnum            // the cold enumeration until it drains
	extra  []*instance.Database
	pi, xi int

	// pos counts the seeds yielded or skipped so far: the 0-based position
	// of the next one in the pool Decide scans, duplicates included.
	pos  int
	seen map[logic.Fingerprint]struct{}
}

// sweptSeed is one distinct seed with its content fingerprint and its
// 0-based position in the scanned pool.
type sweptSeed struct {
	db  *instance.Database
	fp  logic.Fingerprint
	pos int
}

func newSeedSweep(set *tgds.Set, opts DecideOptions) *seedSweep {
	sw := &seedSweep{
		maxSeeds: opts.maxSeeds(),
		cache:    opts.Cache,
		extra:    opts.ExtraSeeds,
		seen:     make(map[logic.Fingerprint]struct{}),
	}
	if sw.cache != nil {
		sw.setFP = set.Fingerprint()
		sw.pooled, _ = cachedSeedPool(sw.setFP, sw.maxSeeds, sw.cache)
	}
	if sw.pooled == nil {
		sw.enum = newSeedEnum(set, sw.maxSeeds)
	}
	return sw
}

// next returns the next distinct seed, or false once the pool and the
// extra seeds are exhausted.
func (sw *seedSweep) next() (sweptSeed, bool) {
	for {
		db, ok := sw.raw()
		if !ok {
			return sweptSeed{}, false
		}
		pos := sw.pos
		sw.pos++
		fp := logic.FingerprintAtoms(db.Atoms())
		if _, dup := sw.seen[fp]; dup {
			continue
		}
		sw.seen[fp] = struct{}{}
		return sweptSeed{db: db, fp: fp, pos: pos}, true
	}
}

// raw yields the pool's next seed, then the extra seeds, duplicates
// included. A drained cold enumeration IS GenerateSeeds' pool: raw stores
// it in the cache at that moment.
func (sw *seedSweep) raw() (*instance.Database, bool) {
	if sw.enum != nil {
		if db, ok := sw.enum.Next(); ok {
			return db, true
		}
		if sw.cache != nil {
			storeSeedPool(sw.setFP, sw.maxSeeds, sw.cache, sw.enum.pool)
		}
		sw.enum = nil
	} else if sw.pi < len(sw.pooled) {
		db := sw.pooled[sw.pi]
		sw.pi++
		return db, true
	}
	if sw.xi < len(sw.extra) {
		db := sw.extra[sw.xi]
		sw.xi++
		return db, true
	}
	return nil, false
}

// scanSeeds chases the sweep's seeds at the budget and returns the position
// and verdict of the first that does not saturate quietly under every
// order, scanning in order and stopping at that seed. A nil verdict means
// every seed saturated; the sweep is then exhausted.
func scanSeeds(ctx context.Context, set *tgds.Set, sw *seedSweep, budget int) (int, *Verdict, error) {
	for {
		if ctx.Err() != nil {
			return 0, nil, ctx.Err()
		}
		s, ok := sw.next()
		if !ok {
			return 0, nil, nil
		}
		v, _ := chaseSeed(ctx, set, s.db, budget, sw.cache, sw.setFP, s.fp)
		if v == cancelledVerdict {
			return 0, nil, ctx.Err()
		}
		if v != nil {
			return s.pos, v, nil
		}
	}
}

// cachedSeedPool rebuilds the cross-run cached seed pool for (set
// fingerprint, pool cap): fresh Database values from the stored atoms in
// the stored order, reproducing the generated pool exactly.
func cachedSeedPool(setFP logic.Fingerprint, maxSeeds int, cache *chase.Cache) ([]*instance.Database, bool) {
	pool, ok := cache.LookupSeedPool(setFP, maxSeeds)
	if !ok {
		return nil, false
	}
	out := make([]*instance.Database, len(pool.Seeds))
	for i, atoms := range pool.Seeds {
		db := instance.NewDatabase()
		for _, a := range atoms {
			if err := db.Add(a); err != nil {
				// The pool codec refuses any atom that is not a fact.
				panic(err)
			}
		}
		out[i] = db
	}
	return out, true
}

// storeSeedPool records a fully generated pool in the cross-run cache.
func storeSeedPool(setFP logic.Fingerprint, maxSeeds int, cache *chase.Cache, seeds []*instance.Database) {
	pool := &chase.SeedPool{Seeds: make([][]logic.Atom, len(seeds))}
	for i, db := range seeds {
		pool.Seeds[i] = db.Atoms()
	}
	cache.StoreSeedPool(setFP, maxSeeds, pool)
}
