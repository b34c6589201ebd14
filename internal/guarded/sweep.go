package guarded

import (
	"context"
	"sync"

	"airct/internal/chase"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// seedSweep is DecideContext's seed scan. It yields the GenerateSeeds pool
// in order: replayed from the cross-run cache when the pool is stored
// there, else enumerated lazily by a seedEnum. A cold sweep that drains its
// enumeration stores the pool, so later sweeps of the set replay it; a
// sweep stopped early generates and stores nothing past its stop. The pool
// holds no two isomorphic seeds, so no seed repeats an earlier one. Seeds
// are duplicate-free fact slices from either source, the stored pool's as
// decoded.
//
// The sweep also owns the scan's battery memory: taken from batteries at
// the first seed the cache does not answer, its arena bound to the set, and
// given back by release when the scan ends.
//
// Not safe for concurrent use.
type seedSweep struct {
	set   *tgds.Set
	cache *chase.Cache
	setFP logic.Fingerprint // the set's fingerprint when cache != nil

	pooled [][]logic.Atom // the cached pool's seeds
	enum   *seedEnum      // the cold enumeration until it drains; nil on a cached pool
	n      int            // seeds yielded so far

	b *battery // nil until battery is first called
}

// battery is the memory a seed battery reuses, across the seeds of a scan
// and, through the pool, across scans: the chase arena every order of
// every seed runs in, and the step log those runs fill.
type battery struct {
	arena chase.Arena
	log   stepLog
}

// batteries pools the battery memory of finished scans. sync.Pool hands
// each battery to one caller at a time, so every arena keeps one writer.
var batteries = sync.Pool{New: func() any { return new(battery) }}

// maxPooledAtoms bounds the instance an arena may have held and still go
// back to the pool. An arena keeps the capacity of its largest run, so
// without the bound a client's large guarded-budget would pin that memory
// in the pool. A single-head guarded TGD adds at most one atom per step,
// so DefaultMaxSteps stays far below the bound.
const maxPooledAtoms = 8192

// releaseBattery returns b to the pool unless its arena outgrew
// maxPooledAtoms, and reports whether it did.
func releaseBattery(b *battery) bool {
	if b.arena.PeakAtoms() > maxPooledAtoms {
		return false
	}
	batteries.Put(b)
	return true
}

// battery returns the scan's battery memory, taking it from the pool and
// binding its arena to the set on first use.
func (sw *seedSweep) battery() *battery {
	if sw.b == nil {
		sw.b = batteries.Get().(*battery)
		sw.b.arena.Bind(sw.set)
	}
	return sw.b
}

// release gives the scan's battery memory back to the pool, if it took
// any.
func (sw *seedSweep) release() {
	if sw.b != nil {
		releaseBattery(sw.b)
		sw.b = nil
	}
}

func newSeedSweep(set *tgds.Set, cache *chase.Cache) *seedSweep {
	sw := &seedSweep{set: set, cache: cache}
	if cache != nil {
		sw.setFP = set.Fingerprint()
		if pool, ok := cache.LookupSeedPool(sw.setFP, MaxSeeds); ok {
			sw.pooled = pool.Seeds
			return sw
		}
	}
	sw.enum = newSeedEnum(set, MaxSeeds)
	return sw
}

// next returns the pool's next seed, or false once the pool is exhausted.
// A drained cold enumeration IS GenerateSeeds' pool: next stores it in the
// cache at that moment.
func (sw *seedSweep) next() ([]logic.Atom, bool) {
	if sw.enum != nil {
		if seed, ok := sw.enum.Next(); ok {
			sw.n++
			return seed, true
		}
		if sw.cache != nil {
			sw.cache.StoreSeedPool(sw.setFP, MaxSeeds, &chase.SeedPool{Seeds: sw.enum.pool})
		}
		sw.enum = nil
		return nil, false
	}
	if sw.n < len(sw.pooled) {
		sw.n++
		return sw.pooled[sw.n-1], true
	}
	return nil, false
}

// scanSeeds chases the sweep's seeds at the budget, in order, and stops at
// the first that does not saturate quietly under every order. It returns
// that seed's verdict (nil when every seed saturated and the sweep is
// exhausted) and the deepest battery among the saturating seeds, maxed with
// the pump depth on a "divergence-witness" verdict: the shortest prefix
// that carries the certificate, not the truncated run's length.
func scanSeeds(ctx context.Context, sw *seedSweep, budget int) (*Verdict, int, error) {
	depth := 0
	for {
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		seed, ok := sw.next()
		if !ok {
			return nil, depth, nil
		}
		var fp logic.Fingerprint
		if sw.cache != nil {
			fp = logic.FingerprintAtoms(seed)
		}
		v, steps := chaseSeed(ctx, sw, seed, budget, fp)
		if v == cancelledVerdict {
			return nil, 0, ctx.Err()
		}
		if v == nil {
			depth = max(depth, steps)
			continue
		}
		if v.Method == "divergence-witness" {
			if v.PumpDepth > 0 {
				steps = v.PumpDepth
			}
			depth = max(depth, steps)
		}
		return v, depth, nil
	}
}
