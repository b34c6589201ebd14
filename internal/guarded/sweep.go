package guarded

import (
	"context"
	"sync"

	"airct/internal/chase"
)

// seedSweep is DecideContext's seed scan: the GenerateSeeds pool,
// enumerated lazily by a seedEnum, so a sweep stopped early generates
// nothing past its stop, and the battery memory its seeds are chased in.
// The pool holds no two isomorphic seeds, so no seed repeats an earlier
// one, and each seed is a duplicate-free fact slice.
//
// The battery memory is taken from batteries at the first seed, its arena
// bound to the set, and given back by release when the scan ends.
//
// Not safe for concurrent use.
type seedSweep struct {
	enum  *seedEnum
	cache *chase.Cache // receives the battery runs' engine activity; may be nil
	b     *battery     // nil until battery is first called
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
		sw.b.arena.Bind(sw.enum.set)
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
		seed, ok := sw.enum.Next()
		if !ok {
			return nil, depth, nil
		}
		v, steps := chaseSeedBattery(ctx, sw.battery(), sw.enum.set, seedDatabase(seed), budget, sw.cache)
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
