package guarded

// The k-round probe behind the portfolio's Tier 1 (in the style of PDQ's
// KTerminationChaser): run the Decide seed battery at a small step budget k
// and report whether EVERY seed already saturates there. Because each chase
// order is deterministic and a fixpoint reached within k steps is the same
// fixpoint any larger budget reaches, "all seeds saturate at k" implies
// Decide at any budget ≥ k returns the identical seed-exhaustion verdict —
// so an accepting probe is sound and bit-compatible with the full
// procedure, at a fraction of its cost.
//
// The probe can also REJECT. A guard-chain pump surfaced on a seed's
// k-step prefix is the SAME certificate the full procedure trusts: Decide
// at budget B mines its budget-exhausted runs — themselves just truncated
// prefixes — with the identical DivergencePump lemma, and the repetition's
// soundness (an infinite regular chaseable abstract join tree over Λ_T)
// does not depend on how far past the repetition the run was chased. So a
// pump at k decides Diverges outright, at probe cost: no full-budget
// battery, no Tier 2. Because every earlier distinct seed saturated within
// k — and a saturated fixpoint is the same fixpoint at any larger budget —
// DecideContext's first-non-nil scan lands on the same seed and, when its
// full-budget run exhausts the budget, mines a pump from the same chain
// (the k-prefix is a prefix of that run), so the conclusion and method
// agree; only the pump pair quoted in the evidence string may differ with
// the prefix length. A probe whose first non-saturating seed carries no
// pump claims nothing and routes the input onward to Tier 2.

import (
	"context"
	"fmt"

	"airct/internal/acyclicity"
	"airct/internal/chase"
	"airct/internal/tgds"
)

// DefaultProbeSteps is the probe's step budget when the caller passes 0.
const DefaultProbeSteps = 64

// ProbeOutcome summarises a k-round probe sweep over the seed pool.
type ProbeOutcome struct {
	// Seeds counts the distinct seed databases swept (after exact
	// fingerprint dedup, as Decide chases them), up to and including the
	// seed that decided or stopped the probe. On a full sweep it is the
	// whole pool's distinct count; an early stop leaves the rest of the
	// pool not only unswept but — on a cold cache — ungenerated.
	Seeds int
	// Saturated counts the seeds whose whole battery (FIFO, Random, LIFO)
	// reached a fixpoint within ProbeSteps, up to the first one that did
	// not (the sweep stops early once Decided can no longer be true).
	Saturated int
	// ProbeSteps is the k actually used: the requested value clamped to
	// the full Decide budget.
	ProbeSteps int
	// Decided is true when the probe settled the question either way:
	// every seed saturated within k (or weak acyclicity short-circuited
	// the pool — acceptance), or a seed's k-prefix carried a guard-chain
	// pump (rejection). An acceptance is bit-compatible with
	// DecideContext; a rejection reaches DecideContext's conclusion and
	// method through the same certificate lemma (see the package comment).
	Decided bool
	// Rejected is true when the probe decided by divergence: a guard-chain
	// pump surfaced on a seed's k-prefix. Method/Evidence/SeedsTried carry
	// the certificate.
	Rejected bool
	// Method is "divergence-witness" on a rejected probe — the pump is a
	// certificate, never a bounded budget-exhaustion claim. Empty
	// otherwise.
	Method string
	// Evidence is the divergence certificate on a rejected probe. Empty
	// otherwise.
	Evidence string
	// SeedsTried is, on a rejected probe, the 1-based position of the
	// rejecting seed in the pool — the same SeedsTried DecideContext
	// reports. 0 otherwise.
	SeedsTried int
	// WeaklyAcyclic is true when the pool was never probed because the
	// weak-acyclicity shortcut already decides the set.
	WeaklyAcyclic bool
	// Depth is the probe's saturation depth: the deepest chase among the
	// saturating batteries swept (0 when nothing was probed). On an
	// accepting probe it is the exact fixpoint depth of the hardest seed —
	// the budget-k runs are prefixes of any larger-budget run. On a
	// rejecting probe it is the pump depth — the shortest prefix length
	// that still carries the certificate — maxed with the saturation
	// depths swept before it: the k a later probe of the class can shrink
	// towards without losing either the certificate or the saturations.
	Depth int
}

// ProbeSeeds runs the bounded k-round probe over the set's seed pool. When
// the outcome is an acceptance, a saturated seed's (empty) battery outcome
// is also stored in opts.Cache under the FULL Decide budget — sound,
// because the budget-k runs are prefixes of the budget-B runs and all
// reached their fixpoints — so a follow-up DecideContext skips those seeds
// entirely. A rejection's diverging battery lands in the cache keyed at
// the probe budget through chaseSeed's own store. A cancelled probe
// returns ctx's error.
func ProbeSeeds(ctx context.Context, set *tgds.Set, opts DecideOptions, probeSteps int) (ProbeOutcome, error) {
	out := ProbeOutcome{}
	if !set.IsGuarded() {
		return out, fmt.Errorf("guarded: ProbeSeeds requires a single-head guarded set")
	}
	if acyclicity.IsWeaklyAcyclic(set) {
		out.Decided = true
		out.WeaklyAcyclic = true
		return out, nil
	}
	budget := opts.maxSteps()
	k := probeSteps
	if k <= 0 {
		k = DefaultProbeSteps
	}
	if k > budget {
		k = budget
	}
	out.ProbeSteps = k
	// The shared sweep: a cached pool is replayed; a cold pool is
	// enumerated lazily, so a probe that decides on (or is stopped by) an
	// early seed never pays to generate the rest of the pool — in
	// particular its treeification expansions, the dominant generation
	// cost. A full sweep drains the enumeration and stores the pool, so the
	// follow-up Decide — and future probes — skip generation.
	sw := newSeedSweep(set, opts)
	for {
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		s, ok := sw.next()
		if !ok {
			break
		}
		out.Seeds++
		v, steps := chaseSeed(ctx, set, s.db, k, sw.cache, sw.setFP, s.fp)
		if v == cancelledVerdict {
			return out, ctx.Err()
		}
		if v != nil {
			// Not saturated at k. A pump on the k-prefix is a
			// budget-independent divergence certificate — the same lemma
			// Decide applies to its own budget-truncated runs — so it
			// decides outright, at probe cost (see the package comment).
			// "budget-exhausted" at k carries no certificate and claims
			// nothing.
			if v.Method == "divergence-witness" {
				out.Decided = true
				out.Rejected = true
				out.Method = v.Method
				out.Evidence = v.Evidence
				out.SeedsTried = s.pos + 1
				// The shortest certifying prefix, not the truncated run's
				// length, still covering the saturating seeds swept before
				// it (hence the max).
				d := steps
				if v.PumpDepth > 0 {
					d = v.PumpDepth
				}
				if d > out.Depth {
					out.Depth = d
				}
				return out, nil
			}
			// No certificate: the probe cannot decide; stop sweeping.
			return out, nil
		}
		out.Saturated++
		if steps > out.Depth {
			out.Depth = steps
		}
		if sw.cache != nil && k < budget {
			// Sound at the full budget: the budget-k runs reached their
			// fixpoints, so the budget-B runs are the same runs — including
			// their depth.
			sw.cache.StoreSeedOutcome(sw.setFP, s.fp, budget, chase.SeedOutcome{Steps: steps})
		}
	}
	out.Decided = true
	return out, nil
}
