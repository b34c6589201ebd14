package guarded

import (
	"context"
	"fmt"

	"airct/internal/acyclicity"
	"airct/internal/chase"
	"airct/internal/etypes"
	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/ochase"
	"airct/internal/tgds"
)

// Verdict is the outcome of the CT^res_∀∀(G) decision.
type Verdict struct {
	// Terminates is true when every restricted chase derivation of every
	// database terminates (w.r.t. the procedure's bound; see Method).
	Terminates bool
	// Method names the deciding argument: "weak-acyclicity" (sound proof),
	// "divergence-witness" (sound refutation: a concrete database and a
	// pumpable derivation), or "seed-exhaustion" (bounded claim: every
	// seed database chased quietly to fixpoint).
	Method string
	// Witness is the diverging seed database when Terminates is false.
	Witness *instance.Database
	// Evidence describes the divergence certificate (guard-chain pump).
	Evidence string
	// PumpDepth is, on a "divergence-witness" verdict, the length of the
	// shortest run prefix that already carries the certificate — the later
	// step of the repeated signature pair, 1-based. The certificate is
	// budget-independent: any chase of this seed under the same order that
	// runs at least PumpDepth steps surfaces it. Persisted through the
	// seed-outcome ledger, so a cache replay reports the cold run's depth;
	// zero only when the verdict carries no pump ("budget-exhausted").
	PumpDepth int
	// SeedsTried counts candidate databases examined, up to and including
	// the one that decided or stopped the scan.
	SeedsTried int
	// Budget is the per-seed step budget used.
	Budget int
	// Depth is the deepest battery the scan ran among the seeds that
	// saturated, maxed with the pump depth on a "divergence-witness"
	// verdict. A saturating run takes the same steps at every budget that
	// lets it saturate, so Depth does not grow with the budget.
	Depth int
}

// maxSeeds caps the candidate databases of one seed pool.
const maxSeeds = 256

// DecideOptions configures the decision procedure.
type DecideOptions struct {
	// MaxSteps is the per-seed restricted-chase budget (0: 2000).
	MaxSteps int
	// Cache, when set, memoises the per-seed chase batteries (and the
	// generated seed pools) across Decide calls on (TGD-set fingerprint,
	// seed fingerprint) keys — see internal/chase/cache.go. Verdicts are
	// bit-identical with and without a cache, and across cold and warm
	// caches. Safe to share one cache across concurrent Decide calls.
	Cache *chase.Cache
}

func (o DecideOptions) maxSteps() int {
	if o.MaxSteps <= 0 {
		return 2000
	}
	return o.MaxSteps
}

// Decide decides CT^res_∀∀(G) for a single-head guarded set.
//
// The paper reduces the complement to MSOL satisfiability over infinite
// trees (Theorem 5.1). This implementation replaces the MSOL step with a
// bounded certificate search over the same objects (docs/ARCHITECTURE.md,
// "The guarded decider: a bounded search"):
//
//  1. weak acyclicity proves termination outright;
//  2. otherwise, seed databases are generated from the TGD bodies —
//     canonical (frozen) bodies under every variable unification, plus the
//     Treeification expansions of Appendix C.2, which supply the remote
//     side atoms that Example 5.6 shows are necessary;
//  3. each seed is chased (restricted, fair FIFO order plus perturbed
//     orders); a budget-exhausted run is mined for a guard-chain pump — a
//     repeated (TGD, equality-type, guard-sharing) signature along a
//     guard-ancestor chain — which certifies divergence by the
//     finite-alphabet regularity of Λ_T;
//  4. if every seed saturates, the set is declared terminating.
//
// Neither step 3 nor step 4 is a decision procedure: ROADMAP item 1 gives a
// terminating set with a pump and a diverging set all three orders miss.
func Decide(set *tgds.Set, opts DecideOptions) (*Verdict, error) {
	return DecideContext(context.Background(), set, opts)
}

// DecideContext is Decide under a context: the per-seed chase batteries run
// on chase.RunChaseContext (cancellation observed every few dozen trigger
// pops) and the seed scan stops before its next seed once the context
// fires. A cancelled call returns ctx's error; no partial battery outcome
// is interpreted or cached. Uncancelled calls behave identically to Decide.
//
// The portfolio's Tier 1 probe is this call at a small budget k: every
// order of a battery is deterministic, and a fixpoint reached within k
// steps is the fixpoint any larger budget reaches, so a seed-exhaustion
// verdict at k is the verdict at every budget ≥ k.
func DecideContext(ctx context.Context, set *tgds.Set, opts DecideOptions) (*Verdict, error) {
	if !set.IsGuarded() {
		return nil, fmt.Errorf("guarded: Decide requires a single-head guarded set")
	}
	if acyclicity.IsWeaklyAcyclic(set) {
		return &Verdict{Terminates: true, Method: "weak-acyclicity"}, nil
	}
	budget := opts.maxSteps()
	sw := newSeedSweep(set, opts.Cache)
	v, depth, err := scanSeeds(ctx, set, sw, budget)
	if err != nil {
		return nil, err
	}
	if v == nil {
		v = &Verdict{Terminates: true, Method: "seed-exhaustion"}
	}
	v.SeedsTried, v.Budget, v.Depth = sw.n, budget, depth
	return v, nil
}

// chaseSeed runs one seed's bounded restricted chases (fair FIFO plus
// perturbed orders) and returns a divergence verdict, or nil when every
// order saturated quietly, plus the battery's saturation depth — the
// deepest chase among the orders on a saturating seed, or the diverging
// run's step count. SeedsTried and Budget are filled by the caller. With a
// cache, the battery outcome is keyed by (set fingerprint, seed
// fingerprint, budget): a hit rebuilds the verdict around the caller's own
// seed database without chasing and replays the recorded depth.
func chaseSeed(ctx context.Context, set *tgds.Set, seed *instance.Database, budget int, cache *chase.Cache, setFP, seedFP logic.Fingerprint) (*Verdict, int) {
	if cache != nil {
		if o, ok := cache.LookupSeedOutcome(setFP, seedFP, budget); ok {
			if !o.Diverges {
				return nil, o.Steps
			}
			return &Verdict{Terminates: false, Method: o.Method, Witness: seed, Evidence: o.Evidence, PumpDepth: o.PumpDepth}, o.Steps
		}
	}
	v, steps := chaseSeedBattery(ctx, set, seed, budget, cache)
	if v == cancelledVerdict {
		// A cancelled battery proves nothing; never cache it.
		return v, steps
	}
	if cache != nil {
		o := chase.SeedOutcome{Steps: steps}
		if v != nil {
			o = chase.SeedOutcome{Diverges: true, Method: v.Method, Evidence: v.Evidence, Steps: steps, PumpDepth: v.PumpDepth}
		}
		cache.StoreSeedOutcome(setFP, seedFP, budget, o)
	}
	return v, steps
}

// cancelledVerdict is the in-package sentinel a battery returns when its
// context fired mid-chase: callers translate it to ctx.Err() and must never
// cache or interpret it.
var cancelledVerdict = &Verdict{Method: "cancelled"}

// chaseSeedBattery is the uncached battery: fair FIFO, then a perturbed
// Random order, then LIFO. The returned depth is the deepest chase among
// the orders (the diverging run's step count when an order diverged).
func chaseSeedBattery(ctx context.Context, set *tgds.Set, seed *instance.Database, budget int, cache *chase.Cache) (*Verdict, int) {
	depth := 0
	for _, o := range []chase.Options{
		{Variant: chase.Restricted, Strategy: chase.FIFO, MaxSteps: budget, Cache: cache},
		{Variant: chase.Restricted, Strategy: chase.Random, Seed: 1, MaxSteps: budget, Cache: cache},
		{Variant: chase.Restricted, Strategy: chase.LIFO, MaxSteps: budget, Cache: cache},
	} {
		run := chase.RunChaseContext(ctx, seed, set, o)
		if run.Reason == chase.Cancelled {
			return cancelledVerdict, depth
		}
		if run.StepsTaken > depth {
			depth = run.StepsTaken
		}
		if run.Terminated() {
			continue
		}
		if ev, depth, ok := DivergencePump(run); ok {
			return &Verdict{
				Terminates: false,
				Method:     "divergence-witness",
				Witness:    seed,
				Evidence:   ev,
				PumpDepth:  depth,
			}, run.StepsTaken
		}
		// Budget exhausted without a pump: report divergence with weaker
		// evidence rather than silently claiming termination.
		return &Verdict{
			Terminates: false,
			Method:     "budget-exhausted",
			Witness:    seed,
			Evidence:   fmt.Sprintf("no fixpoint after %d steps (no pump found)", budget),
		}, run.StepsTaken
	}
	return nil, depth
}

// seedEnum enumerates the GenerateSeeds pool incrementally, in exactly
// GenerateSeeds' order: first every frozen body of every TGD under every
// unification of its body variables (the canonical databases, refined by
// equality type), then the Treeification expansions computed from
// real-oblivious-chase fragments of those base seeds (Appendix C.2's
// remote-side-parent service). The cheap canonical phase runs eagerly at
// construction; each treeification expansion — the expensive part — is
// built only when the consumer asks for the next seed, so a sweep that
// stops early (a scan deciding on, or stopped by, an early seed) never
// pays for the bases it does not reach.
type seedEnum struct {
	set      *tgds.Set
	maxSeeds int
	seen     map[logic.Fingerprint]bool
	pool     []*instance.Database
	nbase    int // phase-one prefix length: the treeification bases
	base     int // next base to expand
	next     int // next pool index to yield
}

func newSeedEnum(set *tgds.Set, maxSeeds int) *seedEnum {
	e := &seedEnum{set: set, maxSeeds: maxSeeds, seen: make(map[logic.Fingerprint]bool)}
	namer := logic.NewFreshNamer("s")
	for _, t := range set.TGDs {
		for _, unified := range unifications(t.Body) {
			frozen, _ := logic.CanonicalFreeze(unified, namer)
			db := instance.NewDatabase()
			okAll := true
			for _, a := range frozen {
				if err := db.Add(a); err != nil {
					okAll = false
					break
				}
			}
			if okAll {
				e.add(db)
			}
		}
	}
	e.nbase = len(e.pool)
	return e
}

func (e *seedEnum) add(db *instance.Database) {
	if len(e.pool) >= e.maxSeeds {
		return
	}
	// Isomorphism-insensitive dedup: canonicalise, then take the
	// order-independent set fingerprint — no key strings rendered or
	// sorted. canonicalizeAtoms renames injectively, so the canonical
	// slice is duplicate-free as FingerprintAtoms requires.
	key := logic.FingerprintAtoms(canonicalizeAtoms(db.Atoms()))
	if e.seen[key] {
		return
	}
	e.seen[key] = true
	e.pool = append(e.pool, db)
}

// Next yields the pool's next seed, expanding treeifications on demand.
func (e *seedEnum) Next() (*instance.Database, bool) {
	for e.next >= len(e.pool) {
		if e.base >= e.nbase || len(e.pool) >= e.maxSeeds {
			return nil, false
		}
		seed := e.pool[e.base]
		e.base++
		g := ochase.Build(seed, e.set, ochase.BuildOptions{MaxNodes: 600, MaxDepth: 6})
		tr, err := Treeify(g, TreeifyOptions{IncludeDirect: true})
		if err != nil {
			continue
		}
		e.add(tr.Database())
	}
	db := e.pool[e.next]
	e.next++
	return db, true
}

// GenerateSeeds produces candidate databases for the search — see seedEnum
// for the enumeration order.
func GenerateSeeds(set *tgds.Set, maxSeeds int) []*instance.Database {
	e := newSeedEnum(set, maxSeeds)
	for {
		if _, ok := e.Next(); !ok {
			return e.pool
		}
	}
}

// canonicalizeAtoms renames constants by first occurrence so seed dedup is
// isomorphism-insensitive.
func canonicalizeAtoms(atoms []logic.Atom) []logic.Atom {
	logic.SortAtoms(atoms)
	ren := make(map[logic.Term]logic.Term)
	next := 0
	out := make([]logic.Atom, len(atoms))
	for i, a := range atoms {
		args := make([]logic.Term, len(a.Args))
		for j, t := range a.Args {
			r, ok := ren[t]
			if !ok {
				r = logic.Const(fmt.Sprintf("k%d", next))
				next++
				ren[t] = r
			}
			args[j] = r
		}
		out[i] = logic.NewAtom(a.Pred, args...)
	}
	return out
}

// unifications enumerates the images of the body under every partition of
// its variables (capped to keep Bell growth sane: bodies with more than 5
// variables only get the identity partition).
func unifications(body []logic.Atom) [][]logic.Atom {
	vars := logic.VarsOf(body).Sorted()
	if len(vars) > 5 {
		return [][]logic.Atom{body}
	}
	var out [][]logic.Atom
	for _, e := range etypes.AllForPredicate(logic.Pred("partition", len(vars))) {
		sub := logic.NewSubstitution()
		for i, v := range vars {
			rep := vars[e.ClassOf(i+1)-1]
			if rep != v {
				sub.Bind(v, rep)
			}
		}
		out = append(out, sub.ApplyAtoms(body))
	}
	return out
}

// DivergencePump mines a restricted chase run for a guard-chain pump: two
// steps on the same guard-ancestor chain whose produced atoms share the
// (TGD, equality type, guard-sharing pattern) signature, with the later
// atom introducing fresh nulls. Over the finite alphabet Λ_T such a
// repetition witnesses an infinite regular chaseable abstract join tree,
// i.e. genuine divergence. The returned depth is the 1-based index of the
// later step of the repeated pair: the certificate lives entirely in the
// run's depth-step prefix, so it is independent of the budget the run was
// chased under — a pump found on a k-step probe prefix is the same witness
// a full-budget chase of the same order would surface.
func DivergencePump(run *chase.Run) (string, int, bool) {
	type info struct {
		parentFP logic.Fingerprint // guard image atom hash
		sig      int32             // interned Λ_T letter
		fresh    bool              // produced atom invents a null at this step
	}
	infos := make([]info, len(run.Steps))
	producedBy := make(map[logic.Fingerprint]int) // atom hash -> producing step
	letters := logic.NewTupleTable(64)
	guards := make(map[int]logic.Atom) // per TGD index
	var buf []uint32
	for i, step := range run.Steps {
		tr := step.Trigger
		guard, ok := guards[tr.TGDIndex]
		if !ok {
			if guard, ok = tr.TGD.Guard(); !ok {
				return "", 0, false
			}
			guards[tr.TGDIndex] = guard
		}
		guardImage := guard.Apply(tr.H)
		produced := step.Result[0]
		buf = appendLetter(buf[:0], tr.TGDIndex, produced, guardImage)
		sig, _ := letters.Intern(buf)
		infos[i] = info{
			parentFP: logic.HashAtom(guardImage),
			sig:      sig,
			fresh:    introducesFreshNull(produced, guardImage),
		}
		for _, a := range step.Added {
			h := logic.HashAtom(a)
			if _, dup := producedBy[h]; !dup {
				producedBy[h] = i
			}
		}
	}
	// Walk guard chains from each step upward, looking for a repeated
	// signature whose steps invent fresh nulls — a repetition of a
	// null-free signature cannot grow the term set and is no pump (a
	// terminating cycle closed by a frontier-free existential TGD would
	// otherwise be misread as divergence). seenIn[sig] == i+1 marks a
	// letter met on the walk from step i, first at step seenAt[sig].
	seenIn := make([]int, letters.Len())
	seenAt := make([]int, letters.Len())
	for i := len(run.Steps) - 1; i >= 0; i-- {
		walk := i + 1
		seenIn[infos[i].sig], seenAt[infos[i].sig] = walk, i
		cur := i
		for {
			parentStep, ok := producedBy[infos[cur].parentFP]
			if !ok || parentStep >= cur {
				break
			}
			sig := infos[parentStep].sig
			if seenIn[sig] == walk {
				if first := seenAt[sig]; infos[parentStep].fresh && infos[first].fresh {
					tr := run.Steps[parentStep].Trigger
					return fmt.Sprintf("guard-chain pump: %s repeats signature between steps %d and %d (period %d)",
						tr.TGD.Label, parentStep, first, first-parentStep), first + 1, true
				}
			} else {
				seenIn[sig], seenAt[sig] = walk, parentStep
			}
			cur = parentStep
		}
	}
	return "", 0, false
}

// introducesFreshNull reports whether the produced atom carries a null that
// does not occur in its guard image. In a guarded TGD the guard contains
// every body variable, so every propagated term of the result appears among
// the guard image's arguments — a null absent from them was invented by
// this very step.
func introducesFreshNull(produced, guardImage logic.Atom) bool {
	for _, t := range produced.Args {
		if !t.IsNull() {
			continue
		}
		inGuard := false
		for _, u := range guardImage.Args {
			if t == u {
				inGuard = true
				break
			}
		}
		if !inGuard {
			return true
		}
	}
	return false
}

// appendLetter appends a produced atom's Λ_T letter to dst as an integer
// tuple: the TGD index, the atom's equality type (each position's first
// equal position) and the (produced, guard image) position pairs that
// carry the same term. In a single-head guarded set the TGD fixes the
// produced atom's predicate and the guard's, hence both arities, so two
// steps get the same tuple iff they have the same letter.
func appendLetter(dst []uint32, tgdIndex int, produced, guardImage logic.Atom) []uint32 {
	dst = append(dst, uint32(tgdIndex))
	et := etypes.Of(produced)
	for i := range produced.Args {
		dst = append(dst, uint32(et.ClassOf(i+1)-1))
	}
	for i, t := range produced.Args {
		for j, u := range guardImage.Args {
			if t == u {
				dst = append(dst, uint32(i), uint32(j))
			}
		}
	}
	return dst
}
