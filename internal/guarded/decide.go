// Package guarded implements the Section 5 machinery for single-head
// guarded TGDs that the bounded search runs on: the remote-side-parent
// ("longs for") analysis and the Treeification Theorem's acyclic-database
// construction (Appendix C.2), the guard-chain pump miner, and a bounded
// search for CT^res_∀∀(G).
//
// The paper decides CT^res_∀∀(G) by compiling the chaseable-abstract-join-
// tree property (Definitions 5.8 and 5.10) into an MSOL sentence over
// infinite trees (Lemma 5.12). A faithful MSOL-over-infinite-trees solver
// is non-elementary and out of scope for any implementation, so Decide
// replaces that step with a bounded certificate search — seed acyclic
// databases derived from the TGD bodies (the treeification viewpoint)
// chased with divergence-evidence detection on the guard forest.
// docs/ARCHITECTURE.md ("The guarded decider: a bounded search") documents
// the substitution and what it does not prove.
package guarded

import (
	"context"
	"fmt"
	"slices"

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
	// "divergence-witness" (a concrete database and a run carrying a
	// guard-chain pump — an unchecked certificate: a pump can sit on a
	// terminating set until ROADMAP item 1(b) replays it), or
	// "seed-exhaustion" (bounded claim: every seed database chased quietly
	// to fixpoint).
	Method string
	// Witness is the diverging seed database when Terminates is false.
	Witness *instance.Database
	// Evidence describes the divergence certificate (guard-chain pump).
	Evidence string
	// PumpDepth is, on a "divergence-witness" verdict, the length of the
	// shortest run prefix that already carries the certificate — the later
	// step of the repeated signature pair, 1-based. The certificate is
	// budget-independent: any chase of this seed under the same order that
	// runs at least PumpDepth steps surfaces it. Zero only when the
	// verdict carries no pump ("budget-exhausted").
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

const (
	// DefaultMaxSteps is the per-seed restricted-chase budget that a zero
	// DecideOptions.MaxSteps selects.
	DefaultMaxSteps = 2000
	// MaxSeeds caps the candidate databases of one seed pool.
	MaxSeeds = 256
)

// DecideOptions configures the decision procedure.
type DecideOptions struct {
	// MaxSteps is the per-seed restricted-chase budget (0: DefaultMaxSteps).
	MaxSteps int
	// Cache, when set, receives the engine activity counters of every
	// battery run (chase.Options.Cache); nothing is looked up or stored,
	// so verdicts do not depend on it. Safe to share one cache across
	// concurrent Decide calls.
	Cache *chase.Cache
}

func (o DecideOptions) maxSteps() int {
	if o.MaxSteps <= 0 {
		return DefaultMaxSteps
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
//     orders) on the ID plane, recording only a step log; a
//     budget-exhausted run's log is mined for a guard-chain pump — a
//     repeated (TGD, equality-type, guard-sharing) signature along a
//     guard-ancestor chain — which is taken as divergence by the
//     finite-alphabet regularity of Λ_T, though the pump stays an
//     unchecked certificate until ROADMAP item 1(b) replays it;
//  4. if every seed saturates, the set is declared terminating.
//
// Neither step 3 nor step 4 is a decision procedure: ROADMAP item 1 gives a
// terminating set with a pump and a diverging set all three orders miss.
func Decide(set *tgds.Set, opts DecideOptions) (*Verdict, error) {
	return DecideContext(context.Background(), set, opts)
}

// DecideContext is Decide under a context: the per-seed chase batteries run
// in a chase.Arena (cancellation observed every few dozen trigger pops) and
// the seed scan stops before its next seed once the context fires. A
// cancelled call returns ctx's error; no partial battery outcome is
// interpreted. Uncancelled calls behave identically to Decide. The scan
// takes its chase arena from a package pool at its first seed and returns
// it when the scan ends, so concurrent calls never share one.
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
	sw := &seedSweep{enum: newSeedEnum(set, MaxSeeds), cache: opts.Cache}
	defer sw.release()
	v, depth, err := scanSeeds(ctx, sw, budget)
	if err != nil {
		return nil, err
	}
	if v == nil {
		v = &Verdict{Terminates: true, Method: "seed-exhaustion"}
	}
	v.SeedsTried, v.Budget, v.Depth = sw.enum.next, budget, depth
	return v, nil
}

// cancelledVerdict is the in-package sentinel a battery returns when its
// context fired mid-chase: callers translate it to ctx.Err() and must never
// interpret it.
var cancelledVerdict = &Verdict{Method: "cancelled"}

// chaseSeedBattery runs one seed's bounded restricted chases: fair FIFO,
// then a perturbed Random order, then LIFO, each on the ID plane in b's
// arena, bound to the set, with its steps in b's step log. Each run is
// mined before the next order reuses both. It returns a divergence verdict
// (SeedsTried and Budget left to the caller), or nil when every order
// saturated quietly, and the deepest chase among the orders (the diverging
// run's step count when an order diverged). cache only receives the runs'
// engine activity counters.
func chaseSeedBattery(ctx context.Context, b *battery, set *tgds.Set, seed *instance.Database, budget int, cache *chase.Cache) (*Verdict, int) {
	depth := 0
	log := &b.log
	for _, o := range []chase.Options{
		{Variant: chase.Restricted, Strategy: chase.FIFO, MaxSteps: budget, DropSteps: true, Cache: cache},
		{Variant: chase.Restricted, Strategy: chase.Random, Seed: 1, MaxSteps: budget, DropSteps: true, Cache: cache},
		{Variant: chase.Restricted, Strategy: chase.LIFO, MaxSteps: budget, DropSteps: true, Cache: cache},
	} {
		run := chaseLogged(ctx, &b.arena, seed, o, log)
		if run.Reason == chase.Cancelled {
			return cancelledVerdict, depth
		}
		if run.StepsTaken > depth {
			depth = run.StepsTaken
		}
		if run.Terminated() {
			continue
		}
		if ev, depth, ok := log.pump(set, run.Final); ok {
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
//
// A pool entry is a duplicate-free fact slice, in the order a Database
// built from it would list its atoms; only a base being expanded becomes
// a Database, because ochase.Build takes one.
type seedEnum struct {
	set      *tgds.Set
	maxSeeds int
	seen     map[logic.Fingerprint]bool
	pool     [][]logic.Atom
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
			if facts, ok := distinctFacts(frozen); ok {
				e.add(facts)
			}
		}
	}
	e.nbase = len(e.pool)
	return e
}

func (e *seedEnum) add(seed []logic.Atom) {
	if len(e.pool) >= e.maxSeeds {
		return
	}
	// Isomorphism-insensitive dedup: canonicalise, then take the
	// order-independent set fingerprint — no key strings rendered or
	// sorted. canonicalizeAtoms renames injectively, so the canonical
	// slice is duplicate-free as FingerprintAtoms requires.
	key := logic.FingerprintAtoms(canonicalizeAtoms(seed))
	if e.seen[key] {
		return
	}
	e.seen[key] = true
	e.pool = append(e.pool, seed)
}

// Next yields the pool's next seed, expanding treeifications on demand.
// The slice belongs to the pool: read-only.
func (e *seedEnum) Next() ([]logic.Atom, bool) {
	for e.next >= len(e.pool) {
		if e.base >= e.nbase || len(e.pool) >= e.maxSeeds {
			return nil, false
		}
		seed := e.pool[e.base]
		e.base++
		g := ochase.Build(seedDatabase(seed), e.set, ochase.BuildOptions{MaxNodes: 600, MaxDepth: 6})
		tr, err := Treeify(g, TreeifyOptions{IncludeDirect: true})
		if err != nil {
			continue
		}
		e.add(tr.Facts())
	}
	seed := e.pool[e.next]
	e.next++
	return seed, true
}

// GenerateSeeds produces candidate databases for the search — see seedEnum
// for the enumeration order.
func GenerateSeeds(set *tgds.Set, maxSeeds int) []*instance.Database {
	e := newSeedEnum(set, maxSeeds)
	for {
		if _, ok := e.Next(); !ok {
			break
		}
	}
	out := make([]*instance.Database, len(e.pool))
	for i, seed := range e.pool {
		out[i] = seedDatabase(seed)
	}
	return out
}

// distinctFacts returns the atoms without repeats, in first-occurrence
// order — what a Database built from them lists — or false when one is not
// a fact.
func distinctFacts(atoms []logic.Atom) ([]logic.Atom, bool) {
	out := make([]logic.Atom, 0, len(atoms))
	for _, a := range atoms {
		if !a.IsFact() {
			return nil, false
		}
		if !slices.ContainsFunc(out, a.Equal) {
			out = append(out, a)
		}
	}
	return out, true
}

// seedDatabase builds the Database of a duplicate-free fact slice; its
// Atoms list the slice in order.
func seedDatabase(seed []logic.Atom) *instance.Database {
	db, err := instance.DatabaseFromAtoms(seed...)
	if err != nil {
		panic(err) // every pool entry holds facts only
	}
	return db
}

// canonicalizeAtoms renames constants by first occurrence, in sorted atom
// order, so seed dedup is isomorphism-insensitive. The input is not
// modified.
func canonicalizeAtoms(atoms []logic.Atom) []logic.Atom {
	out := slices.Clone(atoms)
	logic.SortAtoms(out)
	ren := make(map[logic.Term]logic.Term)
	next := 0
	for i, a := range out {
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
