package chase

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"

	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// Variant selects the chase flavour (Section 3).
type Variant uint8

const (
	// Restricted applies only active triggers: a TGD fires only when it is
	// violated. The paper's main object of study.
	Restricted Variant = iota
	// Oblivious applies every trigger once, violated or not.
	Oblivious
	// SemiOblivious (skolem chase) applies one trigger per frontier class:
	// triggers agreeing on fr(σ) are identified.
	SemiOblivious
)

func (v Variant) String() string {
	switch v {
	case Restricted:
		return "restricted"
	case Oblivious:
		return "oblivious"
	case SemiOblivious:
		return "semi-oblivious"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Strategy selects which pending trigger fires next. FIFO yields fair
// derivations (every enqueued trigger is eventually considered); LIFO can
// starve old triggers and is deliberately available to exhibit unfair
// derivations; Random draws from the pending set with a seeded source.
type Strategy uint8

const (
	FIFO Strategy = iota
	LIFO
	Random
)

func (s Strategy) String() string {
	switch s {
	case FIFO:
		return "fifo"
	case LIFO:
		return "lifo"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// StopReason explains why a run ended.
type StopReason uint8

const (
	// Fixpoint: no applicable trigger remained; the run is a finite chase
	// derivation and its result satisfies the TGD set (for Restricted).
	Fixpoint StopReason = iota
	// StepBudget: MaxSteps trigger applications were performed.
	StepBudget
	// AtomBudget: the instance grew past MaxAtoms.
	AtomBudget
	// Cancelled: the run's context was cancelled mid-derivation (only
	// RunChaseContext runs can stop this way). The partial run is NOT a
	// budget-exhausted run: callers must discard it rather than mine it
	// for divergence evidence.
	Cancelled
	// EGDFailure: an equality step forced two distinct constants equal.
	// The chase *fails* — a definitive, finite outcome (no model of the
	// database and the dependencies exists with the chase's equalities),
	// distinct from both fixpoint and budget exhaustion. Run.Conflict
	// carries the violated EGD and the clashing constants.
	EGDFailure
)

func (r StopReason) String() string {
	switch r {
	case Fixpoint:
		return "fixpoint"
	case StepBudget:
		return "step-budget"
	case AtomBudget:
		return "atom-budget"
	case Cancelled:
		return "cancelled"
	case EGDFailure:
		return "egd-failure"
	default:
		return fmt.Sprintf("StopReason(%d)", uint8(r))
	}
}

// Options configures a chase run. The zero value is a restricted FIFO chase
// with no budgets — suitable only for inputs known to terminate; set
// MaxSteps or MaxAtoms otherwise.
type Options struct {
	Variant  Variant
	Strategy Strategy
	// MaxSteps bounds the number of trigger applications; 0 means no bound.
	MaxSteps int
	// MaxAtoms bounds the instance size; 0 means no bound.
	MaxAtoms int
	// Seed drives the Random strategy.
	Seed int64
	// DropSteps disables derivation recording: Run.Steps and Run.EqSteps
	// stay empty. The guarded battery runs this way, in a pooled Arena, and
	// reads its steps through OnStep.
	DropSteps bool
	// OnStep, when set, observes every applied TGD step on the ID plane
	// (see StepObserver). Runs are byte-identical with and without it.
	OnStep StepObserver
	// Cache, when set, receives the run's activity counters
	// (Cache.NoteRunActivity), aggregated for /v1/stats. Runs are
	// byte-identical with and without a cache.
	Cache *Cache
}

// StepObserver receives one applied TGD step's interned identity, after
// the step's head atoms are inserted: the TGD's index in Set.TGDs; the
// trigger's body TermIDs, one per body variable in the order of
// TGD.BodyVars().Sorted() (the engine's slice, valid only during the call);
// the insertion index of the step's first head atom, whether new or already
// present; and the instance length after the step. Between equality steps
// the atoms a step added hold the insertion indices from the previous
// step's length up to its own. TermIDs and insertion indices are those of
// Run.Final's interner and instance.
type StepObserver func(tgd int, body []uint32, head int32, length int)

// Step records one trigger application I⟨σ,h⟩J.
type Step struct {
	Trigger Trigger
	// Result is result(σ,h) — every head atom, whether new or not.
	Result []logic.Atom
	// Added are the atoms of Result that were new to the instance.
	Added []logic.Atom
}

// EqStep records one equality step: an EGD trigger fired and the instance
// was rewritten, Unified (a null) absorbed by Rep everywhere.
type EqStep struct {
	// EGDIndex indexes Set.EGDs; EGD is that dependency.
	EGDIndex int
	EGD      tgds.EGD
	// H is the body homomorphism that activated the EGD.
	H logic.Substitution
	// Unified was rewritten away; Rep absorbed it (a constant beats a
	// null, an older null beats a younger one).
	Unified, Rep logic.Term
	// Removed counts atoms that became duplicates under the rewrite.
	Removed int
	// AtStep is the 0-based position of this step in the combined
	// derivation (Run.StepsTaken counts TGD and equality steps together).
	AtStep int
}

// EGDConflict describes an EGD failure: the violated EGD, the activating
// homomorphism, and the two distinct constants it forced equal.
type EGDConflict struct {
	EGD  tgds.EGD
	H    logic.Substitution
	X, Y logic.Term
}

func (c *EGDConflict) String() string {
	return fmt.Sprintf("%s forces %v = %v (distinct constants)", c.EGD.Label, c.X, c.Y)
}

// Stats counts the engine's bookkeeping work — the currency of the
// paper's §1 trade-off discussion ("at each step, the restricted chase has
// to check that there is no way to satisfy the right-hand side … and this
// is costly").
type Stats struct {
	// ActivityChecks counts IsActive evaluations (restricted only).
	ActivityChecks int
	// TriggersEnqueued counts distinct triggers discovered.
	TriggersEnqueued int
	// TriggersSkipped counts popped triggers that were not applicable
	// (deactivated since discovery, or duplicate frontier class).
	TriggersSkipped int
}

// Run is the outcome of a chase: the final instance, the derivation, and
// why the run stopped.
type Run struct {
	Options  Options
	Set      *tgds.Set
	Database *instance.Database
	Final    *instance.Instance
	Steps    []Step
	Reason   StopReason
	// StepsTaken counts trigger applications — TGD and equality steps
	// together (equals len(Steps)+len(EqSteps) unless DropSteps).
	StepsTaken int
	// EqualitySteps counts the equality steps among StepsTaken (maintained
	// even under DropSteps); EqSteps records them unless DropSteps.
	EqualitySteps int
	EqSteps       []EqStep
	// Conflict is set exactly when Reason == EGDFailure.
	Conflict *EGDConflict
	// Stats records the engine's bookkeeping work.
	Stats Stats
}

// Terminated reports whether the run reached a fixpoint.
func (r *Run) Terminated() bool { return r.Reason == Fixpoint }

// Failed reports whether the run ended in EGD failure — a definitive
// outcome (neither a fixpoint nor a budget stop): the dependencies admit no
// model extending the database along this derivation's equalities.
func (r *Run) Failed() bool { return r.Reason == EGDFailure }

// InstanceAt replays the derivation and returns I_i: the instance after i
// steps (I_0 is the database). It requires recorded steps, and does not
// support runs with equality steps (a rewrite cannot be replayed by
// re-adding Added atoms).
func (r *Run) InstanceAt(i int) *instance.Instance {
	if r.Options.DropSteps {
		panic("chase: InstanceAt requires recorded steps")
	}
	if r.EqualitySteps > 0 {
		panic("chase: InstanceAt does not support runs with equality steps")
	}
	if i > len(r.Steps) {
		i = len(r.Steps)
	}
	inst := r.Database.Instance()
	for _, s := range r.Steps[:i] {
		for _, a := range s.Added {
			inst.Add(a)
		}
	}
	return inst
}

// engine is the shared machinery of the three variants. It runs entirely on
// interned identity: triggers are TermID tuples deduped in a TupleTable
// (one probe answers "seen before?"), activity checks and trigger discovery
// run the slot-compiled homomorphism search, and the FIFO queue is a
// head-indexed ring of 4-byte trigger IDs. No string keys are built:
// Trigger.Key() is a debug/test renderer, and the semi-oblivious variant
// dedups frontier classes by interned (TGD index, frontier TermID) tuples.
//
// A Restricted pop decides activity with the one check the ∀∃ search's
// trigger index also uses (matcher.isActive), against the instance as it
// stands at the pop.
//
// Equality steps (EGD support) ride on the same machinery: EGD triggers
// intern into the trigger table under rule index len(TGDs)+egdIndex and are
// discovered by the same SlotSearch/ForEachPinnedAtom enumeration. Applying
// an EGD trigger unifies the two bound terms in a union-find over TermIDs
// (uf): the representative is the constant if one side is a constant, else
// the older null (smaller TermID); two distinct constants are an
// EGDFailure. The instance is then rewritten in place through uf.Find
// (Instance.RewriteTerms rebuilds its indexes) and the trigger state —
// tables and queue — is rebuilt from the rewritten instance: an equality
// step can deactivate triggers (a head image appears by merging) and
// re-activate work in bulk (rewritten body matches are new trigger
// identities), and the rebuild re-derives both effects from scratch, which
// is sound because activity and satisfaction are preserved under the
// rewriting homomorphism ρ (ρ∘h remains a body match; a satisfied head
// stays satisfied as ρ of its witness). EGDs are Restricted-only: the
// oblivious variants' fire-once bookkeeping is keyed on trigger identities
// that a rewrite invalidates.
//
// An engine's memory outlives its runs (see Arena): Bind compiles a TGD set
// once, and reset truncates the per-run state for the next run.
type engine struct {
	set  *tgds.Set
	opts Options
	inst *instance.Instance
	itab *logic.Interner
	ct   []compiledTGD
	ce   []compiledEGD
	uf   *logic.UnionFind // equality classes; nil iff the set has no EGDs

	// dirty is set while equality merges recorded in uf have not yet been
	// applied to the instance; eqSinceFlush counts the EqSteps recorded
	// since the last flush (they share one rewrite's Removed total).
	dirty        bool
	eqSinceFlush int

	// A run names its k-th invented null n<k>; nulls counts them.
	// nullTerms[k] is the term n<k>, built once per engine, and
	// boundNulls[k] its TermID under the current binding, interned on
	// first use.
	nulls      int
	nullTerms  []logic.Term
	boundNulls []logic.TermID
	// peak is the largest instance any run held: the instance and its
	// tables keep that capacity.
	peak int

	trig      *logic.TupleTable // trigger identity: [tgd, body TermIDs...]; TupleID = trigger
	front     *logic.TupleTable // frontier classes: [tgd, frontier TermIDs...]
	applied   []bool            // per frontier class (semi-oblivious)
	lastFront logic.TupleID     // frontier class of the trigger applicable just admitted

	queue []int32 // trigger TupleIDs
	qhead int     // FIFO ring head

	// done is the run context's cancellation channel (nil for background
	// runs); ctxTick paces the loop's polls so uncancellable runs pay one
	// nil check per pop and cancellable runs one select per 64 pops.
	done    <-chan struct{}
	ctxTick uint

	rng *rand.Rand
	run *Run

	matcher
	tupbuf  []uint32       // scratch identity tuple
	discBuf []uint32       // flat discovered trigger tuples
	sortBuf []int32        // offsets into discBuf, sorted canonically
	nullIDs []logic.TermID // scratch nulls of the current application
	addedIx []int32        // scratch indices of atoms added by the current application
}

// matcher is the slot search and head-argument scratch that the engine and
// the ∀∃ search's expander each embed, and the restricted activity check
// that runs on them.
type matcher struct {
	ss     logic.SlotSearch
	argbuf []logic.TermID // scratch head-atom arguments
}

// isActive reports whether the trigger of ct with body tuple bt is active
// on inst: no homomorphism of the head extending the frontier bindings
// exists (Definition 3.1). An existential-free head is fully bound by the
// frontier, so its one candidate homomorphism is a membership probe per
// head atom; otherwise the slot search runs with the frontier slots bound.
// The engine's pops and the search's trigger index both decide activity
// here.
func (m *matcher) isActive(ct *compiledTGD, bt []uint32, inst *instance.Instance) bool {
	if len(ct.existVars) == 0 {
		for _, ca := range ct.head.Atoms {
			m.argbuf = m.argbuf[:0]
			for _, a := range ca.Args {
				if a.Slot < 0 { // rigid pattern term (constant-free TGDs never hit this)
					m.argbuf = append(m.argbuf, a.ID)
				} else {
					m.argbuf = append(m.argbuf, logic.TermID(bt[a.Slot]))
				}
			}
			if !inst.HasTuple(ca.Pred, m.argbuf) {
				return true
			}
		}
		return false
	}
	m.ss.Reset(ct.head)
	for _, s := range ct.frontierSlots {
		m.ss.Bind[s] = logic.TermID(bt[s])
	}
	found := false
	m.ss.ForEach(ct.head, inst, func([]logic.TermID) bool {
		found = true
		return false
	})
	return !found
}

// Run chases the database with the TGD set under the options.
func RunChase(db *instance.Database, set *tgds.Set, opts Options) *Run {
	return RunChaseContext(context.Background(), db, set, opts)
}

// RunChaseContext is RunChase under a context: the engine polls
// ctx.Done() every engineCtxInterval pops and stops with Reason =
// Cancelled when it fires. An un-cancellable context (Background) adds
// one nil check per pop; uncancelled runs are byte-identical to RunChase.
// It runs in a one-shot Arena, so Run.Final is the caller's to keep.
func RunChaseContext(ctx context.Context, db *instance.Database, set *tgds.Set, opts Options) *Run {
	a := &Arena{}
	a.Bind(set)
	return a.Run(ctx, db, opts)
}

// Arena is chase engine memory that outlives a run: the interner, the
// instance, the trigger and frontier tables, the queue and discovery
// buffers, and the bound TGD set's compiled rules. Bind compiles a set
// once; each Run truncates that memory instead of allocating it again, and
// names its nulls with the n<k> terms earlier runs of the binding interned.
// Runs are byte-identical to RunChaseContext's: no output reads a TermID's
// numeric value (trigger order compares term names, posting lists and
// tuple IDs follow insertion order, Random pops depend only on the queue
// length, and nulls are interned in naming order).
//
// The zero value is an unbound arena. An arena has one writer and must not
// be copied after first use.
//
// Run.Final of an arena's run is the arena's own instance, and with it the
// TermIDs an OnStep observer saw: they stay valid only until the arena's
// next Run or Bind. A caller reads or copies them before either.
type Arena struct {
	e engine
}

// Run chases db with the bound set under opts, in the arena's memory.
func (a *Arena) Run(ctx context.Context, db *instance.Database, opts Options) *Run {
	e := &a.e
	if e.set == nil {
		panic("chase: Run on an unbound Arena")
	}
	if e.set.HasEGDs() && opts.Variant != Restricted {
		panic(fmt.Sprintf("chase: EGDs require the restricted variant (got %v): the %v variant's fire-once bookkeeping does not survive equality rewriting", opts.Variant, opts.Variant))
	}
	e.reset(ctx, db, opts)
	// Seed the queue with every trigger on the database, per TGD in
	// canonical order (the order AllTriggers produces).
	e.seedAllTriggers()
	e.loop()
	e.peak = max(e.peak, e.inst.Len())
	e.run.Final = e.inst
	if opts.Cache != nil {
		opts.Cache.NoteRunActivity(e.run.Stats)
	}
	return e.run
}

// PeakAtoms returns the largest instance any run of the arena held, the
// size its instance and tables keep capacity for.
func (a *Arena) PeakAtoms() int { return a.e.peak }

// Bind binds the arena to set for every later Run. The first Bind
// allocates the arena's memory; a later one resets the interner and drops
// the instance's index keys, both keeping their capacity. Either compiles
// the set's rules once.
func (a *Arena) Bind(set *tgds.Set) {
	e := &a.e
	if e.itab == nil {
		e.itab = logic.NewInterner()
		e.inst = instance.NewWithInterner(e.itab)
		e.trig = logic.NewTupleTable(64)
		e.front = logic.NewTupleTable(16)
	} else {
		e.itab.Reset()
		e.inst.Clear()
	}
	e.set = set
	e.boundNulls = e.boundNulls[:0]
	e.ct = compileSet(set, e.itab)
	e.ce, e.uf = nil, nil
	if set.HasEGDs() {
		e.ce = compileEGDs(set, e.itab)
		e.uf = &logic.UnionFind{}
	}
}

// reset readies the engine for a run of db under opts: every per-run
// structure is truncated, keeping its capacity, and db's facts are loaded
// into the instance.
func (e *engine) reset(ctx context.Context, db *instance.Database, opts Options) {
	e.opts = opts
	e.run = &Run{Options: opts, Set: e.set, Database: db}
	e.done = ctx.Done()
	e.ctxTick = 0
	e.dirty, e.eqSinceFlush = false, 0
	if e.uf != nil {
		e.uf.Reset()
	}
	e.nulls = 0
	e.clearTriggers()
	e.inst.Reset()
	e.inst.AddAll(db.Atoms())
	if opts.Strategy == Random {
		if e.rng == nil {
			e.rng = rand.New(rand.NewSource(opts.Seed))
		} else {
			e.rng.Seed(opts.Seed)
		}
	}
}

// clearTriggers empties the trigger state — tables and queue — keeping its
// capacity: at the start of a run and at each equality flush.
func (e *engine) clearTriggers() {
	e.trig.Reset()
	e.front.Reset()
	e.applied = e.applied[:0]
	e.queue = e.queue[:0]
	e.qhead = 0
}

// seedAllTriggers enumerates every trigger of every rule — TGDs then EGDs,
// each in canonical order — on the current instance and enqueues them. It
// runs at the start of a chase and again after every equality step (the
// bulk trigger-state repair: a rewrite both deactivates and re-activates
// triggers, and the re-enumeration re-derives the whole picture from the
// rewritten instance).
func (e *engine) seedAllTriggers() {
	for i := range e.ct {
		ct := &e.ct[i]
		e.ss.Reset(ct.body)
		e.collectTriggers(i, ct.nBody, ct.body)
		e.enqueueDiscovered(ct.nBody)
	}
	for j := range e.ce {
		ce := &e.ce[j]
		e.ss.Reset(ce.body)
		e.collectTriggers(len(e.ct)+j, ce.nBody, ce.body)
		e.enqueueDiscovered(ce.nBody)
	}
}

// collectTriggers enumerates homomorphisms of the pattern (extending any
// bindings already pinned in e.ss.Bind) and collects one trigger tuple
// [rule, body TermIDs...] per homomorphism into discBuf/sortBuf. rule is a
// TGD index or len(e.ct)+egdIndex.
func (e *engine) collectTriggers(rule, nBody int, pat *logic.CPattern) {
	e.discBuf = e.discBuf[:0]
	e.sortBuf = e.sortBuf[:0]
	e.ss.ForEach(pat, e.inst, func(bind []logic.TermID) bool {
		e.sortBuf = append(e.sortBuf, int32(len(e.discBuf)))
		e.discBuf = append(e.discBuf, uint32(rule))
		for s := 0; s < nBody; s++ {
			e.discBuf = append(e.discBuf, uint32(bind[s]))
		}
		return true
	})
}

// enqueueDiscovered sorts the collected trigger tuples canonically and
// enqueues the ones never seen before. The trigger table's isNew answer is
// the dedup — no separate seen set.
func (e *engine) enqueueDiscovered(nBody int) {
	SortTriggerTuples(e.itab, e.discBuf, e.sortBuf, nBody+1)
	for _, off := range e.sortBuf {
		tup := e.discBuf[off : off+int32(nBody)+1]
		if id, isNew := e.trig.Intern(tup); isNew {
			e.run.Stats.TriggersEnqueued++
			e.queue = append(e.queue, id)
		}
	}
}

func (e *engine) pending() int { return len(e.queue) - e.qhead }

func (e *engine) pop() int32 {
	switch e.opts.Strategy {
	case LIFO:
		id := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		return id
	case Random:
		// Remove at a random position, preserving the relative order of the
		// rest (same discipline — and same seeded index sequence — as the
		// string-keyed engine). O(pending), deliberately: Random exists to
		// exhibit derivations, not to be fast.
		i := e.qhead + e.rng.Intn(e.pending())
		id := e.queue[i]
		copy(e.queue[i:], e.queue[i+1:])
		e.queue = e.queue[:len(e.queue)-1]
		return id
	default: // FIFO: head-indexed ring, O(1) amortized — no slice shifting.
		id := e.queue[e.qhead]
		e.qhead++
		if e.qhead >= 64 && e.qhead*2 >= len(e.queue) {
			n := copy(e.queue, e.queue[e.qhead:])
			e.queue = e.queue[:n]
			e.qhead = 0
		}
		return id
	}
}

// frontierID interns the trigger's frontier class and returns its dense ID,
// growing the applied flags alongside.
func (e *engine) frontierID(tgd int, bt []uint32) logic.TupleID {
	ct := &e.ct[tgd]
	e.tupbuf = e.tupbuf[:0]
	e.tupbuf = append(e.tupbuf, uint32(tgd))
	for _, s := range ct.frontierSlots {
		e.tupbuf = append(e.tupbuf, bt[s])
	}
	id, _ := e.front.Intern(e.tupbuf)
	for len(e.applied) < e.front.Len() {
		e.applied = append(e.applied, false)
	}
	return id
}

// applicable decides whether a popped trigger should fire under the variant.
func (e *engine) applicable(tgd int, bt []uint32) bool {
	switch e.opts.Variant {
	case Restricted:
		// Activity is antitone: once non-active, forever non-active
		// (instances only grow), so dropping is safe.
		e.run.Stats.ActivityChecks++
		return e.isActive(&e.ct[tgd], bt, e.inst)
	case SemiOblivious:
		e.lastFront = e.frontierID(tgd, bt)
		return !e.applied[e.lastFront]
	default:
		return true
	}
}

// engineCtxInterval is the cancellation check interval of the engine loop:
// the poll runs every engineCtxInterval pops, so a cancelled run stops
// within that many trigger resolutions (the latency the portfolio's
// cancellation test pins).
const engineCtxInterval = 64

func (e *engine) loop() {
	for {
		if e.dirty && e.pending() == 0 {
			// The queue drained with equality rewrites pending: flush so the
			// rebuilt trigger state decides whether this is a fixpoint.
			e.flushEqualities()
		}
		if e.pending() == 0 {
			break
		}
		if e.done != nil {
			if e.ctxTick++; e.ctxTick%engineCtxInterval == 0 {
				select {
				case <-e.done:
					// Cancelled runs are discarded by contract: no flush.
					e.run.Reason = Cancelled
					return
				default:
				}
			}
		}
		if e.opts.MaxSteps > 0 && e.run.StepsTaken >= e.opts.MaxSteps {
			e.stopWith(StepBudget)
			return
		}
		if e.opts.MaxAtoms > 0 && e.inst.Len() >= e.opts.MaxAtoms {
			e.stopWith(AtomBudget)
			return
		}
		id := e.pop()
		tup := e.trig.Tuple(id)
		rule, bt := int(tup[0]), tup[1:]
		if rule >= len(e.ct) {
			// EGD trigger. Resolution through the union-find makes pending
			// (unflushed) merges visible, so a run of equality steps batches
			// into one rewrite: each step unions one pair, and the rewrite is
			// deferred until a TGD trigger needs the instance or the queue
			// drains.
			e.run.Stats.ActivityChecks++
			j := rule - len(e.ct)
			ce := &e.ce[j]
			x := e.uf.Find(logic.TermID(bt[ce.xSlot]))
			y := e.uf.Find(logic.TermID(bt[ce.ySlot]))
			if x == y {
				e.run.Stats.TriggersSkipped++
				continue
			}
			if !e.applyEGD(j, bt, x, y) {
				e.stopWith(EGDFailure)
				return
			}
			continue
		}
		if e.dirty {
			// A TGD trigger surfaced while equality rewrites are pending:
			// flush first. The popped trigger belongs to the discarded
			// pre-rewrite queue — its rewritten image (or its unchanged self)
			// is re-enumerated by the rebuild, so dropping it loses nothing.
			e.flushEqualities()
			continue
		}
		if !e.applicable(rule, bt) {
			e.run.Stats.TriggersSkipped++
			continue
		}
		e.apply(rule, bt)
	}
	e.run.Reason = Fixpoint
}

// stopWith ends the run with the given reason, flushing pending equality
// rewrites first so Run.Final reflects every applied equality step.
func (e *engine) stopWith(r StopReason) {
	if e.dirty {
		e.flushEqualities()
	}
	e.run.Reason = r
}

// applyEGD performs one equality step for EGD j under the popped binding:
// x and y are the union-find representatives of the two equated terms,
// known distinct. It returns false on EGD failure (two distinct constants).
// The representative of a merge is the constant when one side is a
// constant, else the older null (smaller TermID — interned earlier). The
// instance rewrite is deferred: applyEGD only records the union and marks
// the engine dirty.
func (e *engine) applyEGD(j int, bt []uint32, x, y logic.TermID) bool {
	xt, yt := e.itab.Term(x), e.itab.Term(y)
	var child, rep logic.TermID
	switch {
	case !xt.IsNull() && !yt.IsNull():
		e.run.Conflict = &EGDConflict{
			EGD: e.set.EGDs[j],
			H:   e.materializeEGDTrigger(j, bt),
			X:   xt,
			Y:   yt,
		}
		return false
	case xt.IsNull() && !yt.IsNull():
		child, rep = x, y
	case !xt.IsNull() && yt.IsNull():
		child, rep = y, x
	default:
		if x < y {
			child, rep = y, x
		} else {
			child, rep = x, y
		}
	}
	e.uf.Link(child, rep)
	e.dirty = true
	e.eqSinceFlush++
	e.run.StepsTaken++
	e.run.EqualitySteps++
	if !e.opts.DropSteps {
		e.run.EqSteps = append(e.run.EqSteps, EqStep{
			EGDIndex: j,
			EGD:      e.set.EGDs[j],
			H:        e.materializeEGDTrigger(j, bt),
			Unified:  e.itab.Term(child),
			Rep:      e.itab.Term(rep),
			AtStep:   e.run.StepsTaken - 1,
		})
	}
	return true
}

// flushEqualities applies the pending equality merges: the instance is
// rewritten through the union-find (Instance.RewriteTerms, which rebuilds
// the instance's indexes) and the whole trigger state is rebuilt from the
// rewritten instance. The rebuild is the bulk trigger-state repair: triggers
// deactivated by the rewrite (their head image appeared by merging) are
// re-discovered and then skipped by their activity checks at pop, and triggers
// re-activated or newly formed by the rewrite enter the queue under their
// rewritten identities. Rebuilding rather than patching is sound because
// the rewriting map ρ is a homomorphism of the old instance onto the new
// one: every surviving body match is some ρ∘h, and every satisfied head
// stays satisfied via ρ of its witness.
func (e *engine) flushEqualities() {
	e.peak = max(e.peak, e.inst.Len())
	removed := e.inst.RewriteTerms(e.uf.Find)
	if !e.opts.DropSteps {
		// Every step of one batch reports the batch's rewrite total.
		for i := len(e.run.EqSteps) - e.eqSinceFlush; i < len(e.run.EqSteps); i++ {
			e.run.EqSteps[i].Removed = removed
		}
	}
	e.dirty = false
	e.eqSinceFlush = 0
	e.clearTriggers()
	e.seedAllTriggers()
}

// materializeEGDTrigger rebuilds the public substitution form of an EGD
// trigger for derivation recording and failure reporting.
func (e *engine) materializeEGDTrigger(j int, bt []uint32) logic.Substitution {
	ce := &e.ce[j]
	h := logic.NewSubstitution()
	for i, v := range ce.bodyVars {
		h[v] = e.itab.Term(logic.TermID(bt[i]))
	}
	return h
}

// newNull returns the run's next invented null: the k-th is n<k>. Each
// trigger fires at most once — it enters the queue once per trigger table,
// and a fired trigger stays satisfied across an equality flush — so one
// fresh null per (trigger, existential variable) is the paper's c^{σ,h}_x,
// named in application order. Nulls are interned in naming order, so an
// older null keeps the smaller TermID, as applyEGD's merges require.
func (e *engine) newNull() logic.TermID {
	k := e.nulls
	e.nulls++
	if k < len(e.boundNulls) {
		return e.boundNulls[k]
	}
	if k == len(e.nullTerms) {
		e.nullTerms = append(e.nullTerms, logic.NewNull("n"+strconv.Itoa(k)))
	}
	id := e.itab.InternTerm(e.nullTerms[k])
	e.boundNulls = append(e.boundNulls, id)
	return id
}

func (e *engine) apply(tgd int, bt []uint32) {
	ct := &e.ct[tgd]
	e.nullIDs = e.nullIDs[:0]
	for range ct.existVars {
		e.nullIDs = append(e.nullIDs, e.newNull())
	}
	record := !e.opts.DropSteps
	var result, added []logic.Atom
	var head int32
	e.addedIx = e.addedIx[:0]
	for k, ca := range ct.head.Atoms {
		e.argbuf = e.argbuf[:0]
		for _, a := range ca.Args {
			if int(a.Slot) < ct.nBody {
				e.argbuf = append(e.argbuf, logic.TermID(bt[a.Slot]))
			} else {
				e.argbuf = append(e.argbuf, e.nullIDs[int(a.Slot)-ct.nBody])
			}
		}
		idx, isNew := e.inst.AddTuple(ca.Pred, e.argbuf)
		if k == 0 {
			head = idx
		}
		if isNew {
			e.addedIx = append(e.addedIx, idx)
		}
		if record {
			a := e.inst.AtomAt(int(idx))
			result = append(result, a)
			if isNew {
				added = append(added, a)
			}
		}
	}
	if e.opts.Variant == SemiOblivious {
		// applicable just interned this trigger's frontier class.
		e.applied[e.lastFront] = true
	}
	e.run.StepsTaken++
	if record {
		e.run.Steps = append(e.run.Steps, Step{
			Trigger: e.materializeTrigger(tgd, bt),
			Result:  result,
			Added:   added,
		})
	}
	if e.opts.OnStep != nil {
		e.opts.OnStep(tgd, bt, head, e.inst.Len())
	}
	// Semi-naive delta: new atoms seed new triggers, exactly like the
	// public TriggersInvolving but fused with dedup-by-interning. The loop
	// ranges over the live e.addedIx scratch: discover must not reuse it
	// (it clobbers discBuf/sortBuf/ss only).
	for _, ai := range e.addedIx {
		e.discover(ai)
	}
}

// discover finds every trigger whose body uses the atom at insertion index
// ai at some body-atom position and enqueues the new ones, in the canonical
// order TriggersInvolving produces. The per-position enumeration is the
// shared delta primitive logic.SlotSearch.ForEachPinnedAtom — the same core
// the search's trigger index repairs with — pinning body atom j onto the new
// atom and ranging the remaining atoms over the whole instance (conflicting
// repeated variables rule a position out inside the pin's match).
func (e *engine) discover(ai int32) {
	pred := e.inst.AtomPredID(ai)
	for i := range e.ct {
		ct := &e.ct[i]
		e.discoverForRule(i, ct.nBody, ct.body, pred, ai)
	}
	for j := range e.ce {
		ce := &e.ce[j]
		e.discoverForRule(len(e.ct)+j, ce.nBody, ce.body, pred, ai)
	}
}

// discoverForRule runs discover's per-position pinned enumeration for one
// rule (TGD index or len(e.ct)+egdIndex) against the new atom at ai.
func (e *engine) discoverForRule(rule, nBody int, pat *logic.CPattern, pred logic.PredID, ai int32) {
	for j := range pat.Atoms {
		if pat.Atoms[j].Pred != pred {
			continue
		}
		e.discBuf = e.discBuf[:0]
		e.sortBuf = e.sortBuf[:0]
		e.ss.Reset(pat)
		e.ss.ForEachPinnedAtom(pat, e.inst, j, ai, func(bind []logic.TermID) bool {
			e.sortBuf = append(e.sortBuf, int32(len(e.discBuf)))
			e.discBuf = append(e.discBuf, uint32(rule))
			for s := 0; s < nBody; s++ {
				e.discBuf = append(e.discBuf, uint32(bind[s]))
			}
			return true
		})
		e.enqueueDiscovered(nBody)
	}
}

// materializeTrigger rebuilds the public Trigger form (map substitution
// over the body variables) for derivation recording.
func (e *engine) materializeTrigger(tgd int, bt []uint32) Trigger {
	ct := &e.ct[tgd]
	h := logic.NewSubstitution()
	for i, v := range ct.bodyVars {
		h[v] = e.itab.Term(logic.TermID(bt[i]))
	}
	return Trigger{TGDIndex: tgd, TGD: e.set.TGDs[tgd], H: h}
}
