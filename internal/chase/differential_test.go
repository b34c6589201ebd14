package chase

import (
	"fmt"
	"math/rand"
	"testing"

	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/parser"
	"airct/internal/tgds"
)

// referenceRunChase is the pre-interning engine, kept verbatim as the
// behavioral oracle: string-keyed trigger dedup (Trigger.Key /
// frontierKey), the generic map-based homomorphism search via the public
// AllTriggers / TriggersInvolving / IsActive, a NullFactory interning null
// names by trigger-key strings, and the O(n) slice-shift queue. The
// interned engine must reproduce its runs byte for byte: same Final
// instance in the same insertion order, same Steps, same Stats, same
// StopReason.
func referenceRunChase(db *instance.Database, set *tgds.Set, opts Options) *Run {
	e := &refEngine{
		set:             set,
		opts:            opts,
		inst:            db.Instance(),
		nulls:           NewNullFactory(),
		seen:            make(map[string]struct{}),
		appliedFrontier: make(map[string]struct{}),
		run:             &Run{Options: opts, Set: set, Database: db},
	}
	if opts.Strategy == Random {
		e.rng = rand.New(rand.NewSource(opts.Seed))
	}
	for _, tr := range AllTriggers(set, e.inst) {
		e.enqueue(tr)
	}
	e.loop()
	e.run.Final = e.inst
	return e.run
}

type refEngine struct {
	set             *tgds.Set
	opts            Options
	inst            *instance.Instance
	nulls           *NullFactory
	queue           []Trigger
	seen            map[string]struct{}
	appliedFrontier map[string]struct{}
	rng             *rand.Rand
	run             *Run
}

func (e *refEngine) enqueue(tr Trigger) {
	key := tr.Key()
	if _, ok := e.seen[key]; ok {
		return
	}
	e.seen[key] = struct{}{}
	e.run.Stats.TriggersEnqueued++
	e.queue = append(e.queue, tr)
}

func (e *refEngine) pop() Trigger {
	var i int
	switch e.opts.Strategy {
	case LIFO:
		i = len(e.queue) - 1
	case Random:
		i = e.rng.Intn(len(e.queue))
	default:
		i = 0
	}
	tr := e.queue[i]
	e.queue = append(e.queue[:i], e.queue[i+1:]...)
	return tr
}

// frontierKey identifies the trigger up to its frontier bindings: the
// semi-oblivious (skolem) chase applies one trigger per frontier class.
// The engine interns frontier classes instead.
func frontierKey(tr Trigger) string {
	return fmt.Sprintf("%d|%s", tr.TGDIndex, tr.H.Restrict(tr.TGD.Frontier()).Key())
}

func (e *refEngine) applicable(tr Trigger) bool {
	switch e.opts.Variant {
	case Restricted:
		e.run.Stats.ActivityChecks++
		return IsActive(tr, e.inst)
	case SemiOblivious:
		_, done := e.appliedFrontier[frontierKey(tr)]
		return !done
	default:
		return true
	}
}

func (e *refEngine) loop() {
	for len(e.queue) > 0 {
		if e.opts.MaxSteps > 0 && e.run.StepsTaken >= e.opts.MaxSteps {
			e.run.Reason = StepBudget
			return
		}
		if e.opts.MaxAtoms > 0 && e.inst.Len() >= e.opts.MaxAtoms {
			e.run.Reason = AtomBudget
			return
		}
		tr := e.pop()
		if !e.applicable(tr) {
			e.run.Stats.TriggersSkipped++
			continue
		}
		e.apply(tr)
	}
	e.run.Reason = Fixpoint
}

func (e *refEngine) apply(tr Trigger) {
	result := Result(tr, e.nulls)
	added := make([]logic.Atom, 0, len(result))
	for _, a := range result {
		if e.inst.Add(a) {
			added = append(added, a)
		}
	}
	if e.opts.Variant == SemiOblivious {
		e.appliedFrontier[frontierKey(tr)] = struct{}{}
	}
	e.run.StepsTaken++
	if !e.opts.DropSteps {
		e.run.Steps = append(e.run.Steps, Step{Trigger: tr, Result: result, Added: added})
	}
	for _, a := range added {
		for _, nt := range TriggersInvolving(e.set, e.inst, a) {
			e.enqueue(nt)
		}
	}
}

// sameRun asserts byte-identical runs: Final atom sequence (insertion
// order, not just set equality), Steps (trigger keys, result and added atom
// sequences), Stats, StepsTaken, and StopReason.
func sameRun(t *testing.T, label string, got, want *Run) {
	t.Helper()
	if got.Reason != want.Reason {
		t.Errorf("%s: reason = %v, want %v", label, got.Reason, want.Reason)
	}
	if got.StepsTaken != want.StepsTaken {
		t.Errorf("%s: steps taken = %d, want %d", label, got.StepsTaken, want.StepsTaken)
	}
	if got.Stats != want.Stats {
		t.Errorf("%s: stats = %+v, want %+v", label, got.Stats, want.Stats)
	}
	ga, wa := got.Final.Atoms(), want.Final.Atoms()
	if len(ga) != len(wa) {
		t.Errorf("%s: final size = %d, want %d", label, len(ga), len(wa))
		return
	}
	for i := range ga {
		if !ga[i].Equal(wa[i]) {
			t.Errorf("%s: final atom %d = %v, want %v", label, i, ga[i], wa[i])
			return
		}
	}
	if len(got.Steps) != len(want.Steps) {
		t.Errorf("%s: %d steps, want %d", label, len(got.Steps), len(want.Steps))
		return
	}
	for i := range got.Steps {
		g, w := got.Steps[i], want.Steps[i]
		if g.Trigger.Key() != w.Trigger.Key() {
			t.Errorf("%s: step %d trigger = %s, want %s", label, i, g.Trigger.Key(), w.Trigger.Key())
			return
		}
		if !sameAtoms(g.Result, w.Result) || !sameAtoms(g.Added, w.Added) {
			t.Errorf("%s: step %d atoms differ:\n got %v / %v\nwant %v / %v",
				label, i, g.Result, g.Added, w.Result, w.Added)
			return
		}
	}
}

func sameAtoms(a, b []logic.Atom) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// differentialPrograms are the workloads the interned engine is pinned on:
// the paper's examples, joins with repeated variables, multi-head TGDs,
// multiple existentials per head, and diverging programs cut by budgets.
func differentialPrograms() map[string]string {
	return map[string]string{
		"intro":     introProgram,
		"example32": example32,
		"closure": `
			E(n1,n2). E(n2,n3). E(n3,n4). E(n4,n1).
			E(X,Y), E(Y,Z) -> E(X,Z).`,
		"exchange": `
			R(a,b). S(b,c). R(b,a).
			t1: S(X,Y) -> T(X).
			t2: R(X,Y), T(Y) -> P(X,Y).
			t3: P(X,Y) -> Q(Y).
			t4: Q(X) -> P(X,W).`,
		"multihead": `
			R(a,b,b).
			mh1: R(X,Y,Y) -> R(X,Z,Y), R(Z,Y,Y).
			mh2: R(X,Y,Z) -> R(Z,Z,Z).`,
		"twoexist": `
			A(a). A(b).
			s1: A(X) -> R(X,Y,Z).
			s2: R(X,Y,Z) -> B(Y).
			s3: B(X) -> A(X).`,
		"diverging-ladder": `
			G1(a,b). S(a).
			r1: G1(X,Y), S(X) -> G2(Y,Z).
			t1: G1(X,Y) -> S(Y).
			r2: G2(X,Y), S(X) -> G1(Y,Z).
			t2: G2(X,Y) -> S(Y).`,
		"selfjoin": `
			E(a,a). E(a,b). E(b,a).
			s1: E(X,X) -> F(X).
			s2: E(X,Y), E(Y,X) -> E(X,X).
			s3: F(X) -> E(X,W).`,
	}
}

// TestDifferentialEngineMatchesReference pins the interned engine against
// the string-keyed reference across every variant × strategy × program,
// with and without step recording (DropSteps runs chase a lite instance).
func TestDifferentialEngineMatchesReference(t *testing.T) {
	for name, src := range differentialPrograms() {
		prog := parser.MustParse(src)
		for _, variant := range []Variant{Restricted, Oblivious, SemiOblivious} {
			for _, strat := range []Strategy{FIFO, LIFO, Random} {
				for _, drop := range []bool{false, true} {
					opts := Options{
						Variant:   variant,
						Strategy:  strat,
						Seed:      17,
						MaxSteps:  300,
						MaxAtoms:  400,
						DropSteps: drop,
					}
					label := fmt.Sprintf("%s/%v/%v/drop=%v", name, variant, strat, drop)
					got := RunChase(prog.Database, prog.TGDs, opts)
					want := referenceRunChase(prog.Database, prog.TGDs, opts)
					sameRun(t, label, got, want)
				}
			}
		}
	}
}

// TestDifferentialQuickRandomPrograms fuzzes the equivalence on random
// datalog programs plus an existential rule, FIFO and Random strategies,
// with and without step recording. A datalog rule and a fact can satisfy
// the existential rule's head, so restricted runs must decide existential
// activity both ways: on at least one seed a run pops an existential
// trigger that is no longer active.
func TestDifferentialQuickRandomPrograms(t *testing.T) {
	inactive := 0
	for seed := int64(0); seed < 40; seed++ {
		prog := randomDatalog(seed)
		src := parser.Print(prog) + "\nFresh(b, cc).\nP1(X, Y) -> Fresh(X, Y).\nfresh: P0(X) -> Fresh(X, W).\n"
		p2, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fresh := len(p2.TGDs.TGDs) - 1
		for _, variant := range []Variant{Restricted, Oblivious, SemiOblivious} {
			for _, strat := range []Strategy{FIFO, Random} {
				for _, drop := range []bool{false, true} {
					opts := Options{
						Variant:   variant,
						Strategy:  strat,
						Seed:      seed,
						MaxSteps:  400,
						MaxAtoms:  500,
						DropSteps: drop,
					}
					label := fmt.Sprintf("seed%d/%v/%v/drop=%v", seed, variant, strat, drop)
					got := RunChase(p2.Database, p2.TGDs, opts)
					want := referenceRunChase(p2.Database, p2.TGDs, opts)
					sameRun(t, label, got, want)
					if variant == Restricted && !drop && got.Reason == Fixpoint {
						inactive += skippedTriggers(got, fresh)
					}
				}
			}
		}
	}
	if inactive == 0 {
		t.Error("no restricted run popped an inactive existential trigger: the fuzzed programs never check existential activity")
	}
}

// skippedTriggers counts the triggers of TGD k that a recorded run ending
// at its fixpoint popped and did not apply. Such a run enqueued every
// trigger of its final instance once and popped it once, so the triggers
// of k not among its steps are the ones it found inactive.
func skippedTriggers(run *Run, k int) int {
	n := 0
	for _, tr := range AllTriggers(run.Set, run.Final) {
		if tr.TGDIndex == k {
			n++
		}
	}
	for _, st := range run.Steps {
		if st.Trigger.TGDIndex == k {
			n--
		}
	}
	return n
}
