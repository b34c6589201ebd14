package chase

import (
	"fmt"
	"testing"

	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/parser"
	"airct/internal/tgds"
)

// referenceEGDRunChase is the naive, string-keyed oracle for the restricted
// chase with EGDs: triggers dedup by substitution-key strings, equality
// classes live in a map-based union-find over logic.Term values (no
// TermIDs), and an equality flush rebuilds a fresh Instance by re-adding
// every atom through the class map in insertion order. It mirrors the
// interned engine's discipline — FIFO, canonical per-rule enumeration
// order, lazy flush (equality steps batch until a TGD trigger or queue
// drain forces the rewrite), full queue rebuild after a flush — so runs
// are comparable step for step, but none of the engine's interning,
// delta-activity, or in-place rewriting machinery is shared.
func referenceEGDRunChase(db *instance.Database, set *tgds.Set, opts Options) *Run {
	e := &refEqEngine{
		set:     set,
		opts:    opts,
		inst:    db.Instance(),
		nulls:   NewNullFactory(),
		seen:    make(map[string]struct{}),
		parent:  make(map[logic.Term]logic.Term),
		nullSeq: make(map[logic.Term]int),
		run:     &Run{Options: opts, Set: set, Database: db},
	}
	e.seedAll()
	e.loop()
	e.run.Final = e.inst
	return e.run
}

type refEqTrig struct {
	isEGD bool
	idx   int
	h     logic.Substitution // body-variable bindings (both kinds)
}

func (t refEqTrig) key() string {
	if t.isEGD {
		return fmt.Sprintf("e%d|%s", t.idx, t.h.Key())
	}
	return fmt.Sprintf("%d|%s", t.idx, t.h.Key())
}

type refEqEngine struct {
	set          *tgds.Set
	opts         Options
	inst         *instance.Instance
	nulls        *NullFactory
	queue        []refEqTrig
	seen         map[string]struct{}
	parent       map[logic.Term]logic.Term
	nullSeq      map[logic.Term]int // creation order of invented nulls
	nextSeq      int
	dirty        bool
	eqSinceFlush int
	run          *Run
}

func (e *refEqEngine) find(t logic.Term) logic.Term {
	for {
		p, ok := e.parent[t]
		if !ok {
			return t
		}
		t = p
	}
}

func (e *refEqEngine) enqueue(t refEqTrig) {
	k := t.key()
	if _, ok := e.seen[k]; ok {
		return
	}
	e.seen[k] = struct{}{}
	e.queue = append(e.queue, t)
}

// seedAll enumerates every trigger on the current instance in the engine's
// canonical order: TGDs in rule order (sorted homomorphisms each), then
// EGDs likewise.
func (e *refEqEngine) seedAll() {
	for i, t := range e.set.TGDs {
		homs := logic.AllHomomorphisms(t.Body, nil, e.inst)
		logic.SortSubstitutions(homs)
		for _, h := range homs {
			e.enqueue(refEqTrig{idx: i, h: h.Restrict(t.BodyVars())})
		}
	}
	for j, eg := range e.set.EGDs {
		homs := logic.AllHomomorphisms(eg.Body, nil, e.inst)
		logic.SortSubstitutions(homs)
		for _, h := range homs {
			e.enqueue(refEqTrig{isEGD: true, idx: j, h: h.Restrict(eg.BodyVars())})
		}
	}
}

// discover mirrors the engine's semi-naive delta: per rule (TGDs then
// EGDs), per body position matching the new atom's predicate, sorted
// pinned homomorphisms.
func (e *refEqEngine) discover(atom logic.Atom) {
	for i, t := range e.set.TGDs {
		for _, tr := range pinnedHoms(t.Body, atom, e.inst) {
			e.enqueue(refEqTrig{idx: i, h: tr.Restrict(t.BodyVars())})
		}
	}
	for j, eg := range e.set.EGDs {
		for _, tr := range pinnedHoms(eg.Body, atom, e.inst) {
			e.enqueue(refEqTrig{isEGD: true, idx: j, h: tr.Restrict(eg.BodyVars())})
		}
	}
}

// pinnedHoms enumerates homomorphisms of the body that use atom at some
// body position, per position in sorted order (TriggersInvolving's order).
func pinnedHoms(body []logic.Atom, atom logic.Atom, src logic.AtomSource) []logic.Substitution {
	var out []logic.Substitution
	for j, bodyAtom := range body {
		if bodyAtom.Pred != atom.Pred {
			continue
		}
		base := logic.NewSubstitution()
		ok := true
		for k, v := range bodyAtom.Args {
			if bound, has := base[v]; has {
				if bound != atom.Args[k] {
					ok = false
					break
				}
				continue
			}
			base.Bind(v, atom.Args[k])
		}
		if !ok {
			continue
		}
		rest := make([]logic.Atom, 0, len(body)-1)
		rest = append(rest, body[:j]...)
		rest = append(rest, body[j+1:]...)
		homs := logic.AllHomomorphisms(rest, base, src)
		logic.SortSubstitutions(homs)
		out = append(out, homs...)
	}
	return out
}

func (e *refEqEngine) loop() {
	for {
		if e.dirty && len(e.queue) == 0 {
			e.flush()
		}
		if len(e.queue) == 0 {
			break
		}
		if e.opts.MaxSteps > 0 && e.run.StepsTaken >= e.opts.MaxSteps {
			e.stopWith(StepBudget)
			return
		}
		if e.opts.MaxAtoms > 0 && e.inst.Len() >= e.opts.MaxAtoms {
			e.stopWith(AtomBudget)
			return
		}
		tr := e.queue[0]
		e.queue = e.queue[1:]
		if tr.isEGD {
			eg := e.set.EGDs[tr.idx]
			x := e.find(tr.h.ApplyTerm(eg.X))
			y := e.find(tr.h.ApplyTerm(eg.Y))
			if x == y {
				continue
			}
			if !e.applyEGD(tr.idx, tr.h, x, y) {
				e.stopWith(EGDFailure)
				return
			}
			continue
		}
		if e.dirty {
			e.flush()
			continue
		}
		t := e.set.TGDs[tr.idx]
		trig := Trigger{TGDIndex: tr.idx, TGD: t, H: tr.h}
		if !IsActive(trig, e.inst) {
			continue
		}
		e.apply(trig)
	}
	e.run.Reason = Fixpoint
}

func (e *refEqEngine) stopWith(r StopReason) {
	if e.dirty {
		e.flush()
	}
	e.run.Reason = r
}

func (e *refEqEngine) applyEGD(j int, h logic.Substitution, x, y logic.Term) bool {
	var child, rep logic.Term
	switch {
	case !x.IsNull() && !y.IsNull():
		e.run.Conflict = &EGDConflict{EGD: e.set.EGDs[j], H: h, X: x, Y: y}
		return false
	case x.IsNull() && !y.IsNull():
		child, rep = x, y
	case !x.IsNull() && y.IsNull():
		child, rep = y, x
	default:
		if e.nullSeq[x] < e.nullSeq[y] {
			child, rep = y, x
		} else {
			child, rep = x, y
		}
	}
	e.parent[child] = rep
	e.dirty = true
	e.eqSinceFlush++
	e.run.StepsTaken++
	e.run.EqualitySteps++
	if !e.opts.DropSteps {
		e.run.EqSteps = append(e.run.EqSteps, EqStep{
			EGDIndex: j,
			EGD:      e.set.EGDs[j],
			H:        h,
			Unified:  child,
			Rep:      rep,
			AtStep:   e.run.StepsTaken - 1,
		})
	}
	return true
}

func (e *refEqEngine) flush() {
	old := e.inst.Atoms()
	fresh := instance.New()
	for _, a := range old {
		args := make([]logic.Term, len(a.Args))
		for i, t := range a.Args {
			args[i] = e.find(t)
		}
		fresh.Add(logic.Atom{Pred: a.Pred, Args: args})
	}
	removed := len(old) - fresh.Len()
	if !e.opts.DropSteps {
		for i := len(e.run.EqSteps) - e.eqSinceFlush; i < len(e.run.EqSteps); i++ {
			e.run.EqSteps[i].Removed = removed
		}
	}
	e.inst = fresh
	e.dirty = false
	e.eqSinceFlush = 0
	e.queue = e.queue[:0]
	e.seen = make(map[string]struct{})
	e.seedAll()
}

func (e *refEqEngine) apply(tr Trigger) {
	result := e.refResult(tr)
	var added []logic.Atom
	for _, a := range result {
		if e.inst.Add(a) {
			added = append(added, a)
		}
	}
	e.run.StepsTaken++
	if !e.opts.DropSteps {
		e.run.Steps = append(e.run.Steps, Step{Trigger: tr, Result: result, Added: added})
	}
	for _, a := range added {
		e.discover(a)
	}
}

// refResult is Result with null creation-order tracking (the reference's
// stand-in for "older TermID wins").
func (e *refEqEngine) refResult(tr Trigger) []logic.Atom {
	out := Result(tr, e.nulls)
	for _, a := range out {
		for _, t := range a.Args {
			if t.IsNull() {
				if _, ok := e.nullSeq[t]; !ok {
					e.nullSeq[t] = e.nextSeq
					e.nextSeq++
				}
			}
		}
	}
	return out
}

// sameEGDRun compares the interned engine's run against the EGD oracle:
// stop reason, step counts, the equality-step sequence (EGD index, merged
// pair orientation, per-batch removal totals), the conflict, and the final
// instance atom for atom in insertion order.
func sameEGDRun(t *testing.T, label string, got, want *Run) {
	t.Helper()
	if got.Reason != want.Reason {
		t.Errorf("%s: reason = %v, want %v", label, got.Reason, want.Reason)
		return
	}
	if got.StepsTaken != want.StepsTaken || got.EqualitySteps != want.EqualitySteps {
		t.Errorf("%s: steps = %d/%d eq, want %d/%d", label,
			got.StepsTaken, got.EqualitySteps, want.StepsTaken, want.EqualitySteps)
	}
	if len(got.EqSteps) != len(want.EqSteps) {
		t.Errorf("%s: %d equality steps recorded, want %d", label, len(got.EqSteps), len(want.EqSteps))
		return
	}
	for i := range got.EqSteps {
		g, w := got.EqSteps[i], want.EqSteps[i]
		if g.EGDIndex != w.EGDIndex || g.Unified != w.Unified || g.Rep != w.Rep ||
			g.Removed != w.Removed || g.AtStep != w.AtStep {
			t.Errorf("%s: eq step %d = (%d, %v<-%v, removed %d, at %d), want (%d, %v<-%v, removed %d, at %d)",
				label, i, g.EGDIndex, g.Rep, g.Unified, g.Removed, g.AtStep,
				w.EGDIndex, w.Rep, w.Unified, w.Removed, w.AtStep)
			return
		}
	}
	if (got.Conflict == nil) != (want.Conflict == nil) {
		t.Errorf("%s: conflict %v, want %v", label, got.Conflict, want.Conflict)
	} else if got.Conflict != nil &&
		(got.Conflict.X != want.Conflict.X || got.Conflict.Y != want.Conflict.Y ||
			got.Conflict.EGD.Label != want.Conflict.EGD.Label) {
		t.Errorf("%s: conflict %v, want %v", label, got.Conflict, want.Conflict)
	}
	ga, wa := got.Final.Atoms(), want.Final.Atoms()
	if len(ga) != len(wa) {
		t.Errorf("%s: final size = %d, want %d\n got %v\nwant %v", label, len(ga), len(wa), got.Final, want.Final)
		return
	}
	for i := range ga {
		if !ga[i].Equal(wa[i]) {
			t.Errorf("%s: final atom %d = %v, want %v", label, i, ga[i], wa[i])
			return
		}
	}
}

// egdDifferentialPrograms are the fixed workloads for the EGD oracle pin.
func egdDifferentialPrograms() map[string]string {
	return map[string]string{
		"key-unify":  keyUnifyProgram,
		"merge-join": mergeJoinProgram,
		"fail": `
			R(a,b). R(a,c).
			key: R(X,Y), R(X,Z) -> Y = Z.`,
		"three-nulls": `
			P(a).
			P(X) -> R(X,U), R(X,V), R(X,W).
			key: R(X,Y), R(X,Z) -> Y = Z.`,
		"chain": `
			A(a). B(a). C(a).
			A(X) -> F(X,W).
			B(X) -> G(X,W).
			C(X) -> H(X,W).
			e1: F(X,Y), G(X,Z) -> Y = Z.
			e2: G(X,Y), H(X,Z) -> Y = Z.
			F(X,Y), H(X,Y) -> Agree(X).`,
		"egd-then-diverge": `
			R(a,b). L(a).
			L(X) -> R(X,W).
			key: R(X,Y), R(X,Z) -> Y = Z.
			R(X,Y) -> R(Y,Z).`,
	}
}

// TestEGDDifferentialFixedPrograms pins the interned union-find engine
// against the naive oracle on handcrafted TGD+EGD programs, with and
// without step recording.
func TestEGDDifferentialFixedPrograms(t *testing.T) {
	for name, src := range egdDifferentialPrograms() {
		prog := parser.MustParse(src)
		for _, drop := range []bool{false, true} {
			opts := Options{Variant: Restricted, MaxSteps: 200, MaxAtoms: 300, DropSteps: drop}
			got := RunChase(prog.Database, prog.TGDs, opts)
			want := referenceEGDRunChase(prog.Database, prog.TGDs, opts)
			sameEGDRun(t, fmt.Sprintf("%s/drop=%v", name, drop), got, want)
		}
	}
}

// TestEGDDifferentialRandomPrograms fuzzes the oracle equivalence: random
// datalog programs extended with two existential rules feeding distinct
// predicates, an EGD joining their inventions (null-null merges), a key
// EGD over a base binary predicate (possible constant-constant failures),
// and a rule only enabled by a merge. Each program runs with and without
// step recording.
func TestEGDDifferentialRandomPrograms(t *testing.T) {
	egdSuffix := `
		P0(X) -> F(X,W).
		P1(X,Y) -> G(X,W).
		e1: F(X,Y), G(X,Z) -> Y = Z.
		e2: P1(X,Y), P1(X,Z) -> Y = Z.
		F(X,Y), G(Z,Y) -> H(X,Z).
	`
	for seed := int64(0); seed < 60; seed++ {
		prog := randomDatalog(seed)
		src := parser.Print(prog) + egdSuffix
		p2, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, drop := range []bool{false, true} {
			opts := Options{Variant: Restricted, MaxSteps: 400, MaxAtoms: 500, DropSteps: drop}
			got := RunChase(p2.Database, p2.TGDs, opts)
			want := referenceEGDRunChase(p2.Database, p2.TGDs, opts)
			sameEGDRun(t, fmt.Sprintf("seed%d/drop=%v", seed, drop), got, want)
		}
	}
}
