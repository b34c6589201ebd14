package chase

import (
	"fmt"
	"strings"
	"testing"

	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/parser"
)

// introProgram is the paper's introduction example: D = {R(a,b)} and the
// TGD R(x,y) → ∃z R(x,z).
const introProgram = `
	R(a,b).
	R(X,Y) -> R(X,Z).
`

// TestIntroExampleRestrictedTerminatesImmediately runs under budgets its
// expected run (no step, one atom) cannot reach, so an engine that wrongly
// reads the trigger as active stops at a budget and fails the test instead
// of growing the instance until the test process runs out of memory.
func TestIntroExampleRestrictedTerminatesImmediately(t *testing.T) {
	prog := parser.MustParse(introProgram)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, MaxSteps: 10, MaxAtoms: 10})
	if run.Reason != Fixpoint {
		t.Fatalf("restricted chase must terminate, reason = %v", run.Reason)
	}
	if run.StepsTaken != 0 {
		t.Errorf("restricted chase must apply no trigger, applied %d", run.StepsTaken)
	}
	if run.Final.Len() != 1 {
		t.Errorf("final instance = %v", run.Final)
	}
}

func TestIntroExampleObliviousDiverges(t *testing.T) {
	prog := parser.MustParse(introProgram)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Oblivious, MaxSteps: 500})
	if run.Terminated() {
		t.Fatal("oblivious chase must not terminate on the intro example")
	}
	if run.Reason != StepBudget {
		t.Errorf("reason = %v", run.Reason)
	}
	if run.Final.Len() < 500 {
		t.Errorf("oblivious chase should keep inventing atoms, got %d", run.Final.Len())
	}
}

func TestIntroExampleSemiObliviousTerminates(t *testing.T) {
	// The skolem chase applies one trigger per frontier class: x→a fires
	// once, and the new trigger over R(a,n) has the same frontier class.
	prog := parser.MustParse(introProgram)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: SemiOblivious, MaxSteps: 500})
	if !run.Terminated() {
		t.Fatalf("semi-oblivious chase must terminate, reason = %v", run.Reason)
	}
	if run.Final.Len() != 2 {
		t.Errorf("expected R(a,b) + one invented atom, got %v", run.Final)
	}
}

// example32 is Example 3.2/3.4 of the paper.
const example32 = `
	P(a,b).
	s1: P(X,Y) -> R(X,Y).
	s2: P(X,Y) -> S(X).
	s3: R(X,Y) -> S(X).
	s4: S(X) -> R(X,Y).
`

func TestExample32Restricted(t *testing.T) {
	prog := parser.MustParse(example32)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted})
	if !run.Terminated() {
		t.Fatal("must terminate")
	}
	want := instance.FromAtoms(
		logic.MustAtom("P", logic.Const("a"), logic.Const("b")),
		logic.MustAtom("R", logic.Const("a"), logic.Const("b")),
		logic.MustAtom("S", logic.Const("a")),
	)
	if !run.Final.Equal(want) {
		t.Errorf("restricted result = %v, want %v", run.Final, want)
	}
}

func TestExample32Oblivious(t *testing.T) {
	// The oblivious chase additionally invents R(a,c) via σ4 (Example 3.2).
	prog := parser.MustParse(example32)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Oblivious, MaxSteps: 100})
	if !run.Terminated() {
		t.Fatal("oblivious chase of Example 3.2 terminates")
	}
	if run.Final.Len() != 4 {
		t.Errorf("oblivious result should have 4 atoms, got %v", run.Final)
	}
	if run.Final.NullCount() != 1 {
		t.Errorf("exactly one invented null expected, got %d", run.Final.NullCount())
	}
}

func TestRestrictedSubsetOfOblivious(t *testing.T) {
	// With structural null naming the restricted result is a subset of the
	// oblivious result: the same trigger always invents the same null.
	progs := []string{
		example32,
		`R(a,b). S(b,c).
		 t1: S(X,Y) -> T(X).
		 t2: R(X,Y), T(Y) -> P(X,Y).
		 t3: P(X,Y) -> Q(Y).`,
	}
	for _, src := range progs {
		prog := parser.MustParse(src)
		res := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, MaxSteps: 1000})
		obl := RunChase(prog.Database, prog.TGDs, Options{Variant: Oblivious, MaxSteps: 1000})
		if !res.Terminated() || !obl.Terminated() {
			t.Fatalf("both must terminate for %q", src)
		}
		if !obl.Final.ContainsAll(res.Final) {
			t.Errorf("restricted ⊄ oblivious for %q:\nres = %v\nobl = %v",
				src, res.Final, obl.Final)
		}
	}
}

func TestTerminatedRunSatisfiesSet(t *testing.T) {
	progs := []string{
		introProgram,
		example32,
		`E(a,b). E(b,c). E(c,a).
		 E(X,Y), E(Y,Z) -> E(X,Z).`,
	}
	for _, src := range progs {
		prog := parser.MustParse(src)
		run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, MaxSteps: 10000})
		if !run.Terminated() {
			t.Fatalf("must terminate: %q", src)
		}
		if !prog.TGDs.SatisfiedBy(run.Final) {
			t.Errorf("fixpoint must satisfy the TGDs for %q", src)
		}
	}
}

func TestTransitiveClosure(t *testing.T) {
	prog := parser.MustParse(`
		E(n1,n2). E(n2,n3). E(n3,n4).
		E(X,Y), E(Y,Z) -> E(X,Z).
	`)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted})
	if !run.Terminated() {
		t.Fatal("must terminate")
	}
	// Chain of 4 nodes: closure has 3+2+1 = 6 edges.
	if run.Final.Len() != 6 {
		t.Errorf("closure size = %d, want 6: %v", run.Final.Len(), run.Final)
	}
}

func TestAtomBudget(t *testing.T) {
	prog := parser.MustParse(introProgram)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Oblivious, MaxAtoms: 50})
	if run.Reason != AtomBudget {
		t.Errorf("reason = %v, want atom-budget", run.Reason)
	}
	if run.Final.Len() < 50 {
		t.Errorf("should reach the atom budget, got %d", run.Final.Len())
	}
}

func TestStrategiesGiveHomEquivalentResults(t *testing.T) {
	// The restricted chase is order-dependent (its very point: Example 3.2
	// under LIFO fires σ4 before σ1 and keeps an extra invented atom), but
	// all terminating results are homomorphically equivalent universal
	// models.
	prog := parser.MustParse(example32)
	runs := []*Run{
		RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, Strategy: FIFO}),
		RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, Strategy: LIFO}),
		RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, Strategy: Random, Seed: 7}),
	}
	for i, r := range runs {
		if !r.Terminated() {
			t.Fatalf("run %d did not terminate", i)
		}
		if !prog.TGDs.SatisfiedBy(r.Final) {
			t.Fatalf("run %d fixpoint violates the set", i)
		}
	}
	for i := range runs {
		for j := range runs {
			if logic.FindHomomorphism(runs[i].Final.Atoms(), nil, runs[j].Final) == nil {
				t.Errorf("run %d result does not map into run %d result:\n%v\nvs\n%v",
					i, j, runs[i].Final, runs[j].Final)
			}
		}
	}
}

func TestRandomStrategyIsSeedDeterministic(t *testing.T) {
	prog := parser.MustParse(example32)
	a := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, Strategy: Random, Seed: 42})
	b := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, Strategy: Random, Seed: 42})
	if len(a.Steps) != len(b.Steps) {
		t.Fatal("same seed must give same derivation length")
	}
	for i := range a.Steps {
		if a.Steps[i].Trigger.Key() != b.Steps[i].Trigger.Key() {
			t.Fatalf("step %d differs", i)
		}
	}
}

func TestInstanceAtReplaysDerivation(t *testing.T) {
	prog := parser.MustParse(example32)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted})
	if got := run.InstanceAt(0); !got.Equal(prog.Database.Instance()) {
		t.Error("I_0 must be the database")
	}
	if got := run.InstanceAt(len(run.Steps)); !got.Equal(run.Final) {
		t.Error("I_n must be the final instance")
	}
	if got := run.InstanceAt(999); !got.Equal(run.Final) {
		t.Error("overshoot must clamp")
	}
	for i := 1; i < len(run.Steps); i++ {
		prev, cur := run.InstanceAt(i-1), run.InstanceAt(i)
		if !cur.ContainsAll(prev) {
			t.Errorf("derivation must be monotone at step %d", i)
		}
	}
}

func TestUniversalModelHomomorphism(t *testing.T) {
	// The chase result embeds homomorphically into any model (universal
	// model property) — check against a hand-built model.
	prog := parser.MustParse(`
		Emp(alice).
		Emp(X) -> WorksFor(X, M).
		WorksFor(X, M) -> Mgr(M).
	`)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, MaxSteps: 100})
	if !run.Terminated() {
		t.Fatal("must terminate (the invented manager closes both TGDs)")
	}
	model := logic.NewSliceSource([]logic.Atom{
		logic.MustAtom("Emp", logic.Const("alice")),
		logic.MustAtom("WorksFor", logic.Const("alice"), logic.Const("bob")),
		logic.MustAtom("Mgr", logic.Const("bob")),
	})
	if !prog.TGDs.SatisfiedBy(model) {
		t.Fatal("hand model must satisfy the TGDs")
	}
	if logic.FindHomomorphism(run.Final.Atoms(), nil, model) == nil {
		t.Error("chase result must map homomorphically into every model")
	}
}

// TestWidestArityKeepsPostingsApart chases a program whose first
// predicate has instance.MaxArity arguments: its last position's postings
// must not land in another predicate's posting list, so t3 stays active
// on {S(a)} and fires, both in the engine and in the ∀∃ search.
func TestWidestArityKeepsPostingsApart(t *testing.T) {
	xs := make([]string, instance.MaxArity)
	as := make([]string, instance.MaxArity)
	for i := range xs {
		xs[i], as[i] = fmt.Sprintf("X%d", i+1), "a"
	}
	wide := strings.Join(xs, ",")
	prog := parser.MustParse(fmt.Sprintf(`P(%s). S(a).
		t1: P(%s) -> P(%s).
		t2: Q(X,Y) -> Q(X,Y).
		t3: S(X) -> Q(X,Y).
		t4: Q(X,Y) -> S(Y).`, strings.Join(as, ","), wide, wide))
	run := RunChase(prog.Database, prog.TGDs, Options{MaxSteps: 20, DropSteps: true})
	if run.Reason != StepBudget {
		t.Errorf("engine stopped with %v after %d steps; t3 fires forever", run.Reason, run.StepsTaken)
	}
	res := mustSearch(t, prog.Database, prog.TGDs, SearchOptions{MaxStates: 50})
	if res.Found {
		t.Errorf("search found a %d-step finite derivation; every derivation is infinite", len(res.Derivation))
	}
}
