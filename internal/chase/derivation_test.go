package chase

import (
	"testing"

	"airct/internal/logic"
	"airct/internal/parser"
)

func TestDerivationManualSteps(t *testing.T) {
	prog := parser.MustParse(`
		P(a,b).
		s1: P(X,Y) -> R(X,Y).
		s2: P(X,Y) -> S(X).
	`)
	d := NewDerivation(prog.Database, prog.TGDs)
	if len(d.Active()) == 0 {
		t.Fatal("both TGDs are violated initially")
	}
	active := d.Active()
	if len(active) != 2 {
		t.Fatalf("active = %d", len(active))
	}
	if err := d.Apply(active[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(active[1]); err != nil {
		t.Fatal(err)
	}
	if len(d.Active()) > 0 {
		t.Error("fixpoint expected after both applications")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	// Re-applying a now-inactive trigger errors.
	if err := d.Apply(active[0]); err == nil {
		t.Error("applying a non-active trigger must error")
	}
}

func TestDerivationRejectsForeignTrigger(t *testing.T) {
	prog := parser.MustParse(`
		S(a).
		s1: S(X) -> R(X,Y).
	`)
	d := NewDerivation(prog.Database, prog.TGDs)
	// A trigger whose body image is not in the instance.
	bogus := NewTrigger(0, prog.TGDs.TGDs[0],
		logic.NewSubstitution().Bind(prog.TGDs.TGDs[0].Body[0].Args[0], logic.Const("zz")))
	if err := d.Apply(bogus); err == nil {
		t.Error("foreign trigger must be rejected")
	}
}

// exampleB1 is Example B.1: the multi-head counterexample to the Fairness
// Theorem. R(x,y,y) → ∃z (R(x,z,y) ∧ R(z,y,y)); R(x,y,z) → R(z,z,z).
const exampleB1 = `
	R(a,b,b).
	mh1: R(X,Y,Y) -> R(X,Z,Y), R(Z,Y,Y).
	mh2: R(X,Y,Z) -> R(Z,Z,Z).
`

func TestExampleB1UnfairInfiniteDerivation(t *testing.T) {
	// Applying only mh1 forever is an infinite (unfair) derivation: each
	// application of mh1 to R(t,b,b) invents R(t,z,b) and R(z,b,b), and the
	// new R(z,b,b) again violates mh1 because R(b,b,b) never appears.
	prog := parser.MustParse(exampleB1)
	d := NewDerivation(prog.Database, prog.TGDs)
	for i := 0; i < 30; i++ {
		var mh1 *Trigger
		for _, tr := range d.Active() {
			if tr.TGD.Label == "mh1" {
				trc := tr
				mh1 = &trc
				break
			}
		}
		if mh1 == nil {
			t.Fatalf("step %d: mh1 must stay applicable forever", i)
		}
		if err := d.Apply(*mh1); err != nil {
			t.Fatal(err)
		}
	}
	// The derivation is unfair: mh2's trigger on R(a,b,b) stayed active.
	if d.IsFairAtHorizon() {
		t.Error("the mh1-only derivation must be unfair")
	}
}

func TestExampleB1FairDerivationsTerminate(t *testing.T) {
	// Every *fair* derivation of Example B.1 is finite: once R(b,b,b) is
	// derived (mh2), mh1 deactivates everywhere. The FIFO engine is fair.
	prog := parser.MustParse(exampleB1)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, Strategy: FIFO, MaxSteps: 10000})
	if !run.Terminated() {
		t.Fatalf("fair (FIFO) restricted chase of Example B.1 must terminate, reason %v", run.Reason)
	}
	if !prog.TGDs.SatisfiedBy(run.Final) {
		t.Error("fixpoint must satisfy the set")
	}
	// Random fair-ish strategies terminate as well.
	for seed := int64(0); seed < 5; seed++ {
		r := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, Strategy: Random, Seed: seed, MaxSteps: 10000})
		if !r.Terminated() {
			t.Errorf("seed %d: expected termination", seed)
		}
	}
}

func TestIsFairAtHorizonOnFixpoint(t *testing.T) {
	prog := parser.MustParse(`
		P(a,b).
		s1: P(X,Y) -> R(X,Y).
	`)
	d := NewDerivation(prog.Database, prog.TGDs)
	for len(d.Active()) > 0 {
		if err := d.Apply(d.Active()[0]); err != nil {
			t.Fatal(err)
		}
	}
	if !d.IsFairAtHorizon() {
		t.Error("a fixpoint derivation is trivially fair")
	}
}
