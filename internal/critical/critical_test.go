package critical

import (
	"testing"

	"airct/internal/chase"
	"airct/internal/logic"
	"airct/internal/parser"
)

func TestInstanceShape(t *testing.T) {
	set, _ := NotCriticalWitness()
	db := Instance(set)
	// Schema is {S/1, R/2}: two all-c facts.
	if db.Len() != 2 {
		t.Fatalf("critical db = %v", db)
	}
	facts := db.Instance()
	if !facts.Has(logic.MustAtom("S", TheConstant)) {
		t.Error("S(c) missing")
	}
	if !facts.Has(logic.MustAtom("R", TheConstant, TheConstant)) {
		t.Error("R(c,c) missing")
	}
}

func TestCriticalDecidesOblivious(t *testing.T) {
	// Oblivious-terminating set: saturates on D*.
	term := parser.MustParse(`A(X) -> B(X). B(X) -> C(X).`).TGDs
	ok, _ := ObliviousTerminatesOnCritical(term, 1000)
	if !ok {
		t.Error("datalog set must saturate obliviously on D*")
	}
	// Oblivious-diverging set (the intro example) diverges on D*.
	div := parser.MustParse(`R(X,Y) -> R(X,Z).`).TGDs
	ok, _ = ObliviousTerminatesOnCritical(div, 1000)
	if ok {
		t.Error("intro TGD must diverge obliviously on D*")
	}
}

func TestCriticalFailsForRestricted(t *testing.T) {
	// The Section 1.2 observation: D* terminates restrictedly while another
	// database diverges.
	set, db := NotCriticalWitness()
	okCrit, runCrit := RestrictedTerminatesOnCritical(set, 1000)
	if !okCrit {
		t.Fatalf("restricted chase on D* must terminate, reason %v", runCrit.Reason)
	}
	if runCrit.StepsTaken != 0 {
		t.Errorf("D* already satisfies the set; %d steps taken", runCrit.StepsTaken)
	}
	run := chase.RunChase(db, set, chase.Options{Variant: chase.Restricted, MaxSteps: 500})
	if run.Terminated() {
		t.Error("the witness database must diverge under the restricted chase")
	}
}

func TestIntroExampleRestrictedOnCritical(t *testing.T) {
	// Intro example: restricted chase terminates on D* as well — and indeed
	// on every database (the TGD can never be violated by an R-fact).
	set := parser.MustParse(`R(X,Y) -> R(X,Z).`).TGDs
	ok, run := RestrictedTerminatesOnCritical(set, 100)
	if !ok || run.StepsTaken != 0 {
		t.Errorf("restricted chase on D* must stop at once: ok=%v steps=%d", ok, run.StepsTaken)
	}
}
