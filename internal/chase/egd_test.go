package chase

import (
	"strings"
	"testing"

	"airct/internal/logic"
	"airct/internal/parser"
)

// keyUnifyProgram invents a null at a key position and then forces it equal
// to the constant already stored there: S(a) fires T(a,n1), T propagates to
// R(a,n1), and the key EGD on R merges n1 into b.
const keyUnifyProgram = `
	R(a,b).
	S(a).
	S(X) -> T(X,Y).
	T(X,Y) -> R(X,Y).
	key: R(X,Y), R(X,Z) -> Y = Z.
`

func TestEGDKeyUnifiesNullWithConstant(t *testing.T) {
	prog := parser.MustParse(keyUnifyProgram)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, MaxSteps: 500})
	if !run.Terminated() {
		t.Fatalf("reason = %v", run.Reason)
	}
	if run.EqualitySteps == 0 {
		t.Fatal("expected at least one equality step")
	}
	if n := run.Final.NullCount(); n != 0 {
		t.Errorf("null should be absorbed by the constant, %d nulls left in %v", n, run.Final)
	}
	// R(a,n1) merged into R(a,b); T(a,n1) rewrote to T(a,b).
	want := []string{"R(a,b)", "S(a)", "T(a,b)"}
	if run.Final.Len() != len(want) {
		t.Fatalf("final = %v", run.Final)
	}
	for _, w := range want {
		if !strings.Contains(run.Final.String(), w) {
			t.Errorf("final %v is missing %s", run.Final, w)
		}
	}
	if len(run.EqSteps) == 0 {
		t.Fatal("EqSteps not recorded")
	}
	if run.EqSteps[0].Removed != 1 {
		t.Errorf("merging R(a,n1) into R(a,b) removes 1 atom, got %d", run.EqSteps[0].Removed)
	}
}

func TestEGDFailureOnDistinctConstants(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b). R(a,c).
		key: R(X,Y), R(X,Z) -> Y = Z.
	`)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, MaxSteps: 500})
	if !run.Failed() || run.Reason != EGDFailure {
		t.Fatalf("want EGDFailure, got %v", run.Reason)
	}
	if run.Terminated() {
		t.Error("a failing chase is not a terminating one at Run level")
	}
	if run.Conflict == nil {
		t.Fatal("Conflict not recorded")
	}
	s := run.Conflict.String()
	if !strings.Contains(s, "b") || !strings.Contains(s, "c") {
		t.Errorf("conflict should name both constants: %s", s)
	}
}

// mergeJoinProgram is the "equality re-activates a trigger" shape: before
// the equality step E(a,n1) and F(a,n2) share no join term, so the Win rule
// has no trigger; merging n1 = n2 creates the body match, and the
// post-rewrite rebuild must discover and fire it.
const mergeJoinProgram = `
	S(a). T(a).
	S(X) -> E(X,Y).
	T(X) -> F(X,Z).
	eq: E(X,Y), F(X,Z) -> Y = Z.
	E(X,Y), F(W,Y) -> Win(X,W).
`

func TestEGDMergeCreatesNewTGDTrigger(t *testing.T) {
	prog := parser.MustParse(mergeJoinProgram)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, MaxSteps: 500})
	if !run.Terminated() {
		t.Fatalf("reason = %v", run.Reason)
	}
	if run.EqualitySteps != 1 {
		t.Errorf("EqualitySteps = %d, want 1", run.EqualitySteps)
	}
	if !strings.Contains(run.Final.String(), "Win(a,a)") {
		t.Errorf("merge must enable the Win trigger; final = %v", run.Final)
	}
	if n := run.Final.NullCount(); n != 1 {
		t.Errorf("the two invented nulls merge into one, got %d in %v", n, run.Final)
	}
}

func TestEGDMergesManyNullsIntoOne(t *testing.T) {
	prog := parser.MustParse(`
		P(a).
		P(X) -> R(X,U), R(X,V), R(X,W).
		key: R(X,Y), R(X,Z) -> Y = Z.
	`)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, MaxSteps: 500})
	if !run.Terminated() {
		t.Fatalf("reason = %v", run.Reason)
	}
	if run.Final.Len() != 2 {
		t.Errorf("want P(a) and one R atom, got %v", run.Final)
	}
	if run.EqualitySteps != 2 {
		t.Errorf("three nulls merge in two equality steps, got %d", run.EqualitySteps)
	}
	if n := run.Final.NullCount(); n != 1 {
		t.Errorf("NullCount = %d, want 1", n)
	}
}

// TestEGDRepresentativeIsOlderNull pins the merge orientation: between two
// nulls the younger (larger TermID, interned later) is absorbed by the
// older.
func TestEGDRepresentativeIsOlderNull(t *testing.T) {
	prog := parser.MustParse(mergeJoinProgram)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, MaxSteps: 500})
	if len(run.EqSteps) != 1 {
		t.Fatalf("EqSteps = %v", run.EqSteps)
	}
	st := run.EqSteps[0]
	if !st.Unified.IsNull() || !st.Rep.IsNull() {
		t.Fatalf("null-null merge expected, got %v <- %v", st.Rep, st.Unified)
	}
	// S(X) -> E(X,Y) fires first (rule order), so E's null is older.
	if st.Rep.Name != "n0" || st.Unified.Name != "n1" {
		t.Errorf("older null must absorb younger: rep=%v unified=%v", st.Rep, st.Unified)
	}
}

func TestEGDStepsCountAgainstBudget(t *testing.T) {
	prog := parser.MustParse(keyUnifyProgram)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, MaxSteps: 2})
	// Two TGD steps exhaust the budget before the equality step runs.
	if run.Reason != StepBudget {
		t.Fatalf("reason = %v", run.Reason)
	}
	if run.StepsTaken != 2 {
		t.Errorf("StepsTaken = %d", run.StepsTaken)
	}
}

func TestEGDRequiresRestrictedVariant(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b).
		key: R(X,Y), R(X,Z) -> Y = Z.
	`)
	defer func() {
		if recover() == nil {
			t.Fatal("oblivious chase with EGDs must panic")
		}
	}()
	RunChase(prog.Database, prog.TGDs, Options{Variant: Oblivious})
}

// TestEGDTriviallySatisfiedIsNoOp: an EGD whose only matches bind X and Y
// to the same term applies no equality step.
func TestEGDTriviallySatisfiedIsNoOp(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b).
		key: R(X,Y), R(X,Z) -> Y = Z.
	`)
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted})
	if !run.Terminated() || run.EqualitySteps != 0 || run.Final.Len() != 1 {
		t.Fatalf("reason=%v eq=%d final=%v", run.Reason, run.EqualitySteps, run.Final)
	}
}

// TestEGDDeterministic pins that two runs of a merging program produce
// identical instances and step sequences (the conformance matrix's
// bit-identity columns build on this).
func TestEGDDeterministic(t *testing.T) {
	render := func() (string, int, logic.Fingerprint) {
		prog := parser.MustParse(mergeJoinProgram)
		run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, MaxSteps: 500})
		return run.Final.String(), run.StepsTaken, logic.FingerprintAtoms(run.Final.Atoms())
	}
	s1, n1, f1 := render()
	s2, n2, f2 := render()
	if s1 != s2 || n1 != n2 || f1 != f2 {
		t.Errorf("nondeterministic EGD run:\n%s (%d, %v)\n%s (%d, %v)", s1, n1, f1, s2, n2, f2)
	}
}

// TestEGDFingerprintMatchesRebuild pins the rewrite's rebuild: after
// equality rewriting, the instance equals one freshly built from the final
// atoms, and its identity tuples hash to that instance's fingerprint.
func TestEGDFingerprintMatchesRebuild(t *testing.T) {
	for _, src := range []string{keyUnifyProgram, mergeJoinProgram} {
		prog := parser.MustParse(src)
		run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, MaxSteps: 500})
		if !run.Terminated() {
			t.Fatalf("reason = %v", run.Reason)
		}
		fresh := run.Final.Clone()
		if !run.Final.Equal(fresh) {
			t.Errorf("instance after rewrite %v != rebuilt %v", run.Final, fresh)
		}
		if got, want := tupleFingerprint(run.Final), logic.FingerprintAtoms(fresh.Atoms()); got != want {
			t.Errorf("fingerprint after rewrite %v != rebuilt %v", got, want)
		}
	}
}
