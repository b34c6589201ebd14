package chase

import (
	"sort"
	"strings"
	"testing"

	"airct/internal/logic"
	"airct/internal/parser"
)

func TestAllTriggersAndActiveTriggers(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b). R(b,c). S(a).
		s1: R(X,Y) -> S(X).
	`)
	inst := prog.Database.Instance()
	all := AllTriggers(prog.TGDs, inst)
	if len(all) != 2 {
		t.Fatalf("AllTriggers = %d, want 2", len(all))
	}
	active := ActiveTriggers(prog.TGDs, inst)
	// S(a) already present, so only the R(b,c) trigger is active.
	if len(active) != 1 {
		t.Fatalf("ActiveTriggers = %d, want 1: %s", len(active), formatTriggers(active))
	}
	if got := active[0].H.ApplyTerm(active[0].TGD.Body[0].Args[0]); got != logic.Const("b") {
		t.Errorf("active trigger binds X to %v, want b", got)
	}
}

func TestTriggerKeys(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b).
		s1: R(X,Y) -> T(X,Z).
	`)
	inst := prog.Database.Instance()
	trs := AllTriggers(prog.TGDs, inst)
	if len(trs) != 1 {
		t.Fatal("one trigger expected")
	}
	tr := trs[0]
	if tr.Key() == frontierKey(tr) {
		t.Error("frontier key must drop the non-frontier binding of Y")
	}
	if !strings.HasPrefix(tr.Key(), "0|") {
		t.Errorf("Key = %q", tr.Key())
	}
	if tr.String() == "" {
		t.Error("String must render")
	}
}

func TestFrontierKeyIdentifiesFrontierClass(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b). R(a,c).
		s1: R(X,Y) -> S(X,Z).
	`)
	inst := prog.Database.Instance()
	trs := AllTriggers(prog.TGDs, inst)
	if len(trs) != 2 {
		t.Fatal("two triggers expected")
	}
	if trs[0].Key() == trs[1].Key() {
		t.Error("full keys must differ")
	}
	// Only X is frontier; both triggers bind X to a.
	if frontierKey(trs[0]) != frontierKey(trs[1]) {
		t.Error("frontier keys must coincide")
	}
}

// formatTriggers renders triggers one per line, sorted, for failure
// messages.
func formatTriggers(trs []Trigger) string {
	lines := make([]string, len(trs))
	for i, tr := range trs {
		lines[i] = tr.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestResultInventsSharedNulls(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b).
		s1: R(X,Y) -> T(X,Z,Z).
	`)
	inst := prog.Database.Instance()
	tr := AllTriggers(prog.TGDs, inst)[0]
	atoms := Result(tr, NewNullFactory())
	if len(atoms) != 1 {
		t.Fatal("single-head result")
	}
	a := atoms[0]
	if a.Args[0] != logic.Const("a") {
		t.Errorf("frontier must be propagated: %v", a)
	}
	if !a.Args[1].IsNull() || a.Args[1] != a.Args[2] {
		t.Errorf("the two occurrences of Z must be the same null: %v", a)
	}
}

func TestStructuralNamingIsStable(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b).
		s1: R(X,Y) -> T(X,Z).
	`)
	inst := prog.Database.Instance()
	tr := AllTriggers(prog.TGDs, inst)[0]
	f := NewNullFactory()
	a1 := Result(tr, f)[0]
	a2 := Result(tr, f)[0]
	if !a1.Equal(a2) {
		t.Error("same trigger must produce the same atom under structural naming")
	}
}

func TestMultiHeadResultSharesNullAssignment(t *testing.T) {
	// Example B.1's first TGD: R(x,y,y) → ∃z R(x,z,y), R(z,y,y).
	prog := parser.MustParse(`
		R(a,b,b).
		mh: R(X,Y,Y) -> R(X,Z,Y), R(Z,Y,Y).
	`)
	inst := prog.Database.Instance()
	trs := AllTriggers(prog.TGDs, inst)
	if len(trs) != 1 {
		t.Fatalf("triggers = %d", len(trs))
	}
	atoms := Result(trs[0], NewNullFactory())
	if len(atoms) != 2 {
		t.Fatal("two head atoms")
	}
	// The invented z must be the same null in both atoms.
	if atoms[0].Args[1] != atoms[1].Args[0] {
		t.Errorf("z differs across head atoms: %v vs %v", atoms[0], atoms[1])
	}
}

func TestIsActive(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b).
		s1: R(X,Y) -> R(X,Z).
	`)
	inst := prog.Database.Instance()
	tr := AllTriggers(prog.TGDs, inst)[0]
	// R(a,b) itself witnesses ∃Z R(a,Z): not active (intro example).
	if IsActive(tr, inst) {
		t.Error("intro-example trigger must not be active")
	}
}

func TestFrontierTerms(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b).
		s1: R(X,Y) -> T(X,Z,X).
	`)
	inst := prog.Database.Instance()
	tr := AllTriggers(prog.TGDs, inst)[0]
	fr := FrontierTerms(tr)
	if len(fr) != 1 || !fr.Has(logic.Const("a")) {
		t.Errorf("FrontierTerms = %v", fr.Sorted())
	}
}

func TestStops(t *testing.T) {
	// β = T(a, n, n) produced with frontier {a}. α = T(a, b, b) stops β:
	// map n→b fixing a. α′ = T(c, b, b) does not (frontier mismatch).
	frontier := logic.NewTermSet(logic.Const("a"))
	beta := logic.MustAtom("T", logic.Const("a"), logic.NewNull("n"), logic.NewNull("n"))
	if !Stops(logic.MustAtom("T", logic.Const("a"), logic.Const("b"), logic.Const("b")), beta, frontier) {
		t.Error("T(a,b,b) must stop T(a,n,n)")
	}
	if Stops(logic.MustAtom("T", logic.Const("c"), logic.Const("b"), logic.Const("b")), beta, frontier) {
		t.Error("frontier term must be fixed")
	}
	if Stops(logic.MustAtom("T", logic.Const("a"), logic.Const("b"), logic.Const("c")), beta, frontier) {
		t.Error("the repeated null must map consistently")
	}
	if Stops(logic.MustAtom("U", logic.Const("a"), logic.Const("b"), logic.Const("b")), beta, frontier) {
		t.Error("predicate mismatch")
	}
	// Two copies of the same atom stop each other (Section 3.1).
	if !Stops(beta, beta, frontier) {
		t.Error("an atom stops itself")
	}
}

func TestTriggersInvolving(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b). T(b).
		s1: R(X,Y), T(Y) -> P(X,Y).
	`)
	inst := prog.Database.Instance()
	got := TriggersInvolving(prog.TGDs, inst, logic.MustAtom("T", logic.Const("b")))
	if len(got) != 1 {
		t.Fatalf("TriggersInvolving = %d, want 1", len(got))
	}
	// An atom matching no body position yields nothing.
	if got := TriggersInvolving(prog.TGDs, inst, logic.MustAtom("P", logic.Const("a"), logic.Const("b"))); len(got) != 0 {
		t.Errorf("unexpected triggers %v", got)
	}
	// Self-join: the atom may serve either body position.
	prog2 := parser.MustParse(`
		E(a,a).
		t: E(X,Y), E(Y,Z) -> E(X,Z).
	`)
	inst2 := prog2.Database.Instance()
	got2 := TriggersInvolving(prog2.TGDs, inst2, logic.MustAtom("E", logic.Const("a"), logic.Const("a")))
	if len(got2) != 1 {
		t.Errorf("self-join dedup: %d triggers, want 1", len(got2))
	}
}

func TestViolations(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b). R(b,c).
		s1: R(X,Y) -> S(X).
		s2: R(X,Y) -> Q(Y).
	`)
	v := Violations(prog.TGDs, prog.Database.Instance())
	if v["s1"] != 2 || v["s2"] != 2 {
		t.Errorf("Violations = %v", v)
	}
}
