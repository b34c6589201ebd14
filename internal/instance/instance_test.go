package instance

import (
	"testing"
	"testing/quick"

	"airct/internal/logic"
)

func atom(name string, args ...logic.Term) logic.Atom { return logic.MustAtom(name, args...) }

func TestInstanceAddHasLen(t *testing.T) {
	in := New()
	a := atom("R", logic.Const("a"), logic.Const("b"))
	if !in.Add(a) {
		t.Fatal("first Add should be new")
	}
	if in.Add(a) {
		t.Fatal("second Add should not be new")
	}
	if !in.Has(a) || in.Len() != 1 {
		t.Fatal("Has/Len mismatch")
	}
	b := atom("R", logic.Const("a"), logic.NewNull("n"))
	in.Add(b)
	if in.Len() != 2 {
		t.Fatal("null-carrying atom should be distinct")
	}
}

func TestInstanceRejectsVariables(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on variable atom")
		}
	}()
	New().Add(atom("R", logic.Var("X")))
}

// TestInstanceRejectsArityAboveMax: an atom one argument wider than
// MaxArity cannot be keyed by ptPack, so inserting it panics instead of
// filing its last posting under another predicate.
func TestInstanceRejectsArityAboveMax(t *testing.T) {
	args := make([]logic.Term, MaxArity+1)
	for i := range args {
		args[i] = logic.Const("a")
	}
	in := New()
	in.Add(atom("W", args[:MaxArity]...))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on an atom above MaxArity")
		}
	}()
	in.Add(atom("W2", args...))
}

func TestInstanceIndexes(t *testing.T) {
	in := FromAtoms(
		atom("R", logic.Const("a"), logic.Const("b")),
		atom("R", logic.Const("a"), logic.Const("c")),
		atom("S", logic.Const("b")),
	)
	if got := in.AtomsByPredicate(logic.Pred("R", 2)); len(got) != 2 {
		t.Errorf("AtomsByPredicate R/2 = %d atoms", len(got))
	}
	if got := in.AtomsByPredicate(logic.Pred("T", 1)); got != nil {
		t.Errorf("AtomsByPredicate missing pred = %v", got)
	}
	if got := in.AtomIndexesByPredicateTerm(logic.Pred("R", 2), 1, logic.Const("a")); len(got) != 2 {
		t.Errorf("byPT (R,1,a) = %d atoms", len(got))
	}
	if got := in.AtomIndexesByPredicateTerm(logic.Pred("R", 2), 2, logic.Const("b")); len(got) != 1 {
		t.Errorf("byPT (R,2,b) = %d atoms", len(got))
	}
	if got := in.AtomIndexesByPredicateTerm(logic.Pred("R", 2), 2, logic.Const("zz")); got != nil {
		t.Errorf("byPT unknown term = %v", got)
	}
	if got := in.AtomByIndex(2); got.Pred.Name != "S" {
		t.Errorf("AtomByIndex(2) = %v", got)
	}
}

func TestInstanceDomSchemaClone(t *testing.T) {
	in := FromAtoms(
		atom("R", logic.Const("a"), logic.NewNull("n")),
		atom("S", logic.Const("b")),
	)
	dom := in.Dom()
	if len(dom) != 3 {
		t.Errorf("Dom = %v", dom)
	}
	if in.NullCount() != 1 {
		t.Errorf("NullCount = %d", in.NullCount())
	}
	cl := in.Clone()
	cl.Add(atom("T", logic.Const("z")))
	if in.Has(atom("T", logic.Const("z"))) {
		t.Error("Clone must be independent")
	}
	if !cl.ContainsAll(in) {
		t.Error("clone must contain original")
	}
	if in.ContainsAll(cl) {
		t.Error("original must not contain extended clone")
	}
}

func TestInstanceEqualAndDiff(t *testing.T) {
	a := FromAtoms(atom("R", logic.Const("x")), atom("S", logic.Const("y")))
	b := FromAtoms(atom("S", logic.Const("y")), atom("R", logic.Const("x")))
	if !a.Equal(b) {
		t.Error("order must not matter for Equal")
	}
	c := FromAtoms(atom("R", logic.Const("x")))
	if a.Equal(c) {
		t.Error("different sizes must differ")
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	if err := db.Add(atom("R", logic.Const("a"))); err != nil {
		t.Fatalf("Add fact: %v", err)
	}
	if err := db.Add(atom("R", logic.NewNull("n"))); err == nil {
		t.Fatal("nulls must be rejected from databases")
	}
	if db.Len() != 1 || !db.Instance().Has(atom("R", logic.Const("a"))) {
		t.Fatal("database content wrong")
	}
	inst := db.Instance()
	inst.Add(atom("S", logic.Const("b")))
	if db.Len() != 1 {
		t.Error("Instance() must return an independent copy")
	}
	if _, err := DatabaseFromAtoms(atom("R", logic.Var("X"))); err == nil {
		t.Error("DatabaseFromAtoms must reject variables")
	}
	if got := MustDatabase(atom("P", logic.Const("c"))).Len(); got != 1 {
		t.Errorf("MustDatabase len = %d", got)
	}
}

func TestMustDatabasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustDatabase(atom("R", logic.NewNull("n")))
}

// Property: Add is idempotent and Len equals the number of distinct keys.
func TestInstanceAddProperty(t *testing.T) {
	f := func(xs []uint8) bool {
		in := New()
		distinct := map[string]bool{}
		for _, x := range xs {
			a := atom("P", logic.Const(string(rune('a'+x%5))))
			in.Add(a)
			distinct[a.Key()] = true
		}
		return in.Len() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: insertion order is preserved for distinct atoms.
func TestInstanceOrderProperty(t *testing.T) {
	f := func(xs []uint8) bool {
		in := New()
		var want []string
		seen := map[string]bool{}
		for _, x := range xs {
			a := atom("Q", logic.Const(string(rune('a'+x%7))))
			if !seen[a.Key()] {
				want = append(want, a.Key())
				seen[a.Key()] = true
			}
			in.Add(a)
		}
		got := in.Atoms()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Key() != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
