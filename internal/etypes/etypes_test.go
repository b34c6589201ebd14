package etypes

import (
	"strconv"
	"testing"
	"testing/quick"

	"airct/internal/logic"
)

func TestOf(t *testing.T) {
	a := logic.MustAtom("R", logic.Const("a"), logic.Const("b"), logic.Const("a"))
	e := Of(a)
	if e.ClassOf(3) != 1 {
		t.Errorf("ClassOf(3) = %d", e.ClassOf(3))
	}
	if got := e.Classes(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Classes = %v", got)
	}
	if e.String() != "R(*1,*2,*1)" {
		t.Errorf("String = %q", e.String())
	}
}

func TestOfIgnoresTermIdentity(t *testing.T) {
	// Equality type depends only on the equality pattern, not on which
	// terms realise it.
	a := logic.MustAtom("R", logic.Const("a"), logic.Const("a"))
	b := logic.MustAtom("R", logic.NewNull("n"), logic.NewNull("n"))
	c := logic.MustAtom("R", logic.Const("a"), logic.Const("b"))
	if Of(a).Key() != Of(b).Key() {
		t.Error("same pattern must give same type")
	}
	if Of(a).Key() == Of(c).Key() {
		t.Error("different patterns must differ")
	}
}

func TestFromPartition(t *testing.T) {
	p := logic.Pred("R", 3)
	e, err := FromPartition(p, []int{0, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.ClassOf(2) != 1 || e.ClassOf(3) != 3 {
		t.Error("partition decoded wrong")
	}
	if _, err := FromPartition(p, []int{0, 0}); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := FromPartition(p, []int{0, 2, 2}); err == nil {
		t.Error("forward reference must fail")
	}
	if _, err := FromPartition(p, []int{0, 0, 1}); err == nil {
		t.Error("non-representative reference must fail")
	}
}

func TestCanonicalAtomRealisesType(t *testing.T) {
	e, err := FromPartition(logic.Pred("R", 4), []int{0, 0, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	atom := e.CanonicalAtomFunc(classConst)
	if Of(atom).Key() != e.Key() {
		t.Errorf("canonical atom %v does not match its type %v", atom, e)
	}
	if atom.Args[0] != atom.Args[1] || atom.Args[2] != atom.Args[3] || atom.Args[0] == atom.Args[2] {
		t.Errorf("canonical atom pattern wrong: %v", atom)
	}
}

func TestAllForPredicateCountsBell(t *testing.T) {
	// Bell numbers: 1, 1, 2, 5, 15, 52.
	for arity, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52} {
		got := len(AllForPredicate(logic.Pred("R", arity)))
		if got != want {
			t.Errorf("arity %d: %d types, want %d", arity, got, want)
		}
	}
}

func TestAllForPredicateDistinct(t *testing.T) {
	types := AllForPredicate(logic.Pred("R", 4))
	seen := map[string]bool{}
	for _, e := range types {
		if seen[e.Key()] {
			t.Fatalf("duplicate type %v", e)
		}
		seen[e.Key()] = true
	}
}

func TestAllForSchemaAndCount(t *testing.T) {
	s := logic.NewSchema(logic.Pred("R", 2), logic.Pred("S", 3))
	all := AllForSchema(s)
	if len(all) != 2+5 {
		t.Errorf("AllForSchema = %d types, want 7", len(all))
	}
}

// Property: Of(CanonicalAtomFunc(e)) == e for arbitrary generated partitions.
func TestCanonicalRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		arity := len(raw)
		if arity == 0 || arity > 6 {
			return true
		}
		rep := make([]int, arity)
		for i := range rep {
			// Choose a representative among {0..i} that is itself a rep.
			cand := int(raw[i]) % (i + 1)
			for rep[cand] != cand {
				cand = rep[cand]
			}
			rep[i] = cand
		}
		e, err := FromPartition(logic.Pred("P", arity), rep)
		if err != nil {
			return false
		}
		return Of(e.CanonicalAtomFunc(classConst)).Key() == e.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the number of classes of Of(a) equals the number of distinct
// terms in a.
func TestClassCountMatchesDistinctTerms(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 6 {
			return true
		}
		args := make([]logic.Term, len(raw))
		distinct := map[logic.Term]bool{}
		for i, r := range raw {
			args[i] = logic.Const(string(rune('a' + r%4)))
			distinct[args[i]] = true
		}
		e := Of(logic.MustAtom("P", args...))
		return len(e.Classes()) == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// classConst names each class's term after its representative position.
func classConst(class int) logic.Term { return logic.Const(strconv.Itoa(class)) }
