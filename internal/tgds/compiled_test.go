package tgds

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"airct/internal/logic"
)

// TestCompiledSlots pins the compiled form's layout on a two-rule set.
// NewSet renames W, X, Y, Z to V0..V3 in name order, so in
// R(X,Y), S(Y,Z) -> T(Z,W,X), U(W) the body slots are X, Y, Z (0..2), W is
// the existential slot 3, and X and Z are the frontier.
func TestCompiledSlots(t *testing.T) {
	s := MustSet(
		MustNew("a", []logic.Atom{atom("R", "X", "Y"), atom("S", "Y", "Z")},
			[]logic.Atom{atom("T", "Z", "W", "X"), atom("U", "W")}),
		MustNew("b", []logic.Atom{atom("U", "X")}, []logic.Atom{atom("R", "X", "X")}),
	)
	c := s.Compiled()
	if c != s.Compiled() {
		t.Fatal("Compiled must be memoised")
	}
	wantPreds := []logic.Predicate{logic.Pred("R", 2), logic.Pred("S", 2), logic.Pred("T", 3), logic.Pred("U", 1)}
	if !slices.Equal(c.Preds, wantPreds) || !slices.Equal(c.PosOff, []int32{0, 2, 4, 7, 8}) || c.NumPositions() != 8 {
		t.Fatalf("preds %v, position offsets %v", c.Preds, c.PosOff)
	}
	a, b := c.Rules[0], c.Rules[1]
	if a.NBody != 3 || a.Base != 0 || b.NBody != 1 || b.Base != 4 || c.NumSlots != 5 {
		t.Fatalf("slot counts: a %d body from %d, b %d body from %d, %d in all", a.NBody, a.Base, b.NBody, b.Base, c.NumSlots)
	}
	if want := []logic.Term{logic.Var("V1"), logic.Var("V2"), logic.Var("V3"), logic.Var("V0")}; !slices.Equal(a.Vars, want) {
		t.Errorf("a's slot variables %v, want %v", a.Vars, want)
	}
	if want := []bool{true, false, true}; !slices.Equal(a.Frontier, want) {
		t.Errorf("a's frontier %v, want %v", a.Frontier, want)
	}
	wantBody := []SlotAtom{{Pred: 0, Slots: []int32{0, 1}}, {Pred: 1, Slots: []int32{1, 2}}}
	wantHead := []SlotAtom{{Pred: 2, Slots: []int32{2, 3, 0}}, {Pred: 3, Slots: []int32{3}}}
	if !reflect.DeepEqual(a.Body, wantBody) || !reflect.DeepEqual(a.Head, wantHead) {
		t.Errorf("a compiles to %v -> %v", a.Body, a.Head)
	}
	if got := c.Pos(a.Head[0], 2); got != 6 {
		t.Errorf("position (T,3) has ID %d, want 6", got)
	}
	if !reflect.DeepEqual(b.Head, []SlotAtom{{Pred: 0, Slots: []int32{0, 0}}}) || !b.Frontier[0] {
		t.Errorf("b compiles to %v -> %v, frontier %v", b.Body, b.Head, b.Frontier)
	}
}

// TestSetCompiledConcurrentReads reads one fresh set's compiled form and
// marking from several goroutines at once, half of them the form first; each must see the values a
// sequential read of an identical set gives. Run under -race.
func TestSetCompiledConcurrentReads(t *testing.T) {
	build := func() *Set {
		return MustSet(
			MustNew("a", []logic.Atom{atom("T", "X", "Y", "Z")}, []logic.Atom{atom("S", "Y", "W")}),
			MustNew("b", []logic.Atom{atom("R", "X", "Y"), atom("P", "Y", "Z")}, []logic.Atom{atom("T", "X", "Y", "W")}),
			MustNew("c", []logic.Atom{atom("S", "X", "Y")}, []logic.Atom{atom("R", "Y", "X")}),
		)
	}
	ref := build()
	refMarking, err := ref.Marking()
	if err != nil {
		t.Fatal(err)
	}
	s := build()
	var wg sync.WaitGroup
	forms := make([]*Compiled, 8)
	for g := range forms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				forms[g] = s.Compiled()
			}
			m, err := s.Marking()
			if err != nil {
				t.Error(err)
				return
			}
			if g%2 == 1 {
				forms[g] = s.Compiled()
			}
			if !slices.Equal(m.MarkedVars(), refMarking.MarkedVars()) || (m.Violation() == nil) != (refMarking.Violation() == nil) {
				t.Errorf("goroutine %d: marking %v, sequential %v", g, m.MarkedVars(), refMarking.MarkedVars())
			}
			if !reflect.DeepEqual(forms[g], ref.Compiled()) {
				t.Errorf("goroutine %d: compiled form differs from a sequential build", g)
			}
		}()
	}
	wg.Wait()
	for g, c := range forms {
		if c != forms[0] {
			t.Errorf("goroutine %d read a second compiled form", g)
		}
	}
}
