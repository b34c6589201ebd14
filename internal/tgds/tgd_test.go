package tgds

import (
	"strings"
	"testing"

	"airct/internal/logic"
)

func atom(name string, vars ...string) logic.Atom {
	args := make([]logic.Term, len(vars))
	for i, v := range vars {
		args[i] = logic.Var(v)
	}
	return logic.MustAtom(name, args...)
}

func TestTGDValidate(t *testing.T) {
	tests := []struct {
		name    string
		body    []logic.Atom
		head    []logic.Atom
		wantErr bool
	}{
		{"ok", []logic.Atom{atom("R", "X", "Y")}, []logic.Atom{atom("S", "X")}, false},
		{"empty body", nil, []logic.Atom{atom("S", "X")}, true},
		{"empty head", []logic.Atom{atom("R", "X", "Y")}, nil, true},
		{
			"constant in body",
			[]logic.Atom{logic.MustAtom("R", logic.Const("a"), logic.Var("Y"))},
			[]logic.Atom{atom("S", "Y")},
			true,
		},
		{
			"null in head",
			[]logic.Atom{atom("R", "X")},
			[]logic.Atom{logic.MustAtom("S", logic.NewNull("n"))},
			true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New("t", tc.body, tc.head)
			if (err != nil) != tc.wantErr {
				t.Errorf("New err = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestFrontierAndExistential(t *testing.T) {
	// R(X,Y), P(Y,Z) -> T(X,Y,W)
	tgd := MustNew("σ", []logic.Atom{atom("R", "X", "Y"), atom("P", "Y", "Z")},
		[]logic.Atom{atom("T", "X", "Y", "W")})
	fr := tgd.Frontier()
	if len(fr) != 2 || !fr.Has(logic.Var("X")) || !fr.Has(logic.Var("Y")) {
		t.Errorf("Frontier = %v", fr.Sorted())
	}
	ex := tgd.ExistentialVars()
	if len(ex) != 1 || !ex.Has(logic.Var("W")) {
		t.Errorf("ExistentialVars = %v", ex.Sorted())
	}
	if got := tgd.BodyVars(); len(got) != 3 {
		t.Errorf("BodyVars = %v", got.Sorted())
	}
}

func TestGuard(t *testing.T) {
	tests := []struct {
		name      string
		tgd       TGD
		guarded   bool
		guardPred string
	}{
		{
			"linear is guarded",
			MustNew("", []logic.Atom{atom("R", "X", "Y")}, []logic.Atom{atom("S", "X")}),
			true, "R",
		},
		{
			"guard covers all",
			MustNew("", []logic.Atom{atom("S", "Y"), atom("G", "X", "Y", "Z"), atom("P", "Z")},
				[]logic.Atom{atom("H", "X")}),
			true, "G",
		},
		{
			"cross join unguarded",
			MustNew("", []logic.Atom{atom("R", "X", "Y"), atom("P", "Y", "Z")},
				[]logic.Atom{atom("T", "X", "Z")}),
			false, "",
		},
		{
			"left-most guard wins",
			MustNew("", []logic.Atom{atom("G1", "X", "Y"), atom("G2", "X", "Y")},
				[]logic.Atom{atom("H", "X")}),
			true, "G1",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g, ok := tc.tgd.Guard()
			if ok != tc.guarded {
				t.Fatalf("guarded = %v, want %v", ok, tc.guarded)
			}
			if ok && g.Pred.Name != tc.guardPred {
				t.Errorf("guard = %v, want predicate %s", g, tc.guardPred)
			}
			if tc.guarded != MustSet(tc.tgd).IsGuarded() {
				t.Error("the set's IsGuarded, read off the compiled form, disagrees with Guard")
			}
		})
	}
}

func TestHeadAtomPanicsOnMultiHead(t *testing.T) {
	multi := MustNew("", []logic.Atom{atom("R", "X", "Y", "Z")},
		[]logic.Atom{atom("R", "X", "W", "Y"), atom("R", "W", "Y", "Y")})
	if multi.IsSingleHead() {
		t.Fatal("expected multi-head")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	multi.HeadAtom()
}

func TestSatisfiedBy(t *testing.T) {
	// R(X,Y) -> ∃Z R(X,Z): satisfied by any instance with R non-empty since
	// the fact itself witnesses the head (the paper's intro example).
	tgd := MustNew("", []logic.Atom{atom("R", "X", "Y")}, []logic.Atom{atom("R", "X", "Z")})
	src := logic.NewSliceSource([]logic.Atom{logic.MustAtom("R", logic.Const("a"), logic.Const("b"))})
	if !tgd.SatisfiedBy(src) {
		t.Error("intro example: R(a,b) satisfies R(X,Y)->∃Z R(X,Z)")
	}
	// R(X,Y) -> S(X) is violated.
	tgd2 := MustNew("", []logic.Atom{atom("R", "X", "Y")}, []logic.Atom{atom("S", "X")})
	if tgd2.SatisfiedBy(src) {
		t.Error("missing S(a) must violate")
	}
	src2 := logic.NewSliceSource([]logic.Atom{
		logic.MustAtom("R", logic.Const("a"), logic.Const("b")),
		logic.MustAtom("S", logic.Const("a")),
	})
	if !tgd2.SatisfiedBy(src2) {
		t.Error("S(a) present, should satisfy")
	}
}

func TestNewSetStandardisesApart(t *testing.T) {
	t1 := MustNew("", []logic.Atom{atom("R", "X", "Y")}, []logic.Atom{atom("S", "X")})
	t2 := MustNew("", []logic.Atom{atom("S", "X")}, []logic.Atom{atom("R", "X", "X")})
	s := MustSet(t1, t2)
	vars1 := s.TGDs[0].BodyVars()
	vars2 := s.TGDs[1].BodyVars()
	for v := range vars1 {
		if vars2.Has(v) {
			t.Errorf("sets must not share variables: %v", v)
		}
	}
	if s.TGDs[0].Label != "σ1" || s.TGDs[1].Label != "σ2" {
		t.Errorf("labels = %q, %q", s.TGDs[0].Label, s.TGDs[1].Label)
	}
}

func TestSetClassPredicates(t *testing.T) {
	guarded := MustSet(
		MustNew("", []logic.Atom{atom("R", "X", "Y")}, []logic.Atom{atom("S", "X")}),
		MustNew("", []logic.Atom{atom("S", "X")}, []logic.Atom{atom("R", "X", "Z")}),
	)
	if !guarded.IsGuarded() || !guarded.IsLinear() || !guarded.IsSingleHead() {
		t.Error("linear set should be linear, guarded, single-head")
	}
	unguarded := MustSet(
		MustNew("", []logic.Atom{atom("R", "X", "Y"), atom("P", "Y", "Z")},
			[]logic.Atom{atom("T", "X", "Z")}),
	)
	if unguarded.IsGuarded() || unguarded.IsLinear() {
		t.Error("cross join is neither guarded nor linear")
	}
	multi := MustSet(
		MustNew("", []logic.Atom{atom("R", "X")}, []logic.Atom{atom("S", "X"), atom("T", "X")}),
	)
	if multi.IsSingleHead() || multi.IsGuarded() {
		t.Error("multi-head sets are outside G")
	}
}

func TestSetSchemaAndArity(t *testing.T) {
	s := MustSet(
		MustNew("", []logic.Atom{atom("R", "X", "Y"), atom("P", "Y", "Z")},
			[]logic.Atom{atom("T", "X", "Y", "W")}),
	)
	sch := s.Schema()
	if sch.Len() != 3 {
		t.Errorf("Schema = %v", sch.Predicates())
	}
}

func TestSetByLabelAndString(t *testing.T) {
	s := MustSet(
		MustNew("first", []logic.Atom{atom("R", "X")}, []logic.Atom{atom("S", "X")}),
		MustNew("", []logic.Atom{atom("S", "X")}, []logic.Atom{atom("R", "X")}),
	)
	if s.TGDs[0].Label != "first" {
		t.Errorf("label = %q, want first", s.TGDs[0].Label)
	}
	if s.TGDs[1].Label != "σ2" {
		t.Errorf("auto label = %q, want σ2", s.TGDs[1].Label)
	}
	if !strings.Contains(s.String(), "first:") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSetSatisfiedBy(t *testing.T) {
	s := MustSet(
		MustNew("", []logic.Atom{atom("R", "X", "Y")}, []logic.Atom{atom("S", "X")}),
	)
	sat := logic.NewSliceSource([]logic.Atom{
		logic.MustAtom("R", logic.Const("a"), logic.Const("b")),
		logic.MustAtom("S", logic.Const("a")),
	})
	unsat := logic.NewSliceSource([]logic.Atom{
		logic.MustAtom("R", logic.Const("a"), logic.Const("b")),
	})
	if !s.SatisfiedBy(sat) || s.SatisfiedBy(unsat) {
		t.Error("SatisfiedBy mismatch")
	}
}

func TestRenameKeepsStructure(t *testing.T) {
	tgd := MustNew("σ", []logic.Atom{atom("R", "X", "Y"), atom("P", "Y", "Z")},
		[]logic.Atom{atom("T", "X", "Y", "W")})
	renamed := tgd.Rename(logic.NewFreshNamer("u"))
	if renamed.Body[0].Args[1] != renamed.Body[1].Args[0] {
		t.Error("shared variable Y must stay shared")
	}
	if len(renamed.ExistentialVars()) != 1 {
		t.Error("existential count must survive renaming")
	}
	if renamed.BodyVars().Has(logic.Var("X")) {
		t.Error("old names must be gone")
	}
}
