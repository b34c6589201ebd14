package logic

import (
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	tests := []struct {
		name  string
		term  Term
		kind  TermKind
		str   string
		cons  bool
		null  bool
		varr  bool
		mappb bool
	}{
		{"constant", Const("a"), Constant, "a", true, false, false, false},
		{"null", NewNull("n1"), Null, "_:n1", false, true, false, true},
		{"variable", Var("X"), Variable, "X", false, false, true, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.term.Kind != tc.kind {
				t.Errorf("kind = %v, want %v", tc.term.Kind, tc.kind)
			}
			if got := tc.term.String(); got != tc.str {
				t.Errorf("String() = %q, want %q", got, tc.str)
			}
			if tc.term.IsConst() != tc.cons || tc.term.IsNull() != tc.null || tc.term.IsVar() != tc.varr {
				t.Errorf("kind predicates wrong for %v", tc.term)
			}
			if tc.term.Mappable() != tc.mappb {
				t.Errorf("Mappable() = %v, want %v", tc.term.Mappable(), tc.mappb)
			}
		})
	}
}

func TestTermEquality(t *testing.T) {
	if Const("a") != Const("a") {
		t.Error("identical constants must be ==")
	}
	if Const("a") == NewNull("a") {
		t.Error("constant and null with same name must differ")
	}
	if Var("x") == Const("x") {
		t.Error("variable and constant with same name must differ")
	}
}

func TestTermCompare(t *testing.T) {
	ordered := []Term{Const("a"), Const("b"), NewNull("a"), NewNull("z"), Var("A"), Var("B")}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestTermKindString(t *testing.T) {
	if Constant.String() != "constant" || Null.String() != "null" || Variable.String() != "variable" {
		t.Error("TermKind.String mismatch")
	}
	if TermKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestTermSet(t *testing.T) {
	s := NewTermSet(Const("a"), Var("X"))
	if !s.Has(Const("a")) || !s.Has(Var("X")) {
		t.Fatal("missing members")
	}
	if s.Has(Const("b")) {
		t.Fatal("unexpected member")
	}
	if !s.Add(Const("b")) {
		t.Error("Add of new element should report true")
	}
	if s.Add(Const("b")) {
		t.Error("Add of existing element should report false")
	}
	sorted := s.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Compare(sorted[i]) >= 0 {
			t.Errorf("Sorted not strictly increasing at %d: %v", i, sorted)
		}
	}
}

func TestFreshNamer(t *testing.T) {
	f := NewFreshNamer("n")
	if f.Next() != "n0" || f.Next() != "n1" {
		t.Fatal("namer sequence wrong")
	}
	if got := f.NextNull(); got != NewNull("n2") {
		t.Errorf("NextNull = %v", got)
	}
	if got := f.NextVar(); got != Var("n3") {
		t.Errorf("NextVar = %v", got)
	}
}

func TestSortTerms(t *testing.T) {
	ts := []Term{Var("Z"), Const("b"), NewNull("m"), Const("a")}
	SortTerms(ts)
	want := []Term{Const("a"), Const("b"), NewNull("m"), Var("Z")}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("SortTerms = %v, want %v", ts, want)
		}
	}
}

// Property: Compare is antisymmetric and Compare(t,t)==0.
func TestCompareProperties(t *testing.T) {
	gen := func(kind uint8, name string) Term {
		return Term{Kind: TermKind(kind % 3), Name: name}
	}
	antisym := func(k1 uint8, n1 string, k2 uint8, n2 string) bool {
		a, b := gen(k1, n1), gen(k2, n2)
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
	refl := func(k uint8, n string) bool {
		a := gen(k, n)
		return a.Compare(a) == 0
	}
	if err := quick.Check(refl, nil); err != nil {
		t.Error(err)
	}
}
