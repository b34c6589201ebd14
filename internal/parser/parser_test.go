package parser

import (
	"strings"
	"testing"

	"airct/internal/instance"
	"airct/internal/logic"
)

func TestParseFactsAndRules(t *testing.T) {
	prog, err := Parse(`
		# the paper's intro example
		R(a, b).
		R(X, Y) -> R(X, Z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Database.Len() != 1 {
		t.Errorf("facts = %d", prog.Database.Len())
	}
	if !prog.Database.Instance().Has(logic.MustAtom("R", logic.Const("a"), logic.Const("b"))) {
		t.Error("R(a,b) missing")
	}
	if prog.TGDs.Len() != 1 {
		t.Fatalf("rules = %d", prog.TGDs.Len())
	}
	rule := prog.TGDs.TGDs[0]
	if len(rule.Body) != 1 || len(rule.Head) != 1 {
		t.Fatalf("rule shape wrong: %v", rule)
	}
	if len(rule.ExistentialVars()) != 1 {
		t.Errorf("Z must be existential: %v", rule)
	}
}

func TestParseMultipleFactsOneStatement(t *testing.T) {
	prog, err := Parse(`R(a,b), S(b,c).`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Database.Len() != 2 {
		t.Errorf("facts = %d, want 2", prog.Database.Len())
	}
}

func TestParseLabeledRule(t *testing.T) {
	prog, err := Parse(`grow: S(X) -> R(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.TGDs.TGDs[0].Label != "grow" {
		t.Error("label lost")
	}
}

func TestParseMultiHead(t *testing.T) {
	prog, err := Parse(`R(X,Y,Y) -> R(X,Z,Y), R(Z,Y,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.TGDs.TGDs[0].IsSingleHead() {
		t.Error("expected multi-head")
	}
}

func TestParseExample32(t *testing.T) {
	// Example 3.2 of the paper.
	prog, err := Parse(`
		P(a,b).
		s1: P(X,Y) -> R(X,Y).
		s2: P(X,Y) -> S(X).
		s3: R(X,Y) -> S(X).
		s4: S(X) -> R(X,Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.TGDs.Len() != 4 || prog.Database.Len() != 1 {
		t.Fatalf("program shape wrong: %d rules, %d facts", prog.TGDs.Len(), prog.Database.Len())
	}
	if !prog.TGDs.IsGuarded() {
		t.Error("Example 3.2 is guarded")
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"constant in rule", `R(a, Y) -> S(Y).`, "constant-free"},
		{"variable in fact", `R(a, Y).`, "variable"},
		{"arity clash", `R(a). R(a,b).`, "arity"},
		{"arity clash rule", `R(a,b). R(X) -> S(X).`, "arity"},
		{"missing period", `R(a,b)`, "expected"},
		{"missing arrow rhs", `R(X,Y) -> .`, "expected"},
		{"stray char", `R(a&b).`, "unexpected character"},
		{"labeled fact", `l: R(a).`, "labeled"},
		{"empty head rule", `R(X) -> `, "expected"},
		{"unclosed paren", `R(a,b`, "expected"},
		{"arity above MaxArity", "W(" + strings.Repeat("a,", instance.MaxArity) + "a).", "predicate W has 1024 arguments"},
		{"rule arity above MaxArity", "W(" + strings.Repeat("X,", instance.MaxArity) + "X) -> S(X).", "predicate W has 1024 arguments"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseErrorLineNumbers(t *testing.T) {
	_, err := Parse("R(a).\nS(b).\nT(X) -> U(a).\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %T: %v", err, err)
	}
	if pe.Line != 3 {
		t.Errorf("line = %d, want 3", pe.Line)
	}
}

func TestParseComments(t *testing.T) {
	prog, err := Parse(`
		# hash comment
		% percent comment
		// slash comment
		R(a,b). # trailing
	`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Database.Len() != 1 {
		t.Error("comments must be skipped")
	}
}

func TestParseTGDsRejectsFacts(t *testing.T) {
	if _, err := ParseTGDs(`R(a).`); err == nil {
		t.Error("facts must be rejected")
	}
	set, err := ParseTGDs(`R(X,Y) -> S(X).`)
	if err != nil || set.Len() != 1 {
		t.Errorf("ParseTGDs = %v, %v", set, err)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		"R(a,b).\nS(b,c).\n\nR(X,Y), S(Y,Z) -> T(X,Z,W).\n",
		"mh: R(X,Y,Y) -> R(X,Z,Y), R(Z,Y,Y).\n",
		"P(a,b).\nP(X,Y) -> R(X,Y).\nS(X) -> R(X,Y).\n",
	}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := Print(p1)
		p2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse %q: %v", printed, err)
		}
		if p1.Database.Len() != p2.Database.Len() || p1.TGDs.Len() != p2.TGDs.Len() {
			t.Fatalf("round trip changed sizes:\n%s\nvs\n%s", src, printed)
		}
		// Facts must be identical; rules identical up to variable renaming,
		// which Print/Parse preserves verbatim (names survive).
		facts := p2.Database.Instance()
		for _, f := range p1.Database.Atoms() {
			if !facts.Has(f) {
				t.Errorf("fact %v lost in round trip", f)
			}
		}
		for i := range p1.TGDs.TGDs {
			if p1.TGDs.TGDs[i].String() != p2.TGDs.TGDs[i].String() {
				t.Errorf("rule %d changed: %s vs %s", i,
					p1.TGDs.TGDs[i], p2.TGDs.TGDs[i])
			}
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse(`broken(`)
}

func TestZeroArityRejectedGracefully(t *testing.T) {
	// Zero-arity atoms parse as R() — allowed syntactically.
	prog, err := Parse(`R().`)
	if err != nil {
		t.Fatalf("zero-arity fact: %v", err)
	}
	if prog.Database.Len() != 1 {
		t.Error("zero-arity fact lost")
	}
}
