package guarded

import (
	"context"
	"strings"
	"testing"

	"airct/internal/chase"
	"airct/internal/logic"
	"airct/internal/ochase"
	"airct/internal/parser"
)

// example56 is Example 5.6 of the paper: the naive critical database fails
// because of remote side-parents.
const example56 = `
	R(a,b). S(b,c).
	s1: S(X,Y) -> T(X).
	s2: R(X,Y), T(Y) -> P(X,Y).
	s3: P(X,Y) -> P(Y,Z).
`

func TestExample56Treeification(t *testing.T) {
	prog := parser.MustParse(example56)
	g := ochase.Build(prog.Database, prog.TGDs, ochase.BuildOptions{MaxNodes: 400, MaxDepth: 8})
	tr, err := Treeify(g, TreeifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// α∞ is R(a,b): its guard subtree carries the infinite P-chain.
	if tr.AlphaInf.Pred.Name != "R" {
		t.Errorf("α∞ = %v, want the R atom", tr.AlphaInf)
	}
	// R(a,b) longs for S(b,c).
	rKey := logic.MustAtom("R", logic.Const("a"), logic.Const("b")).Key()
	sKey := logic.MustAtom("S", logic.Const("b"), logic.Const("c")).Key()
	found := false
	for _, target := range tr.LongsFor[rKey] {
		if target == sKey {
			found = true
		}
	}
	if !found {
		t.Errorf("LongsFor = %v, want R↝S", tr.LongsFor)
	}
	if len(tr.Situations) == 0 {
		t.Error("remote-side-parent situation expected")
	}
	// D_ac contains the root copy of R(a,b) plus an S-copy sharing b.
	if len(tr.Dac) < 2 {
		t.Fatalf("Dac = %v", tr.Dac)
	}
	if !tr.Dac[0].Equal(tr.AlphaInf) {
		t.Error("root label is α∞ verbatim")
	}
	var sCopy *logic.Atom
	for i := range tr.Dac {
		if tr.Dac[i].Pred.Name == "S" {
			sCopy = &tr.Dac[i]
		}
	}
	if sCopy == nil {
		t.Fatal("S-copy missing from Dac")
	}
	if sCopy.Args[0] != logic.Const("b") {
		t.Errorf("S-copy must share b with the root: %v", *sCopy)
	}
	if sCopy.Args[1] == logic.Const("c") {
		t.Errorf("S-copy's second term must be fresh: %v", *sCopy)
	}
}

func TestExample56DacReproducesDivergence(t *testing.T) {
	// The whole point of Treeification: D_ac is acyclic and diverges, while
	// {R(a,b)} alone terminates.
	prog := parser.MustParse(example56)
	g := ochase.Build(prog.Database, prog.TGDs, ochase.BuildOptions{MaxNodes: 400, MaxDepth: 8})
	tr, err := Treeify(g, TreeifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dac := tr.Database()
	run := chase.RunChase(dac, prog.TGDs, chase.Options{Variant: chase.Restricted, MaxSteps: 100})
	if run.Terminated() {
		t.Errorf("D_ac = %v must diverge", dac)
	}
	// The naive database {R(a,b)} terminates (Example 5.6's observation).
	naive, _ := parser.Parse(`R(a,b).` + `
		s1: S(X,Y) -> T(X).
		s2: R(X,Y), T(Y) -> P(X,Y).
		s3: P(X,Y) -> P(Y,Z).
	`)
	naiveRun := chase.RunChase(naive.Database, naive.TGDs, chase.Options{Variant: chase.Restricted, MaxSteps: 100})
	if !naiveRun.Terminated() || naiveRun.StepsTaken != 0 {
		t.Error("no trigger is active on {R(a,b)}")
	}
}

func TestTreeifyRejectsUnguarded(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b). P(b,c).
		u: R(X,Y), P(Y,Z) -> T(X,Z).
	`)
	g := ochase.Build(prog.Database, prog.TGDs, ochase.BuildOptions{MaxNodes: 50})
	if _, err := Treeify(g, TreeifyOptions{}); err == nil {
		t.Error("unguarded sets must be rejected")
	}
}

func TestDecideTerminatingFamilies(t *testing.T) {
	tests := []struct {
		name   string
		src    string
		method string
	}{
		{"datalog", `A(X) -> B(X). B(X) -> C(X).`, "weak-acyclicity"},
		{"intro example", `R(X,Y) -> R(X,Z).`, "weak-acyclicity"},
		{"self-satisfying", `R(X,Y) -> R(Z,Y).`, "weak-acyclicity"},
		// Not WA (the null at (T,2) swaps back into (T,1), closing a special
		// cycle) yet in CT^res_∀∀: the existential rule is self-satisfied by
		// its own trigger atom, so only the swap rule ever fires. This is
		// the case where the restricted-chase analysis genuinely beats the
		// acyclicity baselines.
		{"swap plus intro", `T(X,Y) -> T(X,W). T(X,Y) -> T(Y,X).`, "seed-exhaustion"},
		{"linear terminating", `P(X,Y) -> R(X,Y). R(X,Y) -> S(X).`, "weak-acyclicity"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			set, err := parser.ParseTGDs(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			v, err := Decide(set, DecideOptions{MaxSteps: 400})
			if err != nil {
				t.Fatal(err)
			}
			if !v.Terminates {
				t.Fatalf("must terminate; verdict %+v", v)
			}
			if v.Method != tc.method {
				t.Errorf("method = %s, want %s", v.Method, tc.method)
			}
		})
	}
}

func TestDecideDivergingFamilies(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"ladder", `S(X) -> R(X,Y). R(X,Y) -> S(Y).`},
		{"linear chain", `R(X,Y) -> R(Y,Z).`},
		{"example 5.6", `S(X,Y) -> T(X). R(X,Y), T(Y) -> P(X,Y). P(X,Y) -> P(Y,Z).`},
		{"swap cascade", `R(X,Y) -> R(Y,Z).`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			set, err := parser.ParseTGDs(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			v, err := Decide(set, DecideOptions{MaxSteps: 400})
			if err != nil {
				t.Fatal(err)
			}
			if v.Terminates {
				t.Fatalf("must diverge; verdict %+v", v)
			}
			if v.Method != "divergence-witness" {
				t.Errorf("method = %s, want divergence-witness (evidence %q)", v.Method, v.Evidence)
			}
			if v.Witness == nil || v.Witness.Len() == 0 {
				t.Error("witness database required")
			}
			if !strings.Contains(v.Evidence, "pump") {
				t.Errorf("evidence = %q", v.Evidence)
			}
			// Replay the witness: it must indeed exhaust the budget.
			run := chase.RunChase(v.Witness, set, chase.Options{Variant: chase.Restricted, MaxSteps: v.Budget})
			if run.Terminated() {
				t.Error("witness must diverge on replay")
			}
		})
	}
}

func TestDecideRejectsNonGuarded(t *testing.T) {
	set, err := parser.ParseTGDs(`R(X,Y), P(Y,Z) -> T(X,Z).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decide(set, DecideOptions{}); err == nil {
		t.Error("unguarded input must be rejected")
	}
	multi, err := parser.ParseTGDs(`R(X,Y) -> S(X), T(Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decide(multi, DecideOptions{}); err == nil {
		t.Error("multi-head input must be rejected")
	}
}

func TestGenerateSeedsCoversUnifications(t *testing.T) {
	set, err := parser.ParseTGDs(`R(X,Y) -> S(Y).`)
	if err != nil {
		t.Fatal(err)
	}
	seeds := GenerateSeeds(set, 64)
	if len(seeds) < 2 {
		t.Fatalf("want the R(x,y) and R(x,x) seeds, got %d", len(seeds))
	}
	// One seed must identify the two R positions.
	foundUnified := false
	for _, s := range seeds {
		for _, a := range s.Atoms() {
			if a.Pred.Name == "R" && a.Args[0] == a.Args[1] {
				foundUnified = true
			}
		}
	}
	if !foundUnified {
		t.Error("unified seed R(x,x) missing")
	}
}

func TestDivergenceEvidenceOnTerminatingRunIsEmpty(t *testing.T) {
	prog := parser.MustParse(`
		P(a,b).
		s1: P(X,Y) -> R(X,Y).
	`)
	var log stepLog
	var arena chase.Arena
	arena.Bind(prog.TGDs)
	run := chaseLogged(context.Background(), &arena, prog.Database, chase.Options{Variant: chase.Restricted}, &log)
	if run.StepsTaken != 1 {
		t.Fatalf("want a 1-step run, got %d steps", run.StepsTaken)
	}
	if ev, _, ok := log.pump(prog.TGDs, run.Final); ok {
		t.Errorf("no pump on a 1-step run: %q", ev)
	}
}
