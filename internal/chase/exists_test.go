package chase

import (
	"context"
	"strings"
	"testing"

	"airct/internal/instance"
	"airct/internal/parser"
	"airct/internal/tgds"
)

// mustSearch is SearchTerminatingDerivation on a TGD-only test input.
func mustSearch(tb testing.TB, db *instance.Database, set *tgds.Set, opts SearchOptions) *ExistsResult {
	tb.Helper()
	res, err := SearchTerminatingDerivation(db, set, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestExistsTerminatingOnTerminatingProgram(t *testing.T) {
	prog := parser.MustParse(`
		P(a,b).
		s1: P(X,Y) -> R(X,Y).
		s2: P(X,Y) -> S(X).
	`)
	res := mustSearch(t, prog.Database, prog.TGDs, SearchOptions{})
	if !res.Found {
		t.Fatal("terminating program must have a finite derivation")
	}
	if len(res.Derivation) != 2 {
		t.Errorf("derivation length = %d, want 2", len(res.Derivation))
	}
	// The witness replays.
	d := NewDerivation(prog.Database, prog.TGDs)
	for _, tr := range res.Derivation {
		if err := d.Apply(tr); err != nil {
			t.Fatalf("witness must replay: %v", err)
		}
	}
	if len(d.Active()) > 0 {
		t.Error("witness must end in a fixpoint")
	}
}

func TestExistsTerminatingOrderSensitive(t *testing.T) {
	// σ1: R(x,y) → ∃z R(y,z); σ2: R(x,y) → R(y,x).
	// Firing σ2 first yields the fixpoint {R(a,b), R(b,a)}: σ1 becomes
	// satisfied in both directions. Firing σ1 eagerly diverges. The
	// searcher must find the terminating order.
	prog := parser.MustParse(`
		R(a,b).
		grow: R(X,Y) -> R(Y,Z).
		swap: R(X,Y) -> R(Y,X).
	`)
	res := mustSearch(t, prog.Database, prog.TGDs, SearchOptions{MaxStates: 5000, MaxAtoms: 50})
	if !res.Found {
		t.Fatalf("a terminating order exists (swap first): %+v", res)
	}
	// Replay and check the fixpoint is the 2-atom instance.
	d := NewDerivation(prog.Database, prog.TGDs)
	for _, tr := range res.Derivation {
		if err := d.Apply(tr); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.Active()) > 0 {
		t.Fatal("not a fixpoint")
	}
	if d.Instance().Len() != 2 {
		t.Errorf("smart order yields 2 atoms, got %v", d.Instance())
	}
	// Contrast: the eager-grow (LIFO-ish) engine derivation diverges.
	run := RunChase(prog.Database, prog.TGDs, Options{Variant: Restricted, Strategy: FIFO, MaxSteps: 100})
	_ = run // FIFO may or may not diverge here; the point is ∃, not ∀.
}

func TestExistsTerminatingExhaustsOnPureDivergence(t *testing.T) {
	// Every derivation of the ladder is infinite: the search must exhaust
	// the bounded space without finding a fixpoint.
	prog := parser.MustParse(`
		S(a).
		grow: S(X) -> R(X,Y).
		next: R(X,Y) -> S(Y).
	`)
	res := mustSearch(t, prog.Database, prog.TGDs, SearchOptions{MaxStates: 200, MaxAtoms: 12})
	if res.Found {
		t.Fatal("ladder has no finite derivation")
	}
	if res.Exhausted {
		t.Error("budget must have stopped the (infinite) search")
	}
}

func TestExistsTerminatingExampleB1(t *testing.T) {
	// Example B.1: infinite derivations exist, but firing mh2 first
	// deactivates everything — a finite derivation exists and the search
	// finds it.
	prog := parser.MustParse(`
		R(a,b,b).
		mh1: R(X,Y,Y) -> R(X,Z,Y), R(Z,Y,Y).
		mh2: R(X,Y,Z) -> R(Z,Z,Z).
	`)
	res := mustSearch(t, prog.Database, prog.TGDs, SearchOptions{MaxStates: 5000, MaxAtoms: 60})
	if !res.Found {
		t.Fatalf("Example B.1 admits finite derivations: %+v", res)
	}
}

func TestExistsTerminatingStateMemoisation(t *testing.T) {
	// Two independent rules: 2 orders, but only 4 distinct states
	// (diamond); memoisation must keep StatesVisited at 4, not 5+. In the
	// existential diamond both orders must invent the same two nulls, or
	// the states after both steps fingerprint apart.
	for _, src := range []string{`
		P(a).
		s1: P(X) -> Q(X).
		s2: P(X) -> R(X).
	`, `
		P(a).
		s1: P(X) -> Q(X,Y).
		s2: P(X) -> R(X,Y).
	`} {
		prog := parser.MustParse(src)
		res := mustSearch(t, prog.Database, prog.TGDs, SearchOptions{})
		if !res.Found {
			t.Fatalf("must terminate:\n%s", src)
		}
		if res.StatesVisited != 4 {
			t.Errorf("diamond has 4 states, visited %d:\n%s", res.StatesVisited, src)
		}
	}
}

// TestSearchRefusesEGDs pins the ∀∃ search's refusal of EGD sets: an error
// from both entry points, never a panic.
func TestSearchRefusesEGDs(t *testing.T) {
	prog := parser.MustParse(`
		R(a,b).
		s: R(X,Y) -> R(Y,Z).
		k: R(X,Y), R(X,Z) -> Y = Z.
	`)
	res, err := SearchTerminatingDerivation(prog.Database, prog.TGDs, SearchOptions{})
	if err == nil || !strings.Contains(err.Error(), "TGD-only") {
		t.Errorf("EGD set: result %+v, err %v; want a TGD-only error", res, err)
	}
	if res != nil {
		t.Errorf("EGD set returned a result: %+v", res)
	}
	if _, err := SearchTerminatingDerivationContext(context.Background(), prog.Database, prog.TGDs, SearchOptions{}); err == nil {
		t.Error("the context entry point accepted an EGD set")
	}
}
