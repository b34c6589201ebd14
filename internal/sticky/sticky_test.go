package sticky

import (
	"reflect"
	"testing"

	"airct/internal/buchi"
	"airct/internal/chase"
	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/parser"
	"airct/internal/tgds"
)

func set(t *testing.T, src string) *tgds.Set {
	t.Helper()
	s, err := parser.ParseTGDs(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAlphabetShape(t *testing.T) {
	s := set(t, `S(X) -> R(X,Y). R(X,Y) -> S(Y).`)
	syms := Alphabet(s)
	// σ1: one body atom, one existential (Y at head position 2):
	//     (σ1,γ1,∅) and (σ1,γ1,{2}).
	// σ2: one body atom, no existential: (σ2,γ1,∅).
	if len(syms) != 3 {
		t.Fatalf("alphabet = %d symbols: %v", len(syms), syms)
	}
	// A lasso spells alphabet keys; one that does not fails to materialise.
	v, err := Decide(s, DecideOptions{})
	if err != nil || v.Terminates {
		t.Fatalf("need a witness: %v %v", v, err)
	}
	bad := &buchi.Lasso{Prefix: []string{"9/0/"}, Cycle: v.Lasso.Cycle}
	if _, err := MaterializeWitness(s, *v.Seed, bad, 1); err == nil {
		t.Error("a lasso key outside the alphabet materialised")
	}
}

// witnessDatabase returns a caterpillar's legs and first body atom,
// L ∪ {α_0}, as a database; every term in it must be a constant.
func witnessDatabase(c *Caterpillar) (*instance.Database, error) {
	return instance.DatabaseFromAtoms(append(append([]logic.Atom{}, c.Legs...), c.Body[0])...)
}

func TestSeedsEnumeration(t *testing.T) {
	s := set(t, `S(X) -> R(X,Y). R(X,Y) -> S(Y).`)
	var seeds []Seed
	forEachSeed(s, func(seed Seed) bool {
		seeds = append(seeds, seed)
		return true
	})
	// S/1: 1 etype × 1 class. R/2: etype {12}, 1 class; etype {1}{2}, 2
	// classes. Total 1 + 1 + 2 = 4.
	if len(seeds) != 4 {
		t.Fatalf("seeds = %d, want 4", len(seeds))
	}
	if want := refSeeds(s); !reflect.DeepEqual(seeds, want) {
		t.Errorf("lazy seeds %v, eager %v", seeds, want)
	}
	// One 9-ary predicate: B(10) − B(9) seeds, just under MaxSeeds.
	n := 0
	forEachSeed(set(t, `R(X1,X2,X3,X4,X5,X6,X7,X8,X9) -> R(X2,X3,X4,X5,X6,X7,X8,X9,Y).`), func(Seed) bool {
		n++
		return true
	})
	if n != 94_828 || n > MaxSeeds {
		t.Errorf("9-ary seeds = %d, want 94828 (cap %d)", n, MaxSeeds)
	}
}

// TestDecideAbstainsPastSeedCap: one 12-ary predicate has 23,430,840
// seeds. The decision counts past MaxSeeds, stops, and abstains as
// incomplete without building the machine.
func TestDecideAbstainsPastSeedCap(t *testing.T) {
	v, err := Decide(set(t, `R(X1,X2,X3,X4,X5,X6,X7,X8,X9,X10,X11,X12) -> R(X2,X3,X4,X5,X6,X7,X8,X9,X10,X11,X12,Y).`), DecideOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Method != "seed-cap" || v.Complete || !v.Terminates || v.StatesExplored != 0 {
		t.Errorf("verdict %+v, want an unexplored seed-cap abstention", v)
	}
}

func TestDecideDivergingFamilies(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"ladder", `S(X) -> R(X,Y). R(X,Y) -> S(Y).`},
		{"linear chain", `R(X,Y) -> R(Y,Z).`},
		{"swap cascade", `R(X,Y) -> P(X,Y). P(X,Y) -> R(Y,Z).`},
		{"three-hop", `A(X) -> B(X,Y). B(X,Y) -> C(Y). C(X) -> A(X).`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := set(t, tc.src)
			if !s.IsSticky() {
				t.Fatalf("corpus error: %q must be sticky", tc.src)
			}
			v, err := Decide(s, DecideOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if v.Terminates {
				t.Fatalf("must diverge: %+v", v)
			}
			if v.Method != "buchi-witness" || v.Lasso == nil || v.Seed == nil {
				t.Fatalf("witness expected: %+v", v)
			}
			if len(v.Lasso.Cycle) == 0 {
				t.Error("cycle must be non-empty")
			}
		})
	}
}

func TestDecideTerminatingFamilies(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"intro example", `R(X,Y) -> R(X,Z).`},
		{"datalog", `A(X) -> B(X). B(X) -> C(X).`},
		{"one-shot existential", `A(X) -> R(X,Y). R(X,Y) -> B(X).`},
		{"self-satisfied head", `R(X,Y) -> R(Z,Y).`},
		{"paper sticky example", `T(X,Y,Z) -> S(Y,W). R(X,Y), P(Y,Z) -> T(X,Y,W).`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := set(t, tc.src)
			if !s.IsSticky() {
				t.Fatalf("corpus error: %q must be sticky", tc.src)
			}
			v, err := Decide(s, DecideOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !v.Terminates {
				t.Fatalf("must terminate; witness seed %v lasso %v", v.Seed, v.Lasso)
			}
			if !v.Complete {
				t.Error("exploration should complete on these families")
			}
		})
	}
}

func TestDecideRejectsNonSticky(t *testing.T) {
	nonSticky := set(t, `T(X,Y,Z) -> S(X,W). R(X,Y), P(Y,Z) -> T(X,Y,W).`)
	if nonSticky.IsSticky() {
		t.Fatal("corpus error: second Section 2 set is not sticky")
	}
	if _, err := Decide(nonSticky, DecideOptions{}); err == nil {
		t.Error("non-sticky input must be rejected")
	}
	multi := set(t, `R(X) -> S(X), T(X).`)
	if _, err := Decide(multi, DecideOptions{}); err == nil {
		t.Error("multi-head input must be rejected")
	}
}

func TestWitnessMaterializesToDivergingDatabase(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"ladder", `S(X) -> R(X,Y). R(X,Y) -> S(Y).`},
		{"linear chain", `R(X,Y) -> R(Y,Z).`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := set(t, tc.src)
			v, err := Decide(s, DecideOptions{})
			if err != nil || v.Terminates {
				t.Fatalf("diverging verdict needed: %v %v", v, err)
			}
			cat, err := MaterializeWitness(s, *v.Seed, v.Lasso, 3)
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			if err := cat.ValidateProto(s); err != nil {
				t.Fatalf("proto-caterpillar invalid: %v", err)
			}
			if err := cat.ValidateCaterpillar(s); err != nil {
				t.Fatalf("caterpillar invalid: %v", err)
			}
			db, err := witnessDatabase(cat)
			if err != nil {
				t.Fatal(err)
			}
			run := chase.RunChase(db, s, chase.Options{Variant: chase.Restricted, MaxSteps: 200})
			if run.Terminated() {
				t.Errorf("materialized witness %v must diverge", db)
			}
		})
	}
}

func TestCaterpillarValidatorsRejectBrokenPrefixes(t *testing.T) {
	s := set(t, `S(X) -> R(X,Y). R(X,Y) -> S(Y).`)
	v, err := Decide(s, DecideOptions{})
	if err != nil || v.Terminates {
		t.Fatal("need witness")
	}
	cat, err := MaterializeWitness(s, *v.Seed, v.Lasso, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the body: swap two atoms.
	if len(cat.Body) < 3 {
		t.Fatal("need at least 3 body atoms")
	}
	broken := *cat
	broken.Body = append(cat.Body[:0:0], cat.Body...)
	broken.Body[1], broken.Body[2] = broken.Body[2], broken.Body[1]
	if err := broken.ValidateProto(s); err == nil {
		t.Error("swapped body must fail validation")
	}
	// Mismatched trigger count.
	short := *cat
	short.Triggers = cat.Triggers[:len(cat.Triggers)-1]
	if err := short.ValidateProto(s); err == nil {
		t.Error("missing trigger must fail")
	}
}

func TestStateGrowthAcrossFamilies(t *testing.T) {
	// The decision explores more states for wider sets — sanity check for
	// the E7 experiment's shape.
	small := set(t, `R(X,Y) -> R(Y,Z).`)
	vSmall, err := Decide(small, DecideOptions{})
	if err != nil {
		t.Fatal(err)
	}
	large := set(t, `R(X,Y) -> P(X,Y). P(X,Y) -> Q(X,Y). Q(X,Y) -> R(Y,Z).`)
	vLarge, err := Decide(large, DecideOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vLarge.StatesExplored <= vSmall.StatesExplored {
		t.Logf("small=%d large=%d (non-fatal: witness may be found early)",
			vSmall.StatesExplored, vLarge.StatesExplored)
	}
	if vSmall.Terminates || vLarge.Terminates {
		t.Error("both families diverge")
	}
}
