package sticky

import (
	"slices"
	"strings"
	"testing"
)

func TestAnalyzeConnectivityOnLadderWitness(t *testing.T) {
	s := set(t, `S(X) -> R(X,Y). R(X,Y) -> S(Y).`)
	v, err := Decide(s, DecideOptions{})
	if err != nil || v.Terminates {
		t.Fatalf("need diverging verdict: %v %v", v, err)
	}
	pumps := 3
	cat, err := MaterializeWitness(s, *v.Seed, v.Lasso, pumps)
	if err != nil {
		t.Fatal(err)
	}
	isPassOn := make(map[string]bool)
	for _, sym := range Alphabet(s) {
		isPassOn[sym.Key()] = len(sym.P) > 0
	}
	var passOn []int
	keys := append([]string{}, v.Lasso.Prefix...)
	for p := 0; p < pumps; p++ {
		keys = append(keys, v.Lasso.Cycle...)
	}
	for i, k := range keys {
		if isPassOn[k] {
			passOn = append(passOn, i+1)
		}
	}
	if len(passOn) < 2 {
		t.Fatalf("ladder witness must have several pass-on points, got %v", passOn)
	}
	conn, err := AnalyzeConnectivity(cat, s, passOn)
	if err != nil {
		t.Fatalf("connectivity: %v", err)
	}
	if len(conn.RelayTerms) != len(passOn) {
		t.Errorf("relay terms = %d, pass-ons = %d", len(conn.RelayTerms), len(passOn))
	}
	// Uniform connectivity: the gap is the cycle structure's constant.
	if conn.MaxGap == 0 || conn.MaxGap > len(v.Lasso.Cycle)+len(v.Lasso.Prefix) {
		t.Errorf("MaxGap = %d not uniformly bounded by the lasso", conn.MaxGap)
	}
	// Relay terms must be pairwise distinct fresh nulls.
	seen := map[string]bool{}
	for _, r := range conn.RelayTerms {
		if !r.IsNull() {
			t.Errorf("relay %v must be invented", r)
		}
		if seen[r.Name] {
			t.Errorf("relay %v repeated", r)
		}
		seen[r.Name] = true
	}
}

func TestAnalyzeConnectivityRejectsBadPassOns(t *testing.T) {
	s := set(t, `S(X) -> R(X,Y). R(X,Y) -> S(Y).`)
	v, err := Decide(s, DecideOptions{})
	if err != nil || v.Terminates {
		t.Fatal("need witness")
	}
	cat, err := MaterializeWitness(s, *v.Seed, v.Lasso, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeConnectivity(cat, s, nil); err == nil {
		t.Error("empty pass-ons must fail")
	}
	if _, err := AnalyzeConnectivity(cat, s, []int{999}); err == nil {
		t.Error("out-of-range pass-on must fail")
	}
	// A pass-on at a step that invents nothing (σ2: R(X,Y) -> S(Y)) fails.
	for i, tr := range cat.Triggers {
		if len(tr.TGD.ExistentialVars()) == 0 {
			if _, err := AnalyzeConnectivity(cat, s, []int{i + 1}); err == nil {
				t.Error("non-inventing pass-on must fail")
			}
			break
		}
	}
}

func TestCheckFreeOnMaterializedWitnesses(t *testing.T) {
	for _, src := range []string{
		`S(X) -> R(X,Y). R(X,Y) -> S(Y).`,
		`R(X,Y) -> R(Y,Z).`,
	} {
		s := set(t, src)
		v, err := Decide(s, DecideOptions{})
		if err != nil || v.Terminates {
			t.Fatalf("need witness for %q", src)
		}
		cat, err := MaterializeWitness(s, *v.Seed, v.Lasso, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckFree(cat, s); err != nil {
			t.Errorf("materialised witness must be free (%q): %v", src, err)
		}
	}
}

func TestCheckFreeDetectsAccidentalSharing(t *testing.T) {
	s := set(t, `S(X) -> R(X,Y). R(X,Y) -> S(Y).`)
	v, err := Decide(s, DecideOptions{})
	if err != nil || v.Terminates {
		t.Fatal("need witness")
	}
	cat, err := MaterializeWitness(s, *v.Seed, v.Lasso, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: give two provably-unrelated positions the same term.
	if len(cat.Body) < 4 {
		t.Fatal("need a longer body")
	}
	broken := *cat
	broken.Body = append(cat.Body[:0:0], cat.Body...)
	first := broken.Body[0]
	last := broken.Body[len(broken.Body)-1]
	last.Args = slices.Clone(last.Args)
	last.Args[last.Pred.Arity-1] = first.Args[0]
	broken.Body[len(broken.Body)-1] = last
	err = CheckFree(&broken, s)
	if err == nil {
		t.Error("accidental sharing must be flagged as non-free")
	} else if !strings.Contains(err.Error(), "not free") {
		t.Errorf("unexpected error: %v", err)
	}
}
