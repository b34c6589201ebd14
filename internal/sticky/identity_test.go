package sticky

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"airct/internal/buchi"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// identitySets is the identity suite's input: the sticky sets of the
// labeled corpus, the sticky parametric families at n = 2..8 and the
// sticky sets among RandomExistentialProgram seeds 0..599.
func identitySets(t *testing.T) (names []string, sets []*tgds.Set) {
	t.Helper()
	add := func(name string, s *tgds.Set) {
		if s.IsSticky() {
			names = append(names, name)
			sets = append(sets, s)
		}
	}
	for _, l := range workload.Corpus() {
		add(l.Name, l.Set)
	}
	for n := 2; n <= 8; n++ {
		for _, l := range []workload.Labeled{
			workload.DatalogChain(n), workload.ExistentialChain(n), workload.LinearCycle(n),
			workload.SwapIntro(n), workload.StickyJoin(n), workload.StickyRelay(n), workload.GuardedLadder(n),
		} {
			add(l.Name, l.Set)
		}
	}
	for seed := int64(0); seed < 600; seed++ {
		add(fmt.Sprintf("random-existential-%d", seed), workload.RandomExistentialProgram(seed).TGDs)
	}
	return names, sets
}

// identityBounds are the per-component state bounds the suite runs at: the
// default, and one small enough that most components trip it.
var identityBounds = []int{200_000, 3}

// TestIntegerKernelMatchesStringKernel checks the integer Büchi kernel
// against the string-keyed one kept in reference_test.go: for every
// component automaton of every input set, the explored graph (state count,
// transition rows, accept flags, completeness) and the NonEmpty lasso are
// identical, and so is the whole Verdict.
func TestIntegerKernelMatchesStringKernel(t *testing.T) {
	names, sets := identitySets(t)
	if len(sets) < 600 {
		t.Fatalf("identity inputs: %d sticky sets, want at least 600", len(sets))
	}
	diverging, tripped := 0, 0
	for i, set := range sets {
		marking, err := set.Marking()
		if err != nil {
			t.Fatal(err)
		}
		m := newMachine(set, marking)
		for _, bound := range identityBounds {
			for si, seed := range refSeeds(set) {
				ref, err := refBuildAutomaton(set, seed)
				if err != nil {
					t.Fatalf("%s: %v", names[i], err)
				}
				want := refExplore(ref, bound)
				got := buchi.Explore(m.automaton(seed), bound)
				where := fmt.Sprintf("%s seed %d bound %d", names[i], si, bound)
				compareExplored(t, where, want, got)
				if !got.Complete {
					tripped++
				}
			}
			want, err := refDecide(set, bound)
			if err != nil {
				t.Fatalf("%s: %v", names[i], err)
			}
			got, err := Decide(set, DecideOptions{MaxStates: bound})
			if err != nil {
				t.Fatalf("%s: %v", names[i], err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s bound %d: verdict %+v, string kernel %+v", names[i], bound, got, want)
			}
			if bound == identityBounds[0] && !got.Terminates {
				diverging++
			}
		}
	}
	t.Logf("%d sticky sets, %d diverging, %d tripped components", len(sets), diverging, tripped)
	if diverging == 0 || tripped == 0 {
		t.Errorf("identity inputs too narrow: %d diverging sets, %d tripped components", diverging, tripped)
	}
}

func compareExplored(t *testing.T, where string, want *refExplored, got *buchi.Explored) {
	t.Helper()
	if got.Len() != len(want.States) || got.Complete != want.Complete {
		t.Fatalf("%s: %d states complete=%v, string kernel %d complete=%v",
			where, got.Len(), got.Complete, len(want.States), want.Complete)
	}
	if len(got.Trans) != len(want.Trans) {
		t.Fatalf("%s: %d rows, string kernel %d", where, len(got.Trans), len(want.Trans))
	}
	for s := range want.Trans {
		if !reflect.DeepEqual(got.Trans[s], want.Trans[s]) || got.Accept[s] != want.Accept[s] {
			t.Fatalf("%s: state %d row %v accept %v, string kernel %v %v",
				where, s, got.Trans[s], got.Accept[s], want.Trans[s], want.Accept[s])
		}
	}
	wl, wok := want.NonEmpty()
	gl, gok := got.NonEmpty()
	if wok != gok || !reflect.DeepEqual(wl, gl) {
		t.Fatalf("%s: lasso %+v (%v), string kernel %+v (%v)", where, gl, gok, wl, wok)
	}
}

// TestDecideRefusesEGDs pins the EGD gate: the Büchi procedure is
// TGD-only. The chain rule alone diverges, but with the key every fair
// derivation fails (R(a,b), a ≠ b) or stops at once (R(a,a)), so a
// TGD-only verdict would be wrong.
func TestDecideRefusesEGDs(t *testing.T) {
	s := set(t, `s: R(X,Y) -> R(Y,Z). k: R(X,Y) -> X = Y.`)
	if s.IsSticky() {
		t.Fatal("a set with EGDs must not report sticky")
	}
	if v, err := DecideContext(context.Background(), s, DecideOptions{}); err == nil {
		t.Fatalf("Decide on an EGD set returned %+v; want an error", v)
	}
}
