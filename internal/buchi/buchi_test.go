package buchi

import (
	"strings"
	"testing"
)

// modAutomaton accepts words over {a,b} with infinitely many a's: states
// 1 ("a") and 2 ("b") remember the last symbol, 0 is the start; accepting
// = 1.
func modAutomaton() *Automaton {
	return &Automaton{
		Alphabet: []string{"a", "b"},
		Initial:  0,
		Step: func(state, sym int) (int, bool) {
			return sym + 1, true
		},
		Accepting: func(state int) bool { return state == 1 },
	}
}

// rejectAfterB rejects any word containing b (sink), accepting = seen an a
// (state 1).
func rejectAfterB() *Automaton {
	return &Automaton{
		Alphabet: []string{"a", "b"},
		Initial:  0,
		Step: func(state, sym int) (int, bool) {
			if sym == 1 {
				return 0, false
			}
			return 1, true
		},
		Accepting: func(state int) bool { return state == 1 },
	}
}

// emptyAutomaton has accepting states unreachable from any cycle.
func emptyAutomaton() *Automaton {
	return &Automaton{
		Alphabet: []string{"a"},
		Initial:  0,
		Step: func(state, sym int) (int, bool) {
			switch state {
			case 0:
				return 1, true // accepting but transient
			case 1:
				return 2, true
			default:
				return 2, true // non-accepting self-loop
			}
		},
		Accepting: func(state int) bool { return state == 1 },
	}
}

func TestExploreReachableStates(t *testing.T) {
	e := Explore(modAutomaton(), 0)
	if e.Len() != 3 { // start, a, b
		t.Errorf("states = %d, want 3", e.Len())
	}
	if !e.Complete {
		t.Error("exploration must complete")
	}
}

func TestExploreRespectsBound(t *testing.T) {
	// Counter automaton with unbounded state space.
	counter := &Automaton{
		Alphabet: []string{"a"},
		Initial:  0,
		Step: func(state, sym int) (int, bool) {
			return state + 1, true
		},
		Accepting: func(int) bool { return false },
	}
	e := Explore(counter, 10)
	if e.Complete {
		t.Error("bounded exploration of an infinite automaton cannot complete")
	}
	if e.Len() != 10 {
		t.Errorf("states = %d, want 10", e.Len())
	}
}

func TestNonEmptyFindsLasso(t *testing.T) {
	e := Explore(modAutomaton(), 0)
	lasso, ok := e.NonEmpty()
	if !ok {
		t.Fatal("infinitely-many-a language is non-empty")
	}
	// The lasso must be accepted by the automaton itself.
	acc, err := modAutomaton().AcceptsLasso(lasso.Prefix, lasso.Cycle)
	if err != nil || !acc {
		t.Errorf("witness %v|%v not accepted: %v", lasso.Prefix, lasso.Cycle, err)
	}
	// The cycle must contain an a.
	if !strings.Contains(strings.Join(lasso.Cycle, ""), "a") {
		t.Errorf("cycle %v has no a", lasso.Cycle)
	}
}

func TestNonEmptyOnEmptyLanguage(t *testing.T) {
	e := Explore(emptyAutomaton(), 0)
	if _, ok := e.NonEmpty(); ok {
		t.Error("transient accepting state must not yield a lasso")
	}
}

func TestRejectSink(t *testing.T) {
	e := Explore(rejectAfterB(), 0)
	lasso, ok := e.NonEmpty()
	if !ok {
		t.Fatal("a^ω is accepted")
	}
	for _, s := range append(append([]string{}, lasso.Prefix...), lasso.Cycle...) {
		if s == "b" {
			t.Errorf("witness uses rejected symbol b: %v|%v", lasso.Prefix, lasso.Cycle)
		}
	}
}

func TestRunSimulation(t *testing.T) {
	a := rejectAfterB()
	states, ok := a.Run([]string{"a", "a"})
	if !ok || len(states) != 3 {
		t.Errorf("Run = %v, %v", states, ok)
	}
	if _, ok := a.Run([]string{"a", "b"}); ok {
		t.Error("b must reject")
	}
}

func TestAcceptsLasso(t *testing.T) {
	a := modAutomaton()
	tests := []struct {
		prefix, cycle []string
		want          bool
	}{
		{nil, []string{"a"}, true},
		{nil, []string{"b"}, false},
		{[]string{"b", "b"}, []string{"a", "b"}, true},
		{[]string{"a"}, []string{"b"}, false},
	}
	for _, tc := range tests {
		got, err := a.AcceptsLasso(tc.prefix, tc.cycle)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("AcceptsLasso(%v, %v) = %v, want %v", tc.prefix, tc.cycle, got, tc.want)
		}
	}
	if _, err := a.AcceptsLasso(nil, nil); err == nil {
		t.Error("empty cycle must error")
	}
}

func TestObservation1GapBound(t *testing.T) {
	// Observation 1: if L(A) ≠ ∅ there is a word whose accepting visits
	// are at most n_A apart; the lasso's gap obeys the explored-state
	// bound.
	for _, a := range []*Automaton{modAutomaton(), rejectAfterB()} {
		e := Explore(a, 0)
		lasso, ok := e.NonEmpty()
		if !ok {
			t.Fatal("non-empty expected")
		}
		if lasso.Gap > e.Len() {
			t.Errorf("gap %d exceeds state count %d", lasso.Gap, e.Len())
		}
	}
}

func TestExploreSparseIDs(t *testing.T) {
	// IDs need not start at 0 or be contiguous: 7 -a-> 3 -a-> 7, accepting 3.
	a := &Automaton{
		Alphabet: []string{"a"},
		Initial:  7,
		Step: func(state, sym int) (int, bool) {
			if state == 7 {
				return 3, true
			}
			return 7, true
		},
		Accepting: func(state int) bool { return state == 3 },
	}
	e := Explore(a, 0)
	if e.Len() != 2 || !e.reached(3) || !e.reached(7) || e.reached(5) {
		t.Fatalf("explored %d states (3:%v 7:%v 5:%v)", e.Len(), e.reached(3), e.reached(7), e.reached(5))
	}
	lasso, ok := e.NonEmpty()
	if !ok || strings.Join(lasso.Prefix, "") != "a" || strings.Join(lasso.Cycle, "") != "aa" || lasso.Gap != 1 {
		t.Fatalf("lasso = %+v, %v", lasso, ok)
	}
	if acc, err := a.AcceptsLasso(lasso.Prefix, lasso.Cycle); err != nil || !acc {
		t.Errorf("witness not accepted: %v %v", acc, err)
	}
}

func TestUnknownSymbolKeys(t *testing.T) {
	a := modAutomaton()
	if states, ok := a.Run([]string{"a", "z"}); ok || len(states) != 1 {
		t.Errorf("Run over an unknown symbol = %v, %v", states, ok)
	}
	if _, err := a.AcceptsLasso([]string{"z"}, []string{"a"}); err == nil {
		t.Error("unknown prefix symbol must error")
	}
	if _, err := a.AcceptsLasso(nil, []string{"z"}); err == nil {
		t.Error("unknown cycle symbol must error")
	}
}
