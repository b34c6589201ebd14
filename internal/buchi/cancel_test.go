package buchi

import (
	"context"
	"testing"
)

// chainAutomaton is a 1-symbol chain of n states with no accepting state:
// emptiness needs the full n-state exploration, which gives the ctx check a
// deterministic amount of work to interrupt.
func chainAutomaton(n int) *Automaton {
	return &Automaton{
		Alphabet: []string{"t"},
		Initial:  0,
		Step: func(state, sym int) (int, bool) {
			if state+1 >= n {
				return 0, false
			}
			return state + 1, true
		},
		Accepting: func(state int) bool { return false },
	}
}

func TestExploreContextCancelledStopsIncomplete(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := ExploreContext(ctx, chainAutomaton(10_000), 100_000)
	if e.Complete {
		t.Fatal("cancelled exploration claims completeness")
	}
	if e.Len() >= 10_000 {
		t.Errorf("cancelled exploration visited all %d states", e.Len())
	}
	if _, ok := e.NonEmpty(); ok {
		t.Error("empty-language automaton produced a lasso")
	}
}

func TestExploreContextBackgroundMatchesExplore(t *testing.T) {
	a := chainAutomaton(500)
	plain := Explore(a, 100_000)
	bg := ExploreContext(context.Background(), a, 100_000)
	if plain.Complete != bg.Complete || plain.Len() != bg.Len() {
		t.Errorf("Background-context exploration drifted: complete %v/%v, states %d/%d",
			bg.Complete, plain.Complete, bg.Len(), plain.Len())
	}
}
