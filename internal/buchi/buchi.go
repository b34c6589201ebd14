// Package buchi implements deterministic Büchi automata with lazily
// explored state spaces: states are dense integer IDs handed out by the
// automaton's transition function and symbols are indices into its
// alphabet, so automata whose state spaces are huge but whose reachable
// parts are small — exactly the shape of the caterpillar automata of
// Appendix D.2 — never materialise more than they must, and exploring one
// costs a slice index per transition.
//
// Emptiness of a deterministic Büchi automaton reduces to: some accepting
// state is reachable from the initial state and lies on a cycle. NonEmpty
// finds such a lasso and returns it as a witness word (prefix + cycle) of
// symbol keys, which doubles as the pumping argument of Observation 1: the
// gap between accepting visits along the lasso is bounded by the number of
// explored states.
package buchi

import (
	"context"
	"fmt"
)

// Automaton is a deterministic Büchi automaton over a finite alphabet.
//
// States are non-negative integer IDs minted by the automaton itself. A
// state is compared only for identity, so any injective encoding of the
// underlying states will do; the explorer indexes its rows by ID, so IDs
// should be dense — an automaton that hands out 0, 1, 2, … in the order
// it first returns them gets rows equal to BFS discovery indices.
// Symbols are indices into Alphabet. Transitions that reject (the sink)
// return ok = false.
type Automaton struct {
	// Alphabet lists the symbol keys; symbol i is rendered as Alphabet[i].
	Alphabet []string
	// Initial is the initial state's ID.
	Initial int
	// Step is the deterministic transition function.
	Step func(state, symbol int) (next int, ok bool)
	// Accepting reports whether a state is accepting.
	Accepting func(state int) bool
}

// Explored is the reachable fragment of an automaton, indexed by state ID.
type Explored struct {
	Alphabet []string
	// Trans[s][a] is the successor ID of state s under symbol a, or -1 for
	// the reject sink; nil for an ID that was never reached.
	Trans [][]int
	// Accept[s] reports whether the reached state s is accepting.
	Accept []bool
	// Complete is false when exploration hit the state bound.
	Complete bool

	initial int    // the ID exploration started from
	seen    []bool // per ID: reached by the exploration
	n       int
}

// Explore builds the reachable state graph, up to maxStates states
// (0: 100_000). Exceeding the bound yields Complete = false.
func Explore(a *Automaton, maxStates int) *Explored {
	return ExploreContext(context.Background(), a, maxStates)
}

// exploreCtxInterval is ExploreContext's cancellation check interval: the
// poll runs every exploreCtxInterval dequeued states.
const exploreCtxInterval = 64

// ExploreContext is Explore under a context: the BFS polls ctx.Done()
// every exploreCtxInterval dequeues and returns the partial graph with
// Complete = false when it fires. Callers that cancel explorations must
// check ctx.Err() before trusting a partial result. Uncancelled runs are
// byte-identical to Explore.
func ExploreContext(ctx context.Context, a *Automaton, maxStates int) *Explored {
	if maxStates <= 0 {
		maxStates = 100_000
	}
	done := ctx.Done()
	tick := 0
	e := &Explored{Alphabet: a.Alphabet, Complete: true, initial: a.Initial}
	e.add(a, a.Initial)
	queue := []int{a.Initial}
	for len(queue) > 0 {
		if done != nil {
			if tick++; tick%exploreCtxInterval == 0 {
				select {
				case <-done:
					e.Complete = false
					queue = nil
				default:
				}
			}
		}
		if len(queue) == 0 {
			break
		}
		cur := queue[0]
		queue = queue[1:]
		if e.Trans[cur] != nil {
			continue
		}
		row := make([]int, len(a.Alphabet))
		for sym := range a.Alphabet {
			next, ok := a.Step(cur, sym)
			if !ok {
				row[sym] = -1
				continue
			}
			if !e.reached(next) {
				if e.n >= maxStates {
					e.Complete = false
					row[sym] = -1
					continue
				}
				e.add(a, next)
			}
			row[sym] = next
			if e.Trans[next] == nil {
				queue = append(queue, next)
			}
		}
		e.Trans[cur] = row
	}
	// States reached but never expanded (possible when cancelled).
	for s, r := range e.seen {
		if r && e.Trans[s] == nil {
			row := make([]int, len(a.Alphabet))
			for j := range row {
				row[j] = -1
			}
			e.Trans[s] = row
		}
	}
	return e
}

// add records the first visit of state s, growing the ID-indexed rows.
func (e *Explored) add(a *Automaton, s int) {
	for len(e.seen) <= s {
		e.seen = append(e.seen, false)
		e.Accept = append(e.Accept, false)
		e.Trans = append(e.Trans, nil)
	}
	e.seen[s] = true
	e.Accept[s] = a.Accepting(s)
	e.n++
}

// reached reports whether exploration visited the state ID.
func (e *Explored) reached(s int) bool { return s >= 0 && s < len(e.seen) && e.seen[s] }

// Len returns the number of explored states.
func (e *Explored) Len() int { return e.n }

// Lasso is a non-emptiness witness: the word prefix·cycle^ω, as symbol
// keys, is accepted.
type Lasso struct {
	Prefix []string
	Cycle  []string
	// Gap is the longest run of consecutive non-accepting states along the
	// cycle — the Observation 1 bound (at most the number of states).
	Gap int
}

// crumb is a BFS back-pointer: the predecessor state and the symbol taken
// from it. prev is -2 for an unvisited state and -1 for the BFS root.
type crumb struct {
	prev int
	sym  int
}

func newCrumbs(n int) []crumb {
	c := make([]crumb, n)
	for i := range c {
		c[i] = crumb{prev: -2}
	}
	return c
}

// NonEmpty decides emptiness of the explored (deterministic) automaton: it
// returns a lasso through a reachable accepting state, or ok = false when
// the language is empty. For incomplete explorations a negative answer is
// only valid up to the bound.
func (e *Explored) NonEmpty() (*Lasso, bool) {
	// Path symbols from the initial state.
	reach := newCrumbs(len(e.Trans))
	reach[e.initial] = crumb{prev: -1}
	queue := []int{e.initial}
	order := []int{e.initial}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for sym, next := range e.Trans[cur] {
			if next < 0 || reach[next].prev != -2 {
				continue
			}
			reach[next] = crumb{prev: cur, sym: sym}
			queue = append(queue, next)
			order = append(order, next)
		}
	}
	for _, q := range order {
		if !e.Accept[q] {
			continue
		}
		cycle, ok := e.cycleThrough(q)
		if !ok {
			continue
		}
		var prefix []int
		for cur := q; reach[cur].prev >= 0; cur = reach[cur].prev {
			prefix = append(prefix, reach[cur].sym)
		}
		reverse(prefix)
		return &Lasso{Prefix: e.keys(prefix), Cycle: e.keys(cycle), Gap: e.cycleGap(q, cycle)}, true
	}
	return nil, false
}

// cycleThrough finds a shortest non-empty path q → q, returning its symbols.
func (e *Explored) cycleThrough(q int) ([]int, bool) {
	seen := newCrumbs(len(e.Trans))
	queue := []int{q}
	seen[q] = crumb{prev: -1}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for sym, next := range e.Trans[cur] {
			if next < 0 {
				continue
			}
			if next == q {
				// Rebuild cycle: q → … → cur → q.
				syms := []int{sym}
				for c := cur; seen[c].prev >= 0; c = seen[c].prev {
					syms = append(syms, seen[c].sym)
				}
				reverse(syms)
				return syms, true
			}
			if seen[next].prev == -2 {
				seen[next] = crumb{prev: cur, sym: sym}
				queue = append(queue, next)
			}
		}
	}
	return nil, false
}

// cycleGap computes the longest run of non-accepting states along the
// cycle starting at q.
func (e *Explored) cycleGap(q int, cycle []int) int {
	gap, run := 0, 0
	cur := q
	for _, sym := range cycle {
		cur = e.Trans[cur][sym]
		if cur < 0 {
			return gap
		}
		if e.Accept[cur] {
			run = 0
		} else {
			run++
			if run > gap {
				gap = run
			}
		}
	}
	return gap
}

// keys renders a symbol-index word as symbol keys.
func (e *Explored) keys(word []int) []string {
	if word == nil {
		return nil
	}
	out := make([]string, len(word))
	for i, sym := range word {
		out[i] = e.Alphabet[sym]
	}
	return out
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// symbols resolves a word of symbol keys to alphabet indices.
func (a *Automaton) symbols(word []string) ([]int, error) {
	out := make([]int, len(word))
	for i, k := range word {
		out[i] = -1
		for sym, key := range a.Alphabet {
			if key == k {
				out[i] = sym
				break
			}
		}
		if out[i] < 0 {
			return nil, fmt.Errorf("buchi: symbol %q not in the alphabet", k)
		}
	}
	return out, nil
}

// Run simulates the automaton on a finite word of symbol keys from the
// initial state, returning the visited state IDs (including the initial
// one); ok = false when the word falls into the reject sink or names a
// symbol outside the alphabet.
func (a *Automaton) Run(word []string) ([]int, bool) {
	states := []int{a.Initial}
	syms, err := a.symbols(word)
	if err != nil {
		return states, false
	}
	cur := a.Initial
	for _, sym := range syms {
		next, ok := a.Step(cur, sym)
		if !ok {
			return states, false
		}
		cur = next
		states = append(states, cur)
	}
	return states, true
}

// AcceptsLasso reports whether the deterministic automaton accepts
// prefix·cycle^ω, given as symbol keys: iterate the cycle until the state
// at the cycle boundary repeats, and check that an accepting state occurs
// within the repeating portion.
func (a *Automaton) AcceptsLasso(prefix, cycle []string) (bool, error) {
	if len(cycle) == 0 {
		return false, fmt.Errorf("buchi: empty cycle")
	}
	pre, err := a.symbols(prefix)
	if err != nil {
		return false, err
	}
	cyc, err := a.symbols(cycle)
	if err != nil {
		return false, err
	}
	cur := a.Initial
	for _, sym := range pre {
		next, ok := a.Step(cur, sym)
		if !ok {
			return false, nil
		}
		cur = next
	}
	seen := map[int]bool{}
	sawAccepting := map[int]bool{}
	for !seen[cur] {
		seen[cur] = true
		start := cur
		accepting := false
		for _, sym := range cyc {
			next, ok := a.Step(cur, sym)
			if !ok {
				return false, nil
			}
			cur = next
			if a.Accepting(cur) {
				accepting = true
			}
		}
		sawAccepting[start] = accepting
	}
	// cur repeats: from here on, the same boundary states recur; accepted
	// iff the loop from the repeated state sees an accepting state.
	start := cur
	for {
		if sawAccepting[cur] {
			return true, nil
		}
		for _, sym := range cyc {
			next, _ := a.Step(cur, sym)
			cur = next
		}
		if cur == start {
			return false, nil
		}
	}
}
