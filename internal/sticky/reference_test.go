package sticky

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"airct/internal/buchi"
	"airct/internal/etypes"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// This file keeps the string-keyed Büchi kernel — the explorer over opaque
// string states and the product machine whose states are rendered keys —
// as the reference the integer kernel is checked against
// (identity_test.go). It is the pre-interning implementation, unchanged
// apart from names.

type refAutomaton struct {
	Alphabet  []string
	Initial   string
	Step      func(state, symbol string) (next string, ok bool)
	Accepting func(state string) bool
}

type refExplored struct {
	States   []string
	Index    map[string]int
	Alphabet []string
	Trans    [][]int
	Accept   []bool
	Complete bool
}

func refExplore(a *refAutomaton, maxStates int) *refExplored {
	if maxStates <= 0 {
		maxStates = 100_000
	}
	e := &refExplored{Index: make(map[string]int), Alphabet: a.Alphabet, Complete: true}
	add := func(s string) int {
		if i, ok := e.Index[s]; ok {
			return i
		}
		i := len(e.States)
		e.Index[s] = i
		e.States = append(e.States, s)
		e.Trans = append(e.Trans, nil)
		e.Accept = append(e.Accept, a.Accepting(s))
		return i
	}
	queue := []int{add(a.Initial)}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if e.Trans[cur] != nil {
			continue
		}
		row := make([]int, len(a.Alphabet))
		for ai, sym := range a.Alphabet {
			next, ok := a.Step(e.States[cur], sym)
			if !ok {
				row[ai] = -1
				continue
			}
			if _, seen := e.Index[next]; !seen && len(e.States) >= maxStates {
				e.Complete = false
				row[ai] = -1
				continue
			}
			ni := add(next)
			row[ai] = ni
			if e.Trans[ni] == nil {
				queue = append(queue, ni)
			}
		}
		e.Trans[cur] = row
	}
	return e
}

func (e *refExplored) NonEmpty() (*buchi.Lasso, bool) {
	type crumb struct {
		prev int
		sym  int
	}
	reach := make([]crumb, len(e.States))
	for i := range reach {
		reach[i] = crumb{prev: -2}
	}
	reach[0] = crumb{prev: -1}
	queue := []int{0}
	order := []int{0}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for ai, next := range e.Trans[cur] {
			if next < 0 || reach[next].prev != -2 {
				continue
			}
			reach[next] = crumb{prev: cur, sym: ai}
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
		var prefix []string
		for cur := q; reach[cur].prev >= 0; cur = reach[cur].prev {
			prefix = append([]string{e.Alphabet[reach[cur].sym]}, prefix...)
		}
		return &buchi.Lasso{Prefix: prefix, Cycle: cycle, Gap: e.cycleGap(q, cycle)}, true
	}
	return nil, false
}

func (e *refExplored) cycleThrough(q int) ([]string, bool) {
	type crumb struct {
		prev int
		sym  int
	}
	seen := make([]crumb, len(e.States))
	for i := range seen {
		seen[i] = crumb{prev: -2}
	}
	queue := []int{q}
	seen[q] = crumb{prev: -1}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for ai, next := range e.Trans[cur] {
			if next < 0 {
				continue
			}
			if next == q {
				syms := []string{e.Alphabet[ai]}
				for c := cur; seen[c].prev >= 0; c = seen[c].prev {
					syms = append([]string{e.Alphabet[seen[c].sym]}, syms...)
				}
				return syms, true
			}
			if seen[next].prev == -2 {
				seen[next] = crumb{prev: cur, sym: ai}
				queue = append(queue, next)
			}
		}
	}
	return nil, false
}

func (e *refExplored) cycleGap(q int, cycle []string) int {
	symIndex := make(map[string]int, len(e.Alphabet))
	for i, s := range e.Alphabet {
		symIndex[s] = i
	}
	gap, run := 0, 0
	cur := q
	for _, s := range cycle {
		cur = e.Trans[cur][symIndex[s]]
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

type refTrackedType struct {
	pred  logic.Predicate
	rep   []int
	label []int
}

func (tt refTrackedType) key() string {
	var b strings.Builder
	b.WriteString(tt.pred.Name)
	fmt.Fprintf(&b, "/%d:", tt.pred.Arity)
	for i := range tt.rep {
		fmt.Fprintf(&b, "%d.%d,", tt.rep[i], tt.label[i])
	}
	return b.String()
}

type refPathState struct {
	etype   etypes.EType
	tracked []refTrackedType
	pi1     []int
	pi2     []int
	accept  bool
}

func (s refPathState) key() string {
	var b strings.Builder
	b.WriteString(s.etype.Key())
	b.WriteByte('|')
	for _, tt := range s.tracked {
		b.WriteString(tt.key())
		b.WriteByte(';')
	}
	b.WriteByte('|')
	fmt.Fprintf(&b, "%v|%v|%v", s.pi1, s.pi2, s.accept)
	return b.String()
}

type refMachine struct {
	set     *tgds.Set
	marking *tgds.Marking
	symbols map[string]Symbol
	states  map[string]refPathState
}

func newRefMachine(set *tgds.Set) (*refMachine, error) {
	marking, err := tgds.ComputeMarking(set)
	if err != nil {
		return nil, err
	}
	if v := marking.Violation(); v != nil {
		return nil, fmt.Errorf("sticky: set is not sticky: %v", v)
	}
	m := &refMachine{
		set:     set,
		marking: marking,
		symbols: make(map[string]Symbol),
		states:  make(map[string]refPathState),
	}
	for _, s := range Alphabet(set) {
		m.symbols[s.Key()] = s
	}
	return m, nil
}

func (m *refMachine) intern(s refPathState) string {
	k := s.key()
	if _, ok := m.states[k]; !ok {
		m.states[k] = s
	}
	return k
}

func (m *refMachine) step(s refPathState, sym Symbol) (refPathState, bool) {
	t := m.set.TGDs[sym.TGDIndex]
	gamma := t.Body[sym.Gamma]
	head := t.HeadAtom()
	n := gamma.Pred.Arity
	if gamma.Pred != s.etype.Pred {
		return refPathState{}, false
	}
	h := make(map[logic.Term]int)
	for p := 1; p <= n; p++ {
		v := gamma.Arg(p)
		c := s.etype.ClassOf(p)
		if prev, ok := h[v]; ok {
			if prev != c {
				return refPathState{}, false
			}
			continue
		}
		h[v] = c
	}
	mHead := head.Pred.Arity
	rep := make([]int, mHead)
	for i := 0; i < mHead; i++ {
		rep[i] = i
		vi := head.Args[i]
		for j := 0; j < i; j++ {
			vj := head.Args[j]
			same := vi == vj
			if !same {
				ci, oki := h[vi]
				cj, okj := h[vj]
				same = oki && okj && ci == cj
			}
			if same {
				rep[i] = rep[j]
				break
			}
		}
	}
	newType, err := etypes.FromPartition(head.Pred, rep)
	if err != nil {
		return refPathState{}, false
	}
	oldToNew := make(map[int]int)
	for p := 1; p <= mHead; p++ {
		if c, ok := h[head.Arg(p)]; ok {
			oldToNew[c] = newType.ClassOf(p)
		}
	}
	frontier := t.Frontier()
	frontierClass := make(map[int]bool)
	for p := 1; p <= mHead; p++ {
		if frontier.Has(head.Arg(p)) {
			frontierClass[newType.ClassOf(p)] = true
		}
	}
	newTracked := make([]refTrackedType, 0, len(s.tracked)+1)
	seen := make(map[string]bool)
	push := func(tt refTrackedType) {
		k := tt.key()
		if !seen[k] {
			seen[k] = true
			newTracked = append(newTracked, tt)
		}
	}
	for _, tt := range append(s.tracked, refSelfType(s.etype)) {
		upd := refTrackedType{pred: tt.pred, rep: tt.rep, label: make([]int, len(tt.label))}
		for i, lbl := range tt.label {
			if lbl < 0 {
				upd.label[i] = -1
			} else if nc, ok := oldToNew[lbl]; ok {
				upd.label[i] = nc
			} else {
				upd.label[i] = -1
			}
		}
		if refStops(upd, newType, frontierClass) {
			return refPathState{}, false
		}
		push(upd)
	}
	sort.Slice(newTracked, func(i, j int) bool { return newTracked[i].key() < newTracked[j].key() })
	dpos := func(pi []int) []int {
		vars := make(map[logic.Term]bool)
		for _, j := range pi {
			if j <= n {
				vars[gamma.Arg(j)] = true
			}
		}
		var out []int
		for i := 1; i <= mHead; i++ {
			if vars[head.Arg(i)] {
				out = append(out, i)
			}
		}
		return out
	}
	d1 := dpos(s.pi1)
	d2 := dpos(s.pi2)
	if len(d1) == 0 {
		return refPathState{}, false
	}
	for _, i := range d2 {
		v := head.Arg(i)
		if frontier.Has(v) && !m.marking.IsMarked(v) {
			return refPathState{}, false
		}
	}
	next := refPathState{etype: newType, tracked: newTracked}
	if len(sym.P) > 0 {
		next.pi1 = append([]int(nil), sym.P...)
		next.pi2 = refMergeSorted(sym.P, refMergeSorted(d1, d2))
		next.accept = true
	} else {
		next.pi1 = d1
		next.pi2 = refMergeSorted(d1, d2)
		next.accept = false
	}
	return next, true
}

func refSelfType(e etypes.EType) refTrackedType {
	n := e.Pred.Arity
	tt := refTrackedType{pred: e.Pred, rep: make([]int, n), label: make([]int, n)}
	for i := 1; i <= n; i++ {
		tt.rep[i-1] = e.ClassOf(i) - 1
		tt.label[i-1] = e.ClassOf(i)
	}
	return tt
}

func refStops(tt refTrackedType, e etypes.EType, frontierClass map[int]bool) bool {
	if tt.pred != e.Pred {
		return false
	}
	n := e.Pred.Arity
	target := make(map[int]int)
	for p := 1; p <= n; p++ {
		nc := e.ClassOf(p)
		oc := tt.rep[p-1]
		if prev, ok := target[nc]; ok {
			if prev != oc {
				return false
			}
			continue
		}
		target[nc] = oc
	}
	for p := 1; p <= n; p++ {
		nc := e.ClassOf(p)
		if frontierClass[nc] && tt.label[target[nc]] != nc {
			return false
		}
	}
	return true
}

func refMergeSorted(a, b []int) []int {
	set := make(map[int]bool, len(a)+len(b))
	for _, x := range a {
		set[x] = true
	}
	for _, x := range b {
		set[x] = true
	}
	out := make([]int, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

func refBuildAutomaton(set *tgds.Set, seed Seed) (*refAutomaton, error) {
	m, err := newRefMachine(set)
	if err != nil {
		return nil, err
	}
	initial := refPathState{etype: seed.EType, pi1: append([]int(nil), seed.Pi0...), pi2: append([]int(nil), seed.Pi0...)}
	keys := make([]string, 0, len(m.symbols))
	for _, s := range Alphabet(set) {
		keys = append(keys, s.Key())
	}
	return &refAutomaton{
		Alphabet: keys,
		Initial:  m.intern(initial),
		Step: func(stateKey, symKey string) (string, bool) {
			st, ok := m.states[stateKey]
			if !ok {
				return "", false
			}
			next, ok := m.step(st, m.symbols[symKey])
			if !ok {
				return "", false
			}
			return m.intern(next), true
		},
		Accepting: func(stateKey string) bool { return m.states[stateKey].accept },
	}, nil
}

// refSeeds enumerates the (e₀, Π₀) pairs eagerly, from
// etypes.AllForSchema: the order forEachSeed must yield them in.
func refSeeds(set *tgds.Set) []Seed {
	var out []Seed
	for _, e := range etypes.AllForSchema(set.Schema()) {
		for _, c := range e.Classes() {
			positions := []int{}
			for p := 1; p <= e.Pred.Arity; p++ {
				if e.ClassOf(p) == c {
					positions = append(positions, p)
				}
			}
			out = append(out, Seed{EType: e, Pi0: positions})
		}
	}
	return out
}

// refDecide is the string-kernel decision loop: the same component order,
// the same verdict assembly as DecideContext without a cache.
func refDecide(set *tgds.Set, maxStates int) (*Verdict, error) {
	if _, err := DecideContext(context.Background(), set, DecideOptions{MaxStates: 1}); err != nil {
		return nil, err // the same gates as the live decider
	}
	verdict := &Verdict{Terminates: true, Method: "buchi-empty", Complete: true}
	for _, seed := range refSeeds(set) {
		a, err := refBuildAutomaton(set, seed)
		if err != nil {
			return nil, err
		}
		explored := refExplore(a, maxStates)
		verdict.StatesExplored += len(explored.States)
		if !explored.Complete {
			verdict.Complete = false
		}
		if lasso, ok := explored.NonEmpty(); ok {
			seedCopy := seed
			return &Verdict{
				Terminates:     false,
				Method:         "buchi-witness",
				Seed:           &seedCopy,
				Lasso:          lasso,
				StatesExplored: verdict.StatesExplored,
				Complete:       true,
			}, nil
		}
	}
	return verdict, nil
}
