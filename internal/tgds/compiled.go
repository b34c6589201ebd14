package tgds

import (
	"slices"

	"airct/internal/logic"
)

// Compiled is a set's TGDs over dense IDs: the one view of the rules that
// the stickiness marking and the acyclicity checks read, so that none of
// them builds its own Term- or Position-keyed index of the set. Predicates
// get dense IDs and consecutive position IDs, and every TGD's variables
// become slots. Set.Compiled builds it once and memoises it. It covers the
// TGDs only, and is read-only.
type Compiled struct {
	// Preds lists the TGDs' predicates by dense ID, in order of first
	// occurrence (each TGD's body, then its head).
	Preds []logic.Predicate
	// PosOff[p] is the ID of position (p, 1), so the 1-based position
	// (p, i) is PosOff[p]+i-1, and PosOff[len(Preds)] counts the positions.
	PosOff []int32
	// Rules holds one compiled TGD per member of Set.TGDs, in set order.
	Rules []Rule
	// NumSlots counts the slots of every rule. Rule r's slots carry the
	// set-wide IDs Rules[r].Base to Rules[r].Base+len(Rules[r].Vars)-1.
	NumSlots int32
}

// Rule is one TGD over variable slots. Slots are numbered body first: the
// body variables take slots 0 to NBody-1 and the existential variables the
// slots after them, each group in name order, so every slot from NBody on
// is existential.
type Rule struct {
	Body, Head []SlotAtom
	// NBody counts the body slots.
	NBody int32
	// Base is the set-wide ID of slot 0.
	Base int32
	// Vars holds the variable of each slot.
	Vars []logic.Term
	// Frontier flags the body slots whose variable occurs in the head.
	Frontier []bool
	// Guarded reports whether some body atom holds every body slot.
	Guarded bool
}

// SlotAtom is a compiled atom: a dense predicate ID and the slot of each
// argument.
type SlotAtom struct {
	Pred  int32
	Slots []int32
}

// Pos returns the dense ID of the atom's i-th (0-based) position.
func (c *Compiled) Pos(a SlotAtom, i int) int32 { return c.PosOff[a.Pred] + int32(i) }

// NumPositions counts the positions of the TGDs' predicates.
func (c *Compiled) NumPositions() int32 { return c.PosOff[len(c.Preds)] }

// Compiled returns the set's compiled form, built on first use and
// memoised like Fingerprint; safe for concurrent use. Callers must not
// mutate TGDs after the first call.
func (s *Set) Compiled() *Compiled {
	s.compOnce.Do(func() { s.comp = compile(s.TGDs) })
	return s.comp
}

// compile builds the compiled form. Each TGD's variables are sorted and
// compacted, and each argument finds its slot by binary search, so no map
// is keyed by a term. Every slab is sized up front, so the per-rule slices
// into it stay valid.
func compile(ts []TGD) *Compiled {
	nAtoms, nArgs, maxArgs := 0, 0, 0
	for _, t := range ts {
		nAtoms += len(t.Body) + len(t.Head)
		n := 0
		for _, a := range t.Body {
			n += len(a.Args)
		}
		for _, a := range t.Head {
			n += len(a.Args)
		}
		nArgs += n
		maxArgs = max(maxArgs, n)
	}
	b := compiler{
		c:      &Compiled{Preds: make([]logic.Predicate, 0, nAtoms), Rules: make([]Rule, len(ts))},
		atoms:  make([]SlotAtom, 0, nAtoms),
		slots:  make([]int32, 0, nArgs),
		predID: make(map[logic.Predicate]int32, nAtoms),
	}
	c := b.c
	vars := make([]logic.Term, 0, nArgs)
	frontier := make([]bool, nArgs)
	scratch := make([]logic.Term, 0, maxArgs)
	seen := make([]int32, 0, maxArgs) // per body slot: the last body atom, 1-based, that held it
	for r, t := range ts {
		scratch = scratch[:0]
		for _, a := range t.Body {
			scratch = append(scratch, a.Args...)
		}
		from := len(vars)
		vars = append(vars, sortedVars(scratch)...)
		body := vars[from:]
		nb := len(body)
		scratch = scratch[:0]
		for _, a := range t.Head {
			for _, v := range a.Args {
				if _, ok := slices.BinarySearchFunc(body, v, logic.Term.Compare); !ok {
					scratch = append(scratch, v)
				}
			}
		}
		vars = append(vars, sortedVars(scratch)...)
		rule := Rule{
			NBody:    int32(nb),
			Base:     c.NumSlots,
			Vars:     vars[from:len(vars):len(vars)],
			Frontier: frontier[:nb:nb],
		}
		frontier = frontier[nb:]
		rule.Body = b.atomsOf(t.Body, &rule, false)
		rule.Head = b.atomsOf(t.Head, &rule, true)
		seen = append(seen[:0], make([]int32, nb)...)
		for i, a := range rule.Body {
			held := 0
			for _, x := range a.Slots {
				if seen[x] != int32(i+1) {
					seen[x] = int32(i + 1)
					held++
				}
			}
			rule.Guarded = rule.Guarded || held == nb
		}
		c.Rules[r] = rule
		c.NumSlots += int32(len(rule.Vars))
	}
	c.PosOff = make([]int32, len(c.Preds)+1)
	for p, pred := range c.Preds {
		c.PosOff[p+1] = c.PosOff[p] + int32(pred.Arity)
	}
	return c
}

// compiler holds compile's atom and slot slabs and its predicate IDs.
type compiler struct {
	c      *Compiled
	atoms  []SlotAtom
	slots  []int32
	predID map[logic.Predicate]int32
}

// atomsOf compiles the atoms over the rule's slot variables and returns
// them as a slice of the atom slab. In the head, it flags each body slot
// it meets as frontier.
func (b *compiler) atomsOf(as []logic.Atom, r *Rule, isHead bool) []SlotAtom {
	body, exist := r.Vars[:r.NBody], r.Vars[r.NBody:]
	start := len(b.atoms)
	for _, a := range as {
		p, ok := b.predID[a.Pred]
		if !ok {
			p = int32(len(b.c.Preds))
			b.predID[a.Pred] = p
			b.c.Preds = append(b.c.Preds, a.Pred)
		}
		from := len(b.slots)
		for _, v := range a.Args {
			i, ok := slices.BinarySearchFunc(body, v, logic.Term.Compare)
			switch {
			case ok && isHead:
				r.Frontier[i] = true
			case !ok:
				i, _ = slices.BinarySearchFunc(exist, v, logic.Term.Compare)
				i += len(body)
			}
			b.slots = append(b.slots, int32(i))
		}
		b.atoms = append(b.atoms, SlotAtom{Pred: p, Slots: b.slots[from:len(b.slots):len(b.slots)]})
	}
	return b.atoms[start:len(b.atoms):len(b.atoms)]
}

// sortedVars sorts the terms in place by name and drops repeats.
func sortedVars(ts []logic.Term) []logic.Term {
	slices.SortFunc(ts, logic.Term.Compare)
	return slices.Compact(ts)
}

// CSR is a compressed sparse row index over the keys 0..n-1: the values
// under key k are Val[Off[k]:Off[k+1]], in the order they were put. The
// marking and the acyclicity checks index the compiled form's positions
// and slots this way.
type CSR[T any] struct {
	Off []int32
	Val []T
}

// At returns the values under key k.
func (x CSR[T]) At(k int32) []T { return x.Val[x.Off[k]:x.Off[k+1]] }

// BuildCSR builds a CSR index over n keys from the values each puts. It
// runs each twice, once to count and once to fill, so each must put the
// same values both times.
func BuildCSR[T any](n int32, each func(put func(k int32, v T))) CSR[T] {
	off := make([]int32, n+1)
	each(func(k int32, _ T) { off[k+1]++ })
	for k := range n {
		off[k+1] += off[k]
	}
	val := make([]T, off[n])
	fill := slices.Clone(off[:n])
	each(func(k int32, v T) {
		val[fill[k]] = v
		fill[k]++
	})
	return CSR[T]{Off: off, Val: val}
}
