package sticky

import (
	"context"
	"fmt"

	"airct/internal/buchi"
	"airct/internal/chase"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// Verdict is the outcome of the CT^res_∀∀(S) decision.
type Verdict struct {
	// Terminates is true when every restricted chase derivation of every
	// database is finite: L(A_T) = ∅.
	Terminates bool
	// Method is "buchi-empty" (all component automata empty),
	// "buchi-witness" (an accepting lasso was found) or "seed-cap" (the set
	// has more than MaxSeeds components, and none was explored).
	Method string
	// Seed is the component A_{e₀,Π₀} producing the witness.
	Seed *Seed
	// Lasso is the accepting lasso (symbol keys) when diverging: the
	// caterpillar word prefix·cycle^ω encodes a free connected caterpillar.
	Lasso *buchi.Lasso
	// StatesExplored totals explored product states across components.
	StatesExplored int
	// Complete is false when some component exploration hit the state
	// bound, or the seed cap stopped the decision, in which case a
	// terminating verdict is only bound-relative.
	Complete bool
}

// DefaultMaxStates is the per-component state bound that a zero
// DecideOptions.MaxStates selects.
const DefaultMaxStates = 200_000

// MaxSeeds caps the components A_{e₀,Π₀} one decision explores. One n-ary
// predicate alone has B(n+1) − B(n) of them (Bell numbers): 94,828 at
// n = 9 and 23,430,840 at n = 12. A set with more abstains as incomplete
// before any component is explored.
const MaxSeeds = 100_000

// DecideOptions configures the decision. A decision is not memoised here:
// the portfolio's stage ledger memoises the whole answer it is part of.
type DecideOptions struct {
	// MaxStates bounds each component's explored state space (0:
	// DefaultMaxStates).
	MaxStates int
}

func (o DecideOptions) maxStates() int {
	if o.MaxStates <= 0 {
		return DefaultMaxStates
	}
	return o.MaxStates
}

// Decide decides CT^res_∀∀(S) for a sticky set by the paper's own
// algorithm (Theorem 6.1 / Appendix D.2): build the deterministic Büchi
// automaton A_T = ⋃_{(e,Π)} A_{e,Π} over caterpillar words and test
// emptiness. A non-empty component yields a lasso encoding a free
// connected caterpillar, hence (Theorem 6.5 + Theorem 4.1) a database with
// an infinite fair restricted chase derivation; emptiness of every
// component certifies termination on all instances.
func Decide(set *tgds.Set, opts DecideOptions) (*Verdict, error) {
	return DecideContext(context.Background(), set, opts)
}

// DecideContext is Decide under a context: the per-component Büchi
// exploration polls ctx.Done() (buchi.ExploreContext) and a cancelled call
// returns ctx's error instead of a verdict — a partial exploration is never
// interpreted. Uncancelled calls behave identically to Decide.
func DecideContext(ctx context.Context, set *tgds.Set, opts DecideOptions) (*Verdict, error) {
	if set.HasEGDs() {
		return nil, fmt.Errorf("sticky: Decide is TGD-only; the set has %d EGDs", set.NumEGDs())
	}
	if !set.IsSingleHead() {
		return nil, fmt.Errorf("sticky: Decide requires single-head TGDs")
	}
	ok, marking, err := tgds.IsSticky(set)
	if err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("sticky: input is not sticky: %v", marking.Violation())
	}
	seeds := 0
	forEachSeed(set, func(Seed) bool {
		seeds++
		return seeds <= MaxSeeds
	})
	if seeds > MaxSeeds {
		return &Verdict{Terminates: true, Method: "seed-cap"}, nil
	}
	m := newMachine(set, marking)
	verdict := &Verdict{Terminates: true, Method: "buchi-empty", Complete: true}
	var cancelled error
	forEachSeed(set, func(seed Seed) bool {
		explored := buchi.ExploreContext(ctx, m.automaton(seed), opts.maxStates())
		if cancelled = ctx.Err(); cancelled != nil {
			return false
		}
		verdict.StatesExplored += explored.Len()
		if !explored.Complete {
			verdict.Complete = false
		}
		if lasso, ok := explored.NonEmpty(); ok {
			verdict = &Verdict{
				Terminates:     false,
				Method:         "buchi-witness",
				Seed:           &seed,
				Lasso:          lasso,
				StatesExplored: verdict.StatesExplored,
				Complete:       true,
			}
			return false
		}
		return true
	})
	if cancelled != nil {
		return nil, cancelled
	}
	return verdict, nil
}

// MaterializeWitness turns an accepting lasso into a concrete finitary
// caterpillar prefix: it unrolls prefix + pumps·cycle symbols, binding γ
// variables to the running path atom, leg variables to constants reused
// per cycle position (the Lemma 6.13 unification), and existential
// variables to fresh nulls. The returned caterpillar's legs and first body
// atom, L ∪ {α_0}, form a finite database whose restricted chase replays
// the path. Materialisation fails when a lasso key is not in the set's
// alphabet, or when a leg atom would need an invented (null) term — a
// pattern the unifying-function proof handles but this direct construction
// does not.
func MaterializeWitness(set *tgds.Set, seed Seed, lasso *buchi.Lasso, pumps int) (*Caterpillar, error) {
	if pumps < 1 {
		pumps = 1
	}
	// The lasso spells symbol keys of the alphabet the automaton was built
	// over.
	alphabet := make(map[string]Symbol)
	for _, s := range Alphabet(set) {
		alphabet[s.Key()] = s
	}
	var symbols []Symbol
	var slots []string // leg-constant reuse key per step
	add := func(k, slot string) error {
		s, ok := alphabet[k]
		if !ok {
			return fmt.Errorf("sticky: lasso symbol %q is not in the alphabet", k)
		}
		symbols = append(symbols, s)
		slots = append(slots, slot)
		return nil
	}
	for i, k := range lasso.Prefix {
		if err := add(k, fmt.Sprintf("p%d", i)); err != nil {
			return nil, err
		}
	}
	for p := 0; p < pumps; p++ {
		for i, k := range lasso.Cycle {
			if err := add(k, fmt.Sprintf("c%d", i)); err != nil {
				return nil, err
			}
		}
	}
	namer := logic.NewFreshNamer("w")
	cat := &Caterpillar{}
	alpha := seed.EType.CanonicalAtomFunc(func(class int) logic.Term {
		return logic.Const(fmt.Sprintf("a0_%d", class))
	})
	cat.Body = append(cat.Body, alpha)
	legSeen := make(map[string]bool)
	legConst := make(map[string]logic.Term)
	for i, sym := range symbols {
		t := set.TGDs[sym.TGDIndex]
		gamma := t.Body[sym.Gamma]
		h := logic.NewSubstitution()
		okBind := true
		for p := 1; p <= gamma.Pred.Arity; p++ {
			v := gamma.Arg(p)
			if prev, ok := h[v]; ok {
				if prev != alpha.Arg(p) {
					okBind = false
					break
				}
				continue
			}
			h.Bind(v, alpha.Arg(p))
		}
		if !okBind {
			return nil, fmt.Errorf("sticky: step %d: γ does not match the path atom", i+1)
		}
		// Leg variables: constants reused per slot.
		for bi, b := range t.Body {
			if bi == sym.Gamma {
				continue
			}
			for p := 1; p <= b.Pred.Arity; p++ {
				v := b.Arg(p)
				if _, ok := h[v]; ok {
					continue
				}
				key := fmt.Sprintf("%s|%d|%s", slots[i], sym.TGDIndex, v.Name)
				c, ok := legConst[key]
				if !ok {
					c = logic.Const(fmt.Sprintf("leg_%s_%s", slots[i], v.Name))
					legConst[key] = c
				}
				h.Bind(v, c)
			}
		}
		for bi, b := range t.Body {
			if bi == sym.Gamma {
				continue
			}
			legAtom := b.Apply(h)
			if !legAtom.IsFact() {
				return nil, fmt.Errorf("sticky: step %d: leg %v needs an invented term; direct materialisation unsupported", i+1, legAtom)
			}
			if !legSeen[legAtom.Key()] {
				legSeen[legAtom.Key()] = true
				cat.Legs = append(cat.Legs, legAtom)
			}
		}
		// Next path atom.
		head := t.HeadAtom()
		frontier := t.Frontier()
		args := make([]logic.Term, head.Pred.Arity)
		fresh := make(map[logic.Term]logic.Term)
		for p := 1; p <= head.Pred.Arity; p++ {
			v := head.Arg(p)
			if frontier.Has(v) {
				args[p-1] = h.ApplyTerm(v)
				continue
			}
			n, ok := fresh[v]
			if !ok {
				n = namer.NextNull()
				fresh[v] = n
			}
			args[p-1] = n
		}
		next := logic.NewAtom(head.Pred, args...)
		cat.Triggers = append(cat.Triggers, chase.NewTrigger(sym.TGDIndex, t, h))
		cat.Gammas = append(cat.Gammas, sym.Gamma)
		cat.Body = append(cat.Body, next)
		alpha = next
	}
	return cat, nil
}
