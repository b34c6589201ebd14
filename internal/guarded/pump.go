package guarded

import (
	"context"
	"fmt"
	"slices"

	"airct/internal/chase"
	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// stepLog is one battery run's derivation on the ID plane, recorded through
// chase.Options.OnStep: per applied step, the TGD index, the trigger's body
// TermIDs, the head atom's insertion index and the instance length after the
// step. It is all the pump miner reads, so the battery records no
// chase.Step. reset empties the log and keeps its capacity.
type stepLog struct {
	base int      // instance length before the first step: the seed's size
	tgd  []int32  // per step: the TGD index
	head []int32  // per step: the head atom's insertion index
	mark []int32  // per step: the instance length after the step
	body []uint32 // every step's body TermIDs, concatenated
	boff []int32  // step i's body is body[boff[i]:boff[i+1]]
}

func (l *stepLog) reset(base int) {
	l.base = base
	l.tgd, l.head, l.mark, l.body = l.tgd[:0], l.head[:0], l.mark[:0], l.body[:0]
	l.boff = append(l.boff[:0], 0)
}

// record is the log's chase.StepObserver.
func (l *stepLog) record(tgd int, body []uint32, head int32, length int) {
	l.tgd = append(l.tgd, int32(tgd))
	l.head = append(l.head, head)
	l.mark = append(l.mark, int32(length))
	l.body = append(l.body, body...)
	l.boff = append(l.boff, int32(len(l.body)))
}

// chaseLogged runs one battery order in the arena, bound to the set: no
// recorded steps, the step log filled through the observer. The run's Final
// is the instance the log's insertion indices and TermIDs refer to; both
// stay valid until the arena's next run.
func chaseLogged(ctx context.Context, a *chase.Arena, seed *instance.Database, o chase.Options, log *stepLog) *chase.Run {
	log.reset(seed.Len())
	o.DropSteps, o.OnStep = true, log.record
	return a.Run(ctx, seed, o)
}

// pump mines the logged run for a guard-chain pump: two steps on the same
// guard-ancestor chain whose head atoms share the Λ_T letter (TGD, equality
// type, guard-sharing pairs), both introducing fresh nulls. fin is the
// run's final instance. Such a repetition is the certificate the paper's
// regularity argument over the finite alphabet Λ_T builds an infinite
// chaseable abstract join tree from, but a letter ignores side atoms, so
// the pump is unchecked: ROADMAP item 1 gives a terminating set that has
// one, and item 1(b) is the replay that would check it.
//
// The returned depth is the 1-based index of the later step of the
// repeated pair: the certificate lives in the run's first depth steps,
// which a chase of the same order repeats at any larger budget. The walk is
// the reference DivergencePump's (pump_ref_test.go) on interned identity: a
// step's guard image is found by its insertion index, an atom's producing
// step comes from the length marks, and letters and freshness compare
// TermIDs.
func (l *stepLog) pump(set *tgds.Set, fin *instance.Instance) (string, int, bool) {
	n := len(l.tgd)
	if n == 0 {
		return "", 0, false
	}
	itab := fin.Interner()
	// producer[x-base] is the step that inserted the atom at index x: step
	// i inserted the indices from step i-1's mark up to its own.
	producer := make([]int32, int(l.mark[n-1])-l.base)
	prev := l.base
	for i, m := range l.mark {
		for x := prev; x < int(m); x++ {
			producer[x-l.base] = int32(i)
		}
		prev = int(m)
	}
	type info struct {
		parent int32 // step that produced the guard image; -1 for a seed atom
		sig    int32 // interned Λ_T letter
		fresh  bool  // the head atom invents a null at this step
	}
	infos := make([]info, n)
	letters := logic.NewTupleTable(64)
	guards := make([]*logic.CAtom, len(set.TGDs))
	var buf []uint32
	var img []logic.TermID
	for i := 0; i < n; i++ {
		t := int(l.tgd[i])
		g := guards[t]
		if g == nil {
			var ok bool
			if g, ok = compileGuard(set.TGDs[t], itab); !ok {
				return "", 0, false
			}
			guards[t] = g
		}
		bt := l.body[l.boff[i]:l.boff[i+1]]
		img = img[:0]
		for _, a := range g.Args {
			if a.Slot < 0 {
				img = append(img, a.ID)
			} else {
				img = append(img, logic.TermID(bt[a.Slot]))
			}
		}
		parent := int32(-1)
		if x, ok := fin.TupleIndex(g.Pred, img); ok && int(x) >= l.base {
			parent = producer[int(x)-l.base]
		}
		produced := fin.AtomArgIDs(l.head[i])
		buf = appendLetterIDs(buf[:0], t, produced, img)
		sig, _ := letters.Intern(buf)
		infos[i] = info{parent: parent, sig: sig, fresh: freshNullIDs(itab, produced, img)}
	}
	// Walk guard chains from each step upward, looking for a repeated
	// letter whose steps invent fresh nulls — a repetition of a null-free
	// letter cannot grow the term set and is no pump (a terminating cycle
	// closed by a frontier-free existential TGD would otherwise be misread
	// as divergence). seenIn[sig] == i+1 marks a letter met on the walk
	// from step i, first at step seenAt[sig].
	seenIn := make([]int, letters.Len())
	seenAt := make([]int, letters.Len())
	for i := n - 1; i >= 0; i-- {
		walk := i + 1
		seenIn[infos[i].sig], seenAt[infos[i].sig] = walk, i
		cur := i
		for {
			parentStep := int(infos[cur].parent)
			if parentStep < 0 || parentStep >= cur {
				break
			}
			sig := infos[parentStep].sig
			if seenIn[sig] == walk {
				if first := seenAt[sig]; infos[parentStep].fresh && infos[first].fresh {
					label := set.TGDs[l.tgd[parentStep]].Label
					return fmt.Sprintf("guard-chain pump: %s repeats signature between steps %d and %d (period %d)",
						label, parentStep, first, first-parentStep), first + 1, true
				}
			} else {
				seenIn[sig], seenAt[sig] = walk, parentStep
			}
			cur = parentStep
		}
	}
	return "", 0, false
}

// compileGuard compiles the TGD's guard, TGD.Guard(), over the engine's
// body slots (the sorted body variables, StepObserver's order); constants
// are interned into itab.
func compileGuard(t tgds.TGD, itab *logic.Interner) (*logic.CAtom, bool) {
	guard, ok := t.Guard()
	if !ok {
		return nil, false
	}
	vars := t.BodyVars().Sorted()
	slots := make(map[logic.Term]int32, len(vars))
	for i, v := range vars {
		slots[v] = int32(i)
	}
	p := logic.CompilePattern([]logic.Atom{guard}, len(vars), func(v logic.Term) int32 { return slots[v] }, itab)
	return &p.Atoms[0], true
}

// appendLetterIDs appends a head atom's Λ_T letter to dst as an integer
// tuple: the TGD index, the atom's equality type (each position's first
// equal position) and the (head atom, guard image) position pairs that
// carry the same term. In a single-head guarded set the TGD fixes the head
// atom's predicate and the guard's, hence both arities, so two steps get
// the same tuple iff they have the same letter.
func appendLetterIDs(dst []uint32, tgd int, produced []uint32, guard []logic.TermID) []uint32 {
	dst = append(dst, uint32(tgd))
	for i, t := range produced {
		rep := slices.Index(produced[:i], t)
		if rep < 0 {
			rep = i
		}
		dst = append(dst, uint32(rep))
	}
	for i, t := range produced {
		for j, u := range guard {
			if logic.TermID(t) == u {
				dst = append(dst, uint32(i), uint32(j))
			}
		}
	}
	return dst
}

// freshNullIDs reports whether the head atom carries a null that does not
// occur in its guard image. In a guarded TGD the guard contains every body
// variable, so every propagated term of the head atom appears in the guard
// image — a null absent from it was invented by this very step.
func freshNullIDs(itab *logic.Interner, produced []uint32, guard []logic.TermID) bool {
	for _, t := range produced {
		if itab.Term(logic.TermID(t)).IsNull() && !slices.Contains(guard, logic.TermID(t)) {
			return true
		}
	}
	return false
}
