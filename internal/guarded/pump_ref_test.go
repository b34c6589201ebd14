package guarded

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"airct/internal/chase"
	"airct/internal/etypes"
	"airct/internal/logic"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// DivergencePump is the step-log miner's reference: the same guard-chain
// walk over a run with recorded steps, keyed on atoms. It mines a
// restricted chase run for two steps on the same guard-ancestor chain whose
// produced atoms share the (TGD, equality type, guard-sharing pattern)
// signature, both introducing fresh nulls — an unchecked pump (see
// stepLog.pump). The returned depth is the 1-based index of the later step
// of the repeated pair.
func DivergencePump(run *chase.Run) (string, int, bool) {
	type info struct {
		parentFP logic.Fingerprint // guard image atom hash
		sig      int32             // interned Λ_T letter
		fresh    bool              // produced atom invents a null at this step
	}
	infos := make([]info, len(run.Steps))
	producedBy := make(map[logic.Fingerprint]int) // atom hash -> producing step
	letters := logic.NewTupleTable(64)
	guards := make(map[int]logic.Atom) // per TGD index
	var buf []uint32
	for i, step := range run.Steps {
		tr := step.Trigger
		guard, ok := guards[tr.TGDIndex]
		if !ok {
			if guard, ok = tr.TGD.Guard(); !ok {
				return "", 0, false
			}
			guards[tr.TGDIndex] = guard
		}
		guardImage := guard.Apply(tr.H)
		produced := step.Result[0]
		buf = appendLetter(buf[:0], tr.TGDIndex, produced, guardImage)
		sig, _ := letters.Intern(buf)
		infos[i] = info{
			parentFP: logic.HashAtom(guardImage),
			sig:      sig,
			fresh:    introducesFreshNull(produced, guardImage),
		}
		for _, a := range step.Added {
			h := logic.HashAtom(a)
			if _, dup := producedBy[h]; !dup {
				producedBy[h] = i
			}
		}
	}
	seenIn := make([]int, letters.Len())
	seenAt := make([]int, letters.Len())
	for i := len(run.Steps) - 1; i >= 0; i-- {
		walk := i + 1
		seenIn[infos[i].sig], seenAt[infos[i].sig] = walk, i
		cur := i
		for {
			parentStep, ok := producedBy[infos[cur].parentFP]
			if !ok || parentStep >= cur {
				break
			}
			sig := infos[parentStep].sig
			if seenIn[sig] == walk {
				if first := seenAt[sig]; infos[parentStep].fresh && infos[first].fresh {
					tr := run.Steps[parentStep].Trigger
					return fmt.Sprintf("guard-chain pump: %s repeats signature between steps %d and %d (period %d)",
						tr.TGD.Label, parentStep, first, first-parentStep), first + 1, true
				}
			} else {
				seenIn[sig], seenAt[sig] = walk, parentStep
			}
			cur = parentStep
		}
	}
	return "", 0, false
}

// introducesFreshNull reports whether the produced atom carries a null that
// does not occur in its guard image.
func introducesFreshNull(produced, guardImage logic.Atom) bool {
	for _, t := range produced.Args {
		if !t.IsNull() {
			continue
		}
		inGuard := false
		for _, u := range guardImage.Args {
			if t == u {
				inGuard = true
				break
			}
		}
		if !inGuard {
			return true
		}
	}
	return false
}

// appendLetter is appendLetterIDs over atoms: the TGD index, the produced
// atom's equality type and the (produced, guard image) position pairs that
// carry the same term.
func appendLetter(dst []uint32, tgdIndex int, produced, guardImage logic.Atom) []uint32 {
	dst = append(dst, uint32(tgdIndex))
	et := etypes.Of(produced)
	for i := range produced.Args {
		dst = append(dst, uint32(et.ClassOf(i+1)-1))
	}
	for i, t := range produced.Args {
		for j, u := range guardImage.Args {
			if t == u {
				dst = append(dst, uint32(i), uint32(j))
			}
		}
	}
	return dst
}

// referenceStepSignature is the fmt rendering of a Λ_T letter that
// DivergencePump keyed its walk on before letters became interned integer
// tuples: the reference appendLetter is checked against.
func referenceStepSignature(tgdIndex int, produced, guardImage logic.Atom) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%s|", tgdIndex, etypes.Of(produced).Key())
	for i, t := range produced.Args {
		for j, u := range guardImage.Args {
			if t == u {
				fmt.Fprintf(&b, "%d=%d,", i, j)
			}
		}
	}
	return b.String()
}

// referenceDivergencePump is DivergencePump over string letters and a
// fresh map per guard-chain walk.
func referenceDivergencePump(run *chase.Run) (string, int, bool) {
	type info struct {
		parentFP logic.Fingerprint
		sig      string
		fresh    bool
	}
	infos := make([]info, len(run.Steps))
	producedBy := make(map[logic.Fingerprint]int)
	for i, step := range run.Steps {
		tr := step.Trigger
		guard, ok := tr.TGD.Guard()
		if !ok {
			return "", 0, false
		}
		guardImage := guard.Apply(tr.H)
		produced := step.Result[0]
		infos[i] = info{
			parentFP: logic.HashAtom(guardImage),
			sig:      referenceStepSignature(tr.TGDIndex, produced, guardImage),
			fresh:    introducesFreshNull(produced, guardImage),
		}
		for _, a := range step.Added {
			h := logic.HashAtom(a)
			if _, dup := producedBy[h]; !dup {
				producedBy[h] = i
			}
		}
	}
	for i := len(run.Steps) - 1; i >= 0; i-- {
		seenSigs := map[string]int{infos[i].sig: i}
		cur := i
		for {
			parentStep, ok := producedBy[infos[cur].parentFP]
			if !ok || parentStep >= cur {
				break
			}
			if first, dup := seenSigs[infos[parentStep].sig]; dup && infos[parentStep].fresh && infos[first].fresh {
				tr := run.Steps[parentStep].Trigger
				return fmt.Sprintf("guard-chain pump: %s repeats signature between steps %d and %d (period %d)",
					tr.TGD.Label, parentStep, first, first-parentStep), first + 1, true
			}
			if _, dup := seenSigs[infos[parentStep].sig]; !dup {
				seenSigs[infos[parentStep].sig] = parentStep
			}
			cur = parentStep
		}
	}
	return "", 0, false
}

// batteryOrders are the battery's three orders at the budget, recording
// steps for the reference miners.
func batteryOrders(budget int) []chase.Options {
	return []chase.Options{
		{Variant: chase.Restricted, Strategy: chase.FIFO, MaxSteps: budget},
		{Variant: chase.Restricted, Strategy: chase.Random, Seed: 1, MaxSteps: budget},
		{Variant: chase.Restricted, Strategy: chase.LIFO, MaxSteps: budget},
	}
}

// TestDivergencePumpMatchesReference pins the production miner to the
// references on the diverging and terminating families and on random
// guarded sets, over every order of every seed's battery at budget 400:
//   - the interned letters against the fmt signatures: two steps share a
//     letter ID iff they share the rendered signature;
//   - DivergencePump against the string-keyed walk: evidence, depth, found;
//   - the step-log miner, rerun on the ID plane (DropSteps plus the step
//     observer) at the probe's budget 64 and at 400, against DivergencePump
//     on the recorded run's prefix of that length.
func TestDivergencePumpMatchesReference(t *testing.T) {
	var sets []*tgds.Set
	for _, fam := range []func(int) workload.Labeled{
		workload.GuardedLadder, workload.LinearCycle, workload.StickyRelay,
		workload.SwapIntro, workload.ExistentialChain,
	} {
		for n := 2; n <= 6; n++ {
			sets = append(sets, fam(n).Set)
		}
	}
	for _, l := range workload.Corpus() {
		if l.Set.IsGuarded() {
			sets = append(sets, l.Set)
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		if s := workload.RandomTGDSet(seed, workload.RandomOptions{Rules: 3}); s.IsGuarded() {
			sets = append(sets, s)
		}
	}
	runs, pumps, probePumps := 0, 0, 0
	var log stepLog
	var arena chase.Arena
	for _, set := range sets {
		arena.Bind(set)
		for _, seed := range GenerateSeeds(set, 6) {
			for _, o := range batteryOrders(400) {
				run := chase.RunChase(seed, set, o)
				runs++
				letters := logic.NewTupleTable(16)
				byID := map[int32]string{}
				byString := map[string]int32{}
				var buf []uint32
				for i, step := range run.Steps {
					guard, _ := step.Trigger.TGD.Guard()
					guardImage := guard.Apply(step.Trigger.H)
					buf = appendLetter(buf[:0], step.Trigger.TGDIndex, step.Result[0], guardImage)
					id, _ := letters.Intern(buf)
					sig := referenceStepSignature(step.Trigger.TGDIndex, step.Result[0], guardImage)
					if prev, ok := byID[id]; ok && prev != sig {
						t.Fatalf("%v step %d: letter %d is both %q and %q", set, i, id, prev, sig)
					}
					if prev, ok := byString[sig]; ok && prev != id {
						t.Fatalf("%v step %d: signature %q has letters %d and %d", set, i, sig, prev, id)
					}
					byID[id], byString[sig] = sig, id
				}
				ev, depth, ok := DivergencePump(run)
				wantEv, wantDepth, wantOK := referenceDivergencePump(run)
				if ev != wantEv || depth != wantDepth || ok != wantOK {
					t.Fatalf("%v: DivergencePump = (%q, %d, %v), reference (%q, %d, %v)", set, ev, depth, ok, wantEv, wantDepth, wantOK)
				}
				if ok {
					pumps++
				}
				for _, budget := range []int{64, 400} {
					// A run at a smaller budget is the recorded run's prefix.
					prefix := *run
					prefix.Steps = run.Steps[:min(budget, len(run.Steps))]
					wantEv, wantDepth, wantOK := DivergencePump(&prefix)
					lo := o
					lo.MaxSteps = budget
					lite := chaseLogged(context.Background(), &arena, seed, lo, &log)
					if lite.StepsTaken != len(prefix.Steps) || len(lite.Steps) != 0 {
						t.Fatalf("%v %v at %d: ID-plane run took %d steps and recorded %d, want %d and none",
							set, o.Strategy, budget, lite.StepsTaken, len(lite.Steps), len(prefix.Steps))
					}
					ev, depth, ok := log.pump(set, lite.Final)
					if ev != wantEv || depth != wantDepth || ok != wantOK {
						t.Fatalf("%v %v at %d: step-log miner = (%q, %d, %v), DivergencePump (%q, %d, %v)",
							set, o.Strategy, budget, ev, depth, ok, wantEv, wantDepth, wantOK)
					}
					if ok && budget == 64 {
						probePumps++
					}
				}
			}
		}
	}
	if pumps < 50 || runs-pumps < 50 || probePumps < 50 {
		t.Fatalf("%d runs, %d with a pump at 400 and %d at 64: the sweep must cover both outcomes", runs, pumps, probePumps)
	}
}
