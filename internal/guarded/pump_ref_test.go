package guarded

import (
	"fmt"
	"strings"
	"testing"

	"airct/internal/chase"
	"airct/internal/etypes"
	"airct/internal/logic"
	"airct/internal/tgds"
	"airct/internal/workload"
)

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

// pumpRuns chases every seed of the set under the battery's three orders,
// keeping the step records DivergencePump mines.
func pumpRuns(set *tgds.Set, maxSeeds, budget int) []*chase.Run {
	var runs []*chase.Run
	for _, seed := range GenerateSeeds(set, maxSeeds) {
		for _, o := range []chase.Options{
			{Variant: chase.Restricted, Strategy: chase.FIFO, MaxSteps: budget},
			{Variant: chase.Restricted, Strategy: chase.Random, Seed: 1, MaxSteps: budget},
			{Variant: chase.Restricted, Strategy: chase.LIFO, MaxSteps: budget},
		} {
			runs = append(runs, chase.RunChase(seed, set, o))
		}
	}
	return runs
}

// TestDivergencePumpMatchesReference pins the interned letters to the fmt
// signatures: on every step of every run, two steps share a letter ID iff
// they share the rendered signature, and DivergencePump returns what the
// string-keyed walk returns — evidence, depth and found — on the diverging
// and terminating families and on random guarded sets.
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
	runs, pumps := 0, 0
	for _, set := range sets {
		for _, run := range pumpRuns(set, 6, 400) {
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
		}
	}
	if pumps < 50 || runs-pumps < 50 {
		t.Fatalf("%d runs, %d with a pump: the sweep must cover both outcomes", runs, pumps)
	}
}
