package acyclicity

import (
	"sync"
	"testing"

	"airct/internal/tgds"
	"airct/internal/workload"
)

// TestCheckMFAConcurrent runs CheckMFA from several goroutines at once over
// sets of different sizes, each goroutine from its own offset, so pooled
// states pass between goroutines and between sets. Every result must equal
// the sequential run's. ExistentialChain(600) stops at its budget past
// maxPooledMFAAtoms, so states are also dropped. Run under -race.
func TestCheckMFAConcurrent(t *testing.T) {
	var sets []*tgds.Set
	for _, l := range workload.Corpus() {
		sets = append(sets, l.Set)
	}
	for _, fam := range families {
		sets = append(sets, fam(3).Set, fam(8).Set)
	}
	sets = append(sets, workload.ExistentialChain(600).Set)
	want := make([]MFAResult, len(sets))
	for i, s := range sets {
		want[i] = CheckMFA(s, 20000)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range sets {
				i := (k + g*len(sets)/4) % len(sets)
				if got := CheckMFA(sets[i], 20000); got != want[i] {
					t.Errorf("goroutine %d, set %d: CheckMFA = %+v, sequential %+v", g, i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReleaseMFADropsOversizedStates pins the pool's put-back rule: a state
// whose instance outgrew maxPooledMFAAtoms is not put back.
func TestReleaseMFADropsOversizedStates(t *testing.T) {
	for _, tc := range []struct {
		set    *tgds.Set
		pooled bool
	}{
		{workload.LinearCycle(3).Set, true},
		{workload.ExistentialChain(600).Set, false},
	} {
		m := mfaStates.Get().(*mfaChase)
		m.load(tc.set)
		m.run(20000)
		if got := m.inst.Len() > maxPooledMFAAtoms; got == tc.pooled {
			t.Fatalf("%d atoms: the test set does not straddle the bound", m.inst.Len())
		}
		if got := releaseMFA(m); got != tc.pooled {
			t.Errorf("%d atoms: pooled = %v, want %v", m.inst.Len(), got, tc.pooled)
		}
	}
}
