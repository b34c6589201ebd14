package guarded

import (
	"context"
	"sync"
	"testing"

	"airct/internal/acyclicity"
	"airct/internal/chase"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// TestReleaseBatteryDropsOversizedArenas pins the pool's put-back rule: a
// battery whose arena held more than maxPooledAtoms atoms is dropped, so a
// large guarded-budget cannot pin its memory, and one within the bound goes
// back to the pool.
func TestReleaseBatteryDropsOversizedArenas(t *testing.T) {
	set := workload.GuardedLadder(2).Set
	seed := GenerateSeeds(set, 1)[0]
	for _, tc := range []struct {
		budget int
		pooled bool
	}{
		{budget: 2000, pooled: true},
		{budget: maxPooledAtoms + 100, pooled: false},
	} {
		var b battery
		b.arena.Bind(set)
		run := chaseLogged(context.Background(), &b.arena, seed, chase.Options{Variant: chase.Restricted, MaxSteps: tc.budget}, &b.log)
		if run.Terminated() {
			t.Fatalf("budget %d: the ladder saturated; the test needs a run that uses its budget", tc.budget)
		}
		if got := b.arena.PeakAtoms(); got != run.Final.Len() || (got > maxPooledAtoms) == tc.pooled {
			t.Fatalf("budget %d: PeakAtoms = %d (final %d), bound %d", tc.budget, got, run.Final.Len(), maxPooledAtoms)
		}
		if got := releaseBattery(&b); got != tc.pooled {
			t.Errorf("budget %d, peak %d atoms: pooled = %v, want %v", tc.budget, b.arena.PeakAtoms(), got, tc.pooled)
		}
	}
}

// TestDecideConcurrentScansShareThePool runs DecideContext on distinct sets
// from several goroutines at once, each through the shared battery pool,
// and requires every verdict to equal the sequential one. CI runs it under
// -race.
func TestDecideConcurrentScansShareThePool(t *testing.T) {
	var sets []*tgds.Set
	for i, set := range sweepSets() {
		if i%4 == 0 && !acyclicity.IsWeaklyAcyclic(set) {
			sets = append(sets, set)
		}
	}
	opts := DecideOptions{MaxSteps: 300}
	want := make([]*Verdict, len(sets))
	methods := map[string]bool{}
	for i, set := range sets {
		v, err := DecideContext(context.Background(), set, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
		methods[v.Method] = true
	}
	if len(sets) < 8 || !methods["seed-exhaustion"] || !methods["divergence-witness"] {
		t.Fatalf("%d sets, methods %v: the scans must both saturate and diverge", len(sets), methods)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at its own offset, so at any moment the
			// goroutines decide different sets.
			for k := range sets {
				i := (k + w*len(sets)/workers) % len(sets)
				v, err := DecideContext(context.Background(), sets[i], opts)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameVerdictFields(v, want[i]) {
					t.Errorf("worker %d, set %d: concurrent verdict %+v, sequential %+v", w, i, v, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}
