package chase

// Tests for the ∀∃ search's outer-loop structures (search.go): the bucket
// queue against the binary heap it replaced, the node arena's ownership of
// trigger index regions, what a whole search allocates, and state budgets
// past the arena's int32 IDs.

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"airct/internal/instance"
	"airct/internal/parser"
	"airct/internal/workload"
)

// heapEntry is one pending state of the reference frontier; id is also its
// generation sequence number.
type heapEntry struct{ id, size int32 }

// heapFrontier is the container/heap frontier the bucket queue replaced,
// kept as the reference for its pop order: (size, generation) smallest
// first, or generation order alone, ascending (breadth-first) or
// descending (depth-first).
type heapFrontier struct {
	entries []heapEntry
	order   searchOrder
}

func (f *heapFrontier) Len() int { return len(f.entries) }

func (f *heapFrontier) Less(i, j int) bool {
	a, b := f.entries[i], f.entries[j]
	switch f.order {
	case breadthFirst:
		return a.id < b.id
	case depthFirst:
		return a.id > b.id
	}
	if a.size != b.size {
		return a.size < b.size
	}
	return a.id < b.id
}

func (f *heapFrontier) Swap(i, j int) { f.entries[i], f.entries[j] = f.entries[j], f.entries[i] }

func (f *heapFrontier) Push(x any) { f.entries = append(f.entries, x.(heapEntry)) }

func (f *heapFrontier) Pop() any {
	n := len(f.entries) - 1
	x := f.entries[n]
	f.entries = f.entries[:n]
	return x
}

// TestFrontierMatchesHeapReference drives random push/pop sequences through
// the bucket queue and the reference heap under every order: bursts of
// pushes over a few sizes (so many states tie), pops interleaved with them,
// then a full drain. As in the search, no state pushed is smaller than the
// last one popped. Both must pop the same IDs in the same order and agree
// on their length.
func TestFrontierMatchesHeapReference(t *testing.T) {
	for _, order := range searchOrders {
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			base := int32(rng.Intn(5))
			f := frontier{order: order.order, base: base}
			ref := &heapFrontier{order: order.order}
			var next int32
			last := base // the size of the last state popped
			pop := func(step int) {
				e := heap.Pop(ref).(heapEntry)
				if got := f.pop(); got != e.id {
					t.Fatalf("%s, seed %d, step %d: popped %d, reference %d", order.name, seed, step, got, e.id)
				}
				last = max(last, e.size)
			}
			for step := 0; step < 300; step++ {
				if rng.Intn(3) > 0 {
					for k := rng.Intn(4); k >= 0; k-- {
						size := last + int32(rng.Intn(4))
						f.push(next, size)
						heap.Push(ref, heapEntry{id: next, size: size})
						next++
					}
				} else if ref.Len() > 0 {
					pop(step)
				}
				if f.len() != ref.Len() {
					t.Fatalf("%s, seed %d, step %d: len %d, reference %d", order.name, seed, step, f.len(), ref.Len())
				}
			}
			for ref.Len() > 0 {
				pop(-1)
			}
			if f.len() != 0 {
				t.Fatalf("%s, seed %d: %d states left after the reference drained", order.name, seed, f.len())
			}
		}
	}
}

// TestArenaKeepsOnlyPendingIndexes pins the arena's index ownership: at
// every expansion, under every frontier order, a node still holds a
// trigger index region only if it is the node being expanded or has
// children left in the frontier. The search releases a region once its
// last child has repaired from it, or at once when its node generated
// none. It also pins the slab's reuse: a region is taken from its size
// class's free list before the slab grows, so the slab holds, per class,
// exactly as many regions as were ever live at once. The hook runs right
// after each put, so it sees every per-class peak.
func TestArenaKeepsOnlyPendingIndexes(t *testing.T) {
	progs := indexGroundTruthPrograms()
	progs = append(progs, struct {
		name      string
		src       string
		maxStates int
		maxAtoms  int
	}{"null-grid-4", parser.Print(nullGrid(4)), 0, 0})
	for _, tc := range progs {
		for _, order := range searchOrders {
			prog := parser.MustParse(tc.src)
			pending := 0
			var peak []int // per size class, the most regions live at once
			opts := SearchOptions{
				MaxStates: tc.maxStates,
				MaxAtoms:  tc.maxAtoms,
				order:     order.order,
				onExpand: func(s *searcher, id int32, _ *instance.Instance, _ []Trigger) {
					live := make([]int, len(s.slab.free))
					for i := int32(0); i < s.nodes.n; i++ {
						n := s.nodes.at(i)
						if n.idx == noIndex {
							continue
						}
						live[s.slab.words[n.idx]]++
						if i == id {
							continue
						}
						if n.kids == 0 {
							t.Fatalf("%s/%s: expanding node %d, node %d holds an index with no children pending", tc.name, order.name, id, i)
						}
						pending++
					}
					words := 1 // the slab's unused first word
					for c := range live {
						if c == len(peak) {
							peak = append(peak, 0)
						}
						peak[c] = max(peak[c], live[c])
						words += peak[c] << c
					}
					if len(s.slab.words) != words {
						t.Fatalf("%s/%s: expanding node %d, the slab holds %d words, its per-class peaks of live regions %d",
							tc.name, order.name, id, len(s.slab.words), words)
					}
				},
			}
			res := mustSearch(t, prog.Database, prog.TGDs, opts)
			regions := 0
			for _, p := range peak {
				regions += p
			}
			if tc.name == "stage-grid-5" && (pending == 0 || regions >= res.Stats.StatesExpanded) {
				t.Errorf("%s/%s: %d expansions fit in %d slab regions, %d pending-child observations: the test must see indexes held and regions reused",
					tc.name, order.name, res.Stats.StatesExpanded, regions, pending)
			}
		}
	}
}

// TestStageGridSearchAllocations bounds what one whole ∀∃ search
// allocates. Expanding a state allocates nothing in steady state, so a
// StageGrid(7) search (2,187 states) stays under 1,000 objects: per-search
// set-up plus the amortised growth of the node arena, the index slab, the
// delta store, the memo, the frontier and the scratch instance.
func TestStageGridSearchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	prog := workload.StageGrid(7)
	allocs := testing.AllocsPerRun(3, func() {
		res, err := SearchTerminatingDerivation(prog.Database, prog.TGDs, SearchOptions{})
		if err != nil || !res.Found {
			t.Fatalf("StageGrid(7) must find its fixpoint: %+v, %v", res, err)
		}
	})
	if allocs >= 1000 {
		t.Errorf("a StageGrid(7) search allocates %.0f objects, want under 1,000", allocs)
	}
}

// TestSearchStateBudgetPastInt32: a state budget past the arena's int32
// IDs is read as math.MaxInt32, so on a search that ends inside the
// default budget it changes nothing: the verdict, StatesVisited, every
// SearchStats field and the witness are the default budget's.
func TestSearchStateBudgetPastInt32(t *testing.T) {
	for _, prog := range []*parser.Program{workload.StageGrid(5), nullGrid(3)} {
		want := mustSearch(t, prog.Database, prog.TGDs, SearchOptions{})
		got := mustSearch(t, prog.Database, prog.TGDs, SearchOptions{MaxStates: math.MaxInt})
		if !want.Found {
			t.Fatalf("the default budget must find a fixpoint: %+v", want)
		}
		if got.Found != want.Found || got.Exhausted != want.Exhausted || got.StatesVisited != want.StatesVisited || got.Stats != want.Stats {
			t.Errorf("MaxStates = math.MaxInt: %+v, default budget %+v", got, want)
		}
		if fmt.Sprint(got.Derivation) != fmt.Sprint(want.Derivation) {
			t.Errorf("witness %v, default budget %v", got.Derivation, want.Derivation)
		}
	}
}
