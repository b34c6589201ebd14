package chase

import (
	"os"
	"slices"
	"testing"

	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/parser"
)

// rebuildFromRoot materialises node id's state the slow way: a fresh
// instance on the search's interner, filled with the database and every
// ancestor delta, root first.
func rebuildFromRoot(s *searcher, id int32, tab *logic.Interner) *instance.Instance {
	var chain []int32
	for m := id; m >= 0; m = s.nodes.at(m).parent {
		chain = append(chain, m)
	}
	inst := instance.NewWithInternerHint(tab, int(s.nodes.at(id).size))
	var args []logic.TermID
	for i := len(chain) - 1; i >= 0; i-- {
		d := s.delta(chain[i])
		for j := 0; j < len(d); {
			pid := logic.PredID(d[j])
			ar := tab.Pred(pid).Arity
			args = args[:0]
			for k := 0; k < ar; k++ {
				args = append(args, logic.TermID(d[j+1+k]))
			}
			inst.AddTuple(pid, args)
			j += 1 + ar
		}
	}
	return inst
}

// TestScratchMatchesRebuildAtEveryExpansion pins the rewound scratch
// instance against a rebuild from the database at every expansion, under
// every frontier order: the same Len and fingerprint (which is also the
// node's), the same identity tuples in insertion order, and the same
// posting list under every (predicate) and (predicate, position, term) key
// the interner can form.
func TestScratchMatchesRebuildAtEveryExpansion(t *testing.T) {
	ladder, err := os.ReadFile("../../testdata/conformance/ladder.chase")
	if err != nil {
		t.Fatal(err)
	}
	progs := indexGroundTruthPrograms()
	progs = append(progs,
		struct {
			name      string
			src       string
			maxStates int
			maxAtoms  int
		}{"null-grid-5", parser.Print(nullGrid(5)), 0, 0},
		struct {
			name      string
			src       string
			maxStates int
			maxAtoms  int
		}{"conformance-ladder", string(ladder), 0, 0},
	)
	for _, tc := range progs {
		for _, order := range searchOrders {
			t.Run(tc.name+"/"+order.name, func(t *testing.T) {
				prog := parser.MustParse(tc.src)
				expansions := 0
				opts := SearchOptions{
					MaxStates: tc.maxStates,
					MaxAtoms:  tc.maxAtoms,
					order:     order.order,
					onExpand: func(s *searcher, id int32, inst *instance.Instance, _ []Trigger) {
						expansions++
						tab := inst.Interner()
						want := rebuildFromRoot(s, id, tab)
						n := s.nodes.at(id)
						if got := tupleFingerprint(inst); inst.Len() != want.Len() || got != tupleFingerprint(want) || got != n.fp {
							t.Fatalf("expansion %d: scratch has %d atoms, fingerprint %v; rebuild %d, %v; node %v",
								expansions, inst.Len(), got, want.Len(), tupleFingerprint(want), n.fp)
						}
						for i := int32(0); int(i) < want.Len(); i++ {
							if inst.AtomPredID(i) != want.AtomPredID(i) || !slices.Equal(inst.AtomArgIDs(i), want.AtomArgIDs(i)) {
								t.Fatalf("expansion %d: atom %d is %v, rebuild %v", expansions, i, inst.AtomAt(int(i)), want.AtomAt(int(i)))
							}
						}
						for p := logic.PredID(0); int(p) < tab.NumPreds(); p++ {
							if !slices.Equal(inst.IdxByPred(p), want.IdxByPred(p)) {
								t.Fatalf("expansion %d: IdxByPred(%v) = %v, rebuild %v", expansions, tab.Pred(p), inst.IdxByPred(p), want.IdxByPred(p))
							}
							for pos := 1; pos <= tab.Pred(p).Arity; pos++ {
								for term := logic.TermID(0); int(term) < tab.NumTerms(); term++ {
									if got, w := inst.IdxByPredTerm(p, pos, term), want.IdxByPredTerm(p, pos, term); !slices.Equal(got, w) {
										t.Fatalf("expansion %d: IdxByPredTerm(%v, %d, %v) = %v, rebuild %v",
											expansions, tab.Pred(p), pos, tab.Term(term), got, w)
									}
								}
							}
						}
					},
				}
				res := mustSearch(t, prog.Database, prog.TGDs, opts)
				if expansions != res.Stats.StatesExpanded || expansions == 0 {
					t.Fatalf("hook saw %d expansions, stats counted %d", expansions, res.Stats.StatesExpanded)
				}
			})
		}
	}
}

// tupleFingerprint folds the instance's interner hashes over its identity
// tuples: the order-independent set fingerprint a search node carries,
// term-hash overrides included, which logic.FingerprintAtoms over the
// materialised atoms would not see.
func tupleFingerprint(inst *instance.Instance) logic.Fingerprint {
	var fp logic.Fingerprint
	for i := int32(0); int(i) < inst.Len(); i++ {
		fp = fp.Merge(inst.Interner().HashAtomIDs(inst.AtomPredID(i), inst.AtomArgIDs(i)))
	}
	return fp
}
