package chase

// The pre-refactor ∀∃ search, preserved verbatim as the reference for the
// differential test (like referenceRunChase for the engine): it memoises
// states by joined sorted-key strings, clones the instance per generated
// child, and re-sorts the whole frontier per pop. The fingerprint-memoised
// subsystem in search.go must agree with it on Found/Exhausted and on the
// number of distinct states, and its witnesses must replay to a fixpoint.

import (
	"sort"
	"strings"
	"testing"

	"airct/internal/instance"
	"airct/internal/parser"
	"airct/internal/tgds"
)

func referenceExistsTerminatingDerivation(db *instance.Database, set *tgds.Set, maxStates, maxAtoms int) *ExistsResult {
	if maxStates <= 0 {
		maxStates = 10_000
	}
	if maxAtoms <= 0 {
		maxAtoms = 200
	}
	type node struct {
		inst  *instance.Instance
		path  []Trigger
		nulls *NullFactory
	}
	start := node{inst: db.Instance(), nulls: NewNullFactory()}
	seen := map[string]bool{referenceInstKey(start.inst): true}
	queue := []node{start}
	res := &ExistsResult{Exhausted: true}
	for len(queue) > 0 {
		// Prefer small instances: fixpoints are found sooner and the
		// memoised frontier stays tight.
		sort.SliceStable(queue, func(i, j int) bool { return queue[i].inst.Len() < queue[j].inst.Len() })
		cur := queue[0]
		queue = queue[1:]
		active := ActiveTriggers(set, cur.inst)
		if len(active) == 0 {
			res.Found = true
			res.Derivation = cur.path
			res.StatesVisited = len(seen)
			return res
		}
		if cur.inst.Len() >= maxAtoms {
			res.Exhausted = false
			continue
		}
		for _, tr := range active {
			next := cur.inst.Clone()
			// Share the null factory: structural naming makes the result
			// of a trigger independent of the path, so states merge.
			for _, a := range Result(tr, cur.nulls) {
				next.Add(a)
			}
			key := referenceInstKey(next)
			if seen[key] {
				continue
			}
			if len(seen) >= maxStates {
				res.Exhausted = false
				break
			}
			seen[key] = true
			path := make([]Trigger, len(cur.path)+1)
			copy(path, cur.path)
			path[len(cur.path)] = tr
			queue = append(queue, node{inst: next, path: path, nulls: cur.nulls})
		}
	}
	res.StatesVisited = len(seen)
	return res
}

func referenceInstKey(in *instance.Instance) string {
	return strings.Join(sortedKeys(in), "|")
}

// sortedKeys returns the instance's canonical atom keys in sorted order.
func sortedKeys(in *instance.Instance) []string {
	keys := make([]string, in.Len())
	for i := range keys {
		keys[i] = in.AtomAt(i).Key()
	}
	sort.Strings(keys)
	return keys
}

// differentialExistsPrograms are the seeded programs the new search is
// pinned against: terminating, order-sensitive, purely diverging,
// multi-head, diamond-shaped, and budget-cut cases.
var differentialExistsPrograms = []struct {
	name      string
	src       string
	maxStates int
	maxAtoms  int
}{
	{"terminating", `
		P(a,b).
		s1: P(X,Y) -> R(X,Y).
		s2: P(X,Y) -> S(X).
	`, 0, 0},
	{"order-sensitive", `
		R(a,b).
		grow: R(X,Y) -> R(Y,Z).
		swap: R(X,Y) -> R(Y,X).
	`, 5000, 50},
	{"pure-divergence", `
		S(a).
		grow: S(X) -> R(X,Y).
		next: R(X,Y) -> S(Y).
	`, 200, 12},
	{"example-B1", `
		R(a,b,b).
		mh1: R(X,Y,Y) -> R(X,Z,Y), R(Z,Y,Y).
		mh2: R(X,Y,Z) -> R(Z,Z,Z).
	`, 5000, 60},
	{"diamond", `
		P(a).
		s1: P(X) -> Q(X).
		s2: P(X) -> R(X).
	`, 0, 0},
	{"wide-diamond", `
		P(a). P(b). P(c).
		s1: P(X) -> Q(X).
		s2: Q(X) -> R(X).
	`, 0, 0},
	{"tight-state-budget", `
		P(a). P(b). P(c). P(d).
		s1: P(X) -> Q(X).
		s2: Q(X) -> R(X).
	`, 20, 0},
	{"joins-and-nulls", `
		E(a,b). E(b,c).
		t: E(X,Y), E(Y,Z) -> E(X,Z).
		w: E(X,Y) -> N(Y,W).
		c: N(X,Y), N(X,Z) -> M(X).
	`, 2000, 40},
}

// TestSearchMatchesReferenceExists pins the fingerprint-memoised search
// against the string-memoised reference: same Found and Exhausted verdicts,
// same count of distinct states, and every witness replays to a fixpoint of
// the same size as the reference's.
func TestSearchMatchesReferenceExists(t *testing.T) {
	for _, tc := range differentialExistsPrograms {
		t.Run(tc.name, func(t *testing.T) {
			prog := parser.MustParse(tc.src)
			want := referenceExistsTerminatingDerivation(prog.Database, prog.TGDs, tc.maxStates, tc.maxAtoms)
			got := mustSearch(t, prog.Database, prog.TGDs, SearchOptions{MaxStates: tc.maxStates, MaxAtoms: tc.maxAtoms})
			if got.Found != want.Found {
				t.Fatalf("Found = %v, reference %v", got.Found, want.Found)
			}
			if got.Exhausted != want.Exhausted {
				t.Errorf("Exhausted = %v, reference %v", got.Exhausted, want.Exhausted)
			}
			if got.StatesVisited != want.StatesVisited {
				t.Errorf("StatesVisited = %d, reference %d", got.StatesVisited, want.StatesVisited)
			}
			if !got.Found {
				return
			}
			// Witness validity: the derivation must replay step by step
			// (Derivation.Apply refuses non-active triggers) and end at a
			// fixpoint matching the reference's.
			d := NewDerivation(prog.Database, prog.TGDs)
			for i, tr := range got.Derivation {
				if err := d.Apply(tr); err != nil {
					t.Fatalf("witness step %d does not replay: %v", i, err)
				}
			}
			if len(d.Active()) > 0 {
				t.Fatal("witness does not end in a fixpoint")
			}
			if len(got.Derivation) != len(want.Derivation) {
				t.Errorf("derivation length %d, reference %d", len(got.Derivation), len(want.Derivation))
			}
			// The reference's witness names nulls in exploration order, so
			// on programs that join on nulls it can fail to replay — a
			// latent bug of the string-memoised implementation (the new
			// search renames bindings replay-consistently; see
			// searcher.path). Compare fixpoints only when the reference
			// witness is itself valid.
			ref := NewDerivation(prog.Database, prog.TGDs)
			refValid := true
			for _, tr := range want.Derivation {
				if err := ref.Apply(tr); err != nil {
					refValid = false
					break
				}
			}
			if refValid && d.Instance().Len() != ref.Instance().Len() {
				t.Errorf("fixpoint size %d, reference %d", d.Instance().Len(), ref.Instance().Len())
			}
		})
	}
}

// TestSearchStrategiesAgreeOnVerdicts: the frontier order may change which
// witness is found and how much is explored, but never the verdict on
// exhaustively searchable spaces. The breadth- and depth-first orders are
// test-only (searchOrders).
func TestSearchStrategiesAgreeOnVerdicts(t *testing.T) {
	for _, tc := range differentialExistsPrograms {
		prog := parser.MustParse(tc.src)
		base := mustSearch(t, prog.Database, prog.TGDs, SearchOptions{MaxStates: tc.maxStates, MaxAtoms: tc.maxAtoms})
		if !base.Exhausted && !base.Found {
			continue // budget-cut: verdicts may legitimately differ per order
		}
		for _, order := range searchOrders[1:] {
			res := mustSearch(t, prog.Database, prog.TGDs, SearchOptions{
				MaxStates: tc.maxStates, MaxAtoms: tc.maxAtoms, order: order.order,
			})
			if res.Found != base.Found {
				t.Errorf("%s/%s: Found = %v, smallest-first %v", tc.name, order.name, res.Found, base.Found)
			}
			if res.Found {
				d := NewDerivation(prog.Database, prog.TGDs)
				for i, tr := range res.Derivation {
					if err := d.Apply(tr); err != nil {
						t.Fatalf("%s/%s: witness step %d does not replay: %v", tc.name, order.name, i, err)
					}
				}
				if len(d.Active()) > 0 {
					t.Errorf("%s/%s: witness does not end in a fixpoint", tc.name, order.name)
				}
			}
		}
	}
}

// searchOrders are the frontier orders the index and verdict tests drive
// the search through: the production smallest-first order, then
// breadth-first and depth-first, which reach other states.
var searchOrders = []struct {
	name  string
	order searchOrder
}{
	{"smallest", smallestFirst},
	{"bfs", breadthFirst},
	{"dfs", depthFirst},
}
