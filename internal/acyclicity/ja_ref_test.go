package acyclicity

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"airct/internal/logic"
	"airct/internal/parser"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// referenceIsJointlyAcyclic is the round-based fixpoint IsJointlyAcyclic
// replaced, kept as the oracle for its worklist pass: every round rescans
// every frontier variable against every body argument, for each position
// it adds to Mov(z), and the dependency edges rescan them again per pair of
// existential variables.
func referenceIsJointlyAcyclic(set *tgds.Set) bool {
	type exVar struct {
		tgd int
		v   logic.Term
	}
	var exVars []exVar
	for i, t := range set.TGDs {
		for _, v := range t.ExistentialVars().Sorted() {
			exVars = append(exVars, exVar{tgd: i, v: v})
		}
	}
	if len(exVars) == 0 {
		return true
	}
	frontiers := make([][]logic.Term, len(set.TGDs))
	for i, t := range set.TGDs {
		frontiers[i] = t.Frontier().Sorted()
	}
	// allIn reports whether frontier variable x of t occurs in the body
	// and every body position it occurs at lies in m.
	allIn := func(t tgds.TGD, x logic.Term, m map[logic.Position]bool) bool {
		all, any := true, false
		for _, a := range t.Body {
			for i, v := range a.Args {
				if v == x {
					any = true
					if !m[logic.Position{Pred: a.Pred, Index: i + 1}] {
						all = false
					}
				}
			}
		}
		return any && all
	}
	mov := make([]map[logic.Position]bool, len(exVars))
	for k, ev := range exVars {
		m := make(map[logic.Position]bool)
		for _, h := range set.TGDs[ev.tgd].Head {
			for i, v := range h.Args {
				if v == ev.v {
					m[logic.Position{Pred: h.Pred, Index: i + 1}] = true
				}
			}
		}
		for changed := true; changed; {
			changed = false
			for ti, t := range set.TGDs {
				for _, x := range frontiers[ti] {
					if !allIn(t, x, m) {
						continue
					}
					for _, h := range t.Head {
						for i, v := range h.Args {
							p := logic.Position{Pred: h.Pred, Index: i + 1}
							if v == x && !m[p] {
								m[p] = true
								changed = true
							}
						}
					}
				}
			}
		}
		mov[k] = m
	}
	adj := make([][]int, len(exVars))
	for from := range exVars {
		for to, ev := range exVars {
			for _, x := range frontiers[ev.tgd] {
				if allIn(set.TGDs[ev.tgd], x, mov[from]) {
					adj[from] = append(adj[from], to)
					break
				}
			}
		}
	}
	color := make([]int, len(exVars))
	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = 1
		for _, u := range adj[v] {
			if color[u] == 1 || (color[u] == 0 && !dfs(u)) {
				return false
			}
		}
		color[v] = 2
		return true
	}
	for v := range exVars {
		if color[v] == 0 && !dfs(v) {
			return false
		}
	}
	return true
}

// TestJointAcyclicityMatchesReference pins the worklist pass to the
// round-based fixpoint on the corpus, the seven families at n = 2..12, a
// few multi-head sets, and the three random generators at seeds 0–1999:
// RandomExistentialProgram, RandomTGDSet with the default options, and
// RandomTGDSet with three rules and a 60% existential bias. Both verdicts
// must occur among the random sets.
func TestJointAcyclicityMatchesReference(t *testing.T) {
	check := func(name string, s *tgds.Set) bool {
		t.Helper()
		got, want := IsJointlyAcyclic(s), referenceIsJointlyAcyclic(s)
		if got != want {
			t.Fatalf("%s: IsJointlyAcyclic = %v, reference %v", name, got, want)
		}
		return got
	}
	for _, src := range []string{
		`R(X,Y,Y) -> R(X,Z,Y), R(Z,Y,Y). R(X,Y,Z) -> R(Z,Z,Z).`,
		`A(X) -> R(X,Z,Y), S(Y,Z). R(X,Y,Z), S(Z,Y) -> A(Y).`,
		`E(X,Y), E(Y,Z) -> E(X,W), E(W,Z).`,
		`A(X) -> B(X,Y). B(X,Y) -> C(Y,Z), A(Z).`,
		`R(X,X) -> S(X,Y). S(X,Y), R(Y,X) -> R(X,Y).`,
	} {
		check(src, set(t, src))
	}
	for _, l := range workload.Corpus() {
		check(l.Name, l.Set)
	}
	for _, fam := range []func(int) workload.Labeled{
		workload.DatalogChain, workload.ExistentialChain, workload.LinearCycle,
		workload.SwapIntro, workload.GuardedLadder, workload.StickyJoin, workload.StickyRelay,
	} {
		for n := 2; n <= 12; n++ {
			l := fam(n)
			check(l.Name, l.Set)
		}
	}
	verdicts := map[bool]int{}
	for seed := int64(0); seed < 2000; seed++ {
		verdicts[check(fmt.Sprintf("RandomExistentialProgram(%d)", seed), workload.RandomExistentialProgram(seed).TGDs)]++
		verdicts[check(fmt.Sprintf("RandomTGDSet(%d)", seed), workload.RandomTGDSet(seed, workload.RandomOptions{}))]++
		verdicts[check(fmt.Sprintf("RandomTGDSet(%d, biased)", seed), workload.RandomTGDSet(seed, workload.RandomOptions{Rules: 3, ExistentialBias: 60}))]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("random verdicts %v: the sweep must see both answers", verdicts)
	}
}

// TestJointAcyclicityWidestShift: the 1023-ary shift R(X1,…,X1023) ->
// R(X2,…,X1023,Y), the widest rule the parser admits, is not jointly
// acyclic (its null moves through every position back into the frontier),
// and the answer takes well under a second. The round-based fixpoint took
// seconds here: each of its 1023 rounds rescanned 1022 frontier variables
// against 1023 body arguments.
func TestJointAcyclicityWidestShift(t *testing.T) {
	var body, head []string
	for i := 1; i <= 1023; i++ {
		body = append(body, fmt.Sprintf("X%d", i))
		if i > 1 {
			head = append(head, fmt.Sprintf("X%d", i))
		}
	}
	head = append(head, "Y")
	s, err := parser.ParseTGDs(fmt.Sprintf("R(%s) -> R(%s).", strings.Join(body, ","), strings.Join(head, ",")))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ja := IsJointlyAcyclic(s)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("IsJointlyAcyclic took %v on the 1023-ary shift, want under 1s", elapsed)
	}
	if ja {
		t.Error("the 1023-ary shift reads jointly acyclic")
	}
}
