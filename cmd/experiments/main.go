// Command experiments runs the E1–E11 experiment suite and prints the
// result tables. Every experiment reproduces an observable claim of the
// paper (worked example, theorem equivalence, or complexity shape); the
// suite is described in docs/CLI.md, "experiments — the paper-reproduction
// suite".
//
//	experiments [-only E1,E7] [-quick]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"airct/internal/acyclicity"
	"airct/internal/buchi"
	"airct/internal/chase"
	"airct/internal/core"
	"airct/internal/critical"
	"airct/internal/fairness"
	"airct/internal/guarded"
	"airct/internal/jointree"
	"airct/internal/ochase"
	"airct/internal/parser"
	"airct/internal/portfolio"
	"airct/internal/sticky"
	"airct/internal/workload"
)

var quick = flag.Bool("quick", false, "smaller parameter sweeps")

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs (default: all)")
	flag.Parse()
	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	all := []struct {
		id   string
		name string
		run  func()
	}{
		{"E1", "restricted vs oblivious instance size (intro example)", e1},
		{"E2", "real oblivious chase: multiset vs set (Example 3.2/3.4)", e2},
		{"E3", "Fairness Theorem: repair vs multi-head collapse (Thm 4.1, Ex. B.1)", e3},
		{"E4", "chaseable sets ⇔ derivations (Theorem 5.3 round trip)", e4},
		{"E5", "treeification (Example 5.6, Theorem 5.5)", e5},
		{"E6", "guarded bounded search for CT_res_∀∀(G)", e6},
		{"E7", "sticky decision via Büchi emptiness (Theorem 6.1)", e7},
		{"E8", "bounded-gap witnesses (Observation 1)", e8},
		{"E9", "baseline coverage on the labeled corpus", e9},
		{"E10", "chase engine throughput", e10},
		{"E11", "portfolio stage attribution on the labeled corpus", e11},
	}
	for _, e := range all {
		if len(selected) > 0 && !selected[e.id] {
			continue
		}
		fmt.Printf("## %s — %s\n\n", e.id, e.name)
		e.run()
		fmt.Println()
	}
}

func mustSet(src string) *parser.Program {
	prog, err := parser.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(3)
	}
	return prog
}

func e1() {
	fmt.Println("| database | restricted atoms | restricted steps | oblivious atoms (budget 5000) | oblivious terminated |")
	fmt.Println("|---|---|---|---|---|")
	sizes := []int{1, 10, 100, 1000}
	if *quick {
		sizes = []int{1, 10, 100}
	}
	for _, n := range sizes {
		db := workload.StarDatabase("R", n)
		set := mustSet(`R(X,Y) -> R(X,Z).`).TGDs
		res := chase.RunChase(db, set, chase.Options{Variant: chase.Restricted, DropSteps: true})
		obl := chase.RunChase(db, set, chase.Options{Variant: chase.Oblivious, MaxSteps: 5000, DropSteps: true})
		fmt.Printf("| star(%d) | %d | %d | %d | %v |\n",
			n, res.Final.Len(), res.StepsTaken, obl.Final.Len(), obl.Terminated())
	}
}

func e2() {
	prog := mustSet(`
		P(a,b).
		s1: P(X,Y) -> R(X,Y).
		s2: P(X,Y) -> S(X).
		s3: R(X,Y) -> S(X).
		s4: S(X) -> R(X,Y).
	`)
	fmt.Println("| node bound | multiset nodes | distinct atoms (= oblivious chase) | complete |")
	fmt.Println("|---|---|---|---|")
	for _, bound := range []int{10, 50, 200, 1000} {
		g := ochase.Build(prog.Database, prog.TGDs, ochase.BuildOptions{MaxNodes: bound})
		fmt.Printf("| %d | %d | %d | %v |\n", bound, g.MultisetSize(), g.AtomSet().Len(), g.Complete)
	}
}

func e3() {
	fmt.Println("| program | horizon | rounds | FairUpTo | extensible after repair |")
	fmt.Println("|---|---|---|---|---|")
	single := mustSet(`
		S(a). P(a).
		grow: S(X) -> R(X,Y).
		next: R(X,Y) -> S(Y).
		want: P(X) -> Q(X).
	`)
	starve := func(d *chase.Derivation) (chase.Trigger, bool) {
		for _, tr := range d.Active() {
			if tr.TGD.Label != "want" {
				return tr, true
			}
		}
		return chase.Trigger{}, false
	}
	multi := mustSet(`
		R(a,b,b).
		mh1: R(X,Y,Y) -> R(X,Z,Y), R(Z,Y,Y).
		mh2: R(X,Y,Z) -> R(Z,Z,Z).
	`)
	horizons := []int{8, 16, 32}
	if *quick {
		horizons = []int{8, 16}
	}
	for _, h := range horizons {
		_, rep, err := fairness.Fairize(single.Database, single.TGDs, starve, h)
		if err != nil {
			fmt.Printf("| single-head ladder | %d | error: %v |\n", h, err)
			continue
		}
		fmt.Printf("| single-head ladder | %d | %d | %d | %v |\n", h, rep.Rounds, rep.FairUpTo, rep.ExtensibleAfter)
	}
	for _, h := range horizons {
		_, rep, err := fairness.Fairize(multi.Database, multi.TGDs, fairness.OnlyTGD("mh1"), h)
		if err != nil {
			fmt.Printf("| Example B.1 (multi-head) | %d | error: %v |\n", h, err)
			continue
		}
		fmt.Printf("| Example B.1 (multi-head) | %d | %d | %d | %v |\n", h, rep.Rounds, rep.FairUpTo, rep.ExtensibleAfter)
	}
}

func e4() {
	fmt.Println("| program | derivation steps | chaseable |A| | extraction replays | instances equal |")
	fmt.Println("|---|---|---|---|---|")
	progs := map[string]string{
		"example-3.2": `
			P(a,b).
			s1: P(X,Y) -> R(X,Y). s2: P(X,Y) -> S(X).
			s3: R(X,Y) -> S(X).   s4: S(X) -> R(X,Y).`,
		"join": `
			R(a,b). S(b,c).
			t1: S(X,Y) -> T(X).
			t2: R(X,Y), T(Y) -> P(X,Y).
			t3: P(X,Y) -> Q(Y).`,
	}
	names := sortedKeys(progs)
	for _, name := range names {
		prog := mustSet(progs[name])
		run := chase.RunChase(prog.Database, prog.TGDs, chase.Options{Variant: chase.Restricted})
		g := ochase.Build(prog.Database, prog.TGDs, ochase.BuildOptions{MaxNodes: 5000})
		A, err := ochase.ChaseableFromRun(g, run)
		if err != nil {
			fmt.Printf("| %s | error: %v |\n", name, err)
			continue
		}
		d, err := g.ExtractDerivation(A)
		ok := err == nil
		equal := ok && d.Instance().Equal(run.Final)
		fmt.Printf("| %s | %d | %d | %v | %v |\n", name, len(run.Steps), len(A), ok, equal)
	}
}

func e5() {
	prog := mustSet(`
		R(a,b). S(b,c).
		s1: S(X,Y) -> T(X).
		s2: R(X,Y), T(Y) -> P(X,Y).
		s3: P(X,Y) -> P(Y,Z).
	`)
	g := ochase.Build(prog.Database, prog.TGDs, ochase.BuildOptions{MaxNodes: 400, MaxDepth: 8})
	tr, err := guarded.Treeify(g, guarded.TreeifyOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	dac := tr.Database()
	naive := mustSet(`R(a,b). s1: S(X,Y) -> T(X). s2: R(X,Y), T(Y) -> P(X,Y). s3: P(X,Y) -> P(Y,Z).`)
	naiveRun := chase.RunChase(naive.Database, naive.TGDs, chase.Options{Variant: chase.Restricted, MaxSteps: 200, DropSteps: true})
	dacRun := chase.RunChase(dac, prog.TGDs, chase.Options{Variant: chase.Restricted, MaxSteps: 200, DropSteps: true})
	critDB := critical.Instance(prog.TGDs)
	critRun := chase.RunChase(critDB, prog.TGDs, chase.Options{Variant: chase.Restricted, MaxSteps: 200, DropSteps: true})
	fmt.Println("| database | atoms | acyclic | restricted chase (budget 200) |")
	fmt.Println("|---|---|---|---|")
	fmt.Printf("| D = {R(a,b), S(b,c)} | 2 | %v | diverges (by construction) |\n", jointree.IsAcyclic(prog.Database.Atoms()))
	fmt.Printf("| naive α∞ only {R(a,b)} | 1 | true | terminates after %d steps |\n", naiveRun.StepsTaken)
	fmt.Printf("| critical D* | %d | %v | %s |\n", critDB.Len(), jointree.IsAcyclic(critDB.Atoms()), verdictOf(critRun))
	fmt.Printf("| treeified D_ac | %d | %v | %s |\n", dac.Len(), jointree.IsAcyclic(dac.Atoms()), verdictOf(dacRun))
	fmt.Printf("\nα∞ = %v, ℓ∞ = %d, longs-for edges = %d\n", tr.AlphaInf, tr.EllInf, len(tr.LongsFor))
}

func verdictOf(run *chase.Run) string {
	if run.Terminated() {
		return fmt.Sprintf("terminates after %d steps", run.StepsTaken)
	}
	return "diverges (budget exhausted)"
}

func e6() {
	fmt.Println("| family | n | ground truth | verdict | method | seeds | time |")
	fmt.Println("|---|---|---|---|---|---|---|")
	ns := []int{2, 4, 8, 16}
	if *quick {
		ns = []int{2, 4}
	}
	for _, n := range ns {
		for _, fam := range []workload.Labeled{workload.ExistentialChain(n), workload.SwapIntro(n), workload.LinearCycle(n), workload.GuardedLadder(n)} {
			if !fam.Set.IsGuarded() {
				continue
			}
			start := time.Now()
			v, err := guarded.Decide(fam.Set, guarded.DecideOptions{MaxSteps: 800})
			el := time.Since(start)
			if err != nil {
				fmt.Printf("| %s | %d | - | error: %v |\n", fam.Name, n, err)
				continue
			}
			fmt.Printf("| %s | %d | %s | %s | %s | %d | %s |\n",
				fam.Name, n, terminatesWord(fam.Terminates), terminatesWord(v.Terminates),
				v.Method, v.SeedsTried, el.Round(time.Millisecond))
		}
	}
}

func terminatesWord(b bool) string {
	if b {
		return "terminates"
	}
	return "diverges"
}

func e7() {
	fmt.Println("| family | n | ground truth | verdict | states explored | time |")
	fmt.Println("|---|---|---|---|---|---|")
	ns := []int{2, 4, 8}
	if *quick {
		ns = []int{2, 4}
	}
	for _, n := range ns {
		for _, fam := range []workload.Labeled{workload.StickyJoin(n), workload.StickyRelay(n), workload.LinearCycle(n), workload.SwapIntro(n)} {
			if !fam.Set.IsSticky() {
				continue
			}
			start := time.Now()
			v, err := sticky.Decide(fam.Set, sticky.DecideOptions{})
			el := time.Since(start)
			if err != nil {
				fmt.Printf("| %s | %d | - | error: %v |\n", fam.Name, n, err)
				continue
			}
			fmt.Printf("| %s | %d | %s | %s | %d | %s |\n",
				fam.Name, n, terminatesWord(fam.Terminates), terminatesWord(v.Terminates),
				v.StatesExplored, el.Round(time.Millisecond))
		}
	}
}

func e8() {
	fmt.Println("| diverging family | lasso prefix | lasso cycle | gap | gap ≤ states |")
	fmt.Println("|---|---|---|---|---|")
	for _, fam := range []workload.Labeled{workload.StickyRelay(2), workload.StickyRelay(4), workload.LinearCycle(2), workload.LinearCycle(4)} {
		v, err := sticky.Decide(fam.Set, sticky.DecideOptions{})
		if err != nil || v.Terminates {
			fmt.Printf("| %s | unexpected: %v %v |\n", fam.Name, v, err)
			continue
		}
		// Re-explore the witnessing component for the state count.
		a, err := sticky.BuildAutomaton(fam.Set, *v.Seed)
		if err != nil {
			fmt.Printf("| %s | error: %v |\n", fam.Name, err)
			continue
		}
		e := buchi.Explore(a, 0)
		fmt.Printf("| %s | %d | %d | %d | %v |\n",
			fam.Name, len(v.Lasso.Prefix), len(v.Lasso.Cycle), v.Lasso.Gap, v.Lasso.Gap <= e.Len())
	}
}

func e9() {
	type row struct {
		accepted, correct, applicable int
	}
	results := map[string]*row{
		"weak acyclicity":  {},
		"joint acyclicity": {},
		"MFA (critical)":   {},
		"analyzer (ours)":  {},
	}
	corpus := workload.Corpus()
	terminating := 0
	for _, l := range corpus {
		if l.Terminates {
			terminating++
		}
		wa := acyclicity.IsWeaklyAcyclic(l.Set)
		ja := acyclicity.IsJointlyAcyclic(l.Set)
		mfa := acyclicity.CheckMFA(l.Set, 20000).Acyclic
		score := func(name string, accepted bool) {
			r := results[name]
			r.applicable++
			if accepted {
				r.accepted++
				if l.Terminates {
					r.correct++
				}
			}
		}
		score("weak acyclicity", wa)
		score("joint acyclicity", ja)
		score("MFA (critical)", mfa)
		rep, err := portfolio.Report(context.Background(), l.Set, portfolio.Options{})
		if err == nil {
			score("analyzer (ours)", rep.Conclusion == core.Terminates)
		}
	}
	fmt.Printf("corpus: %d programs, %d terminating\n\n", len(corpus), terminating)
	fmt.Println("| checker | accepts | of which correct | coverage of terminating |")
	fmt.Println("|---|---|---|---|")
	for _, name := range []string{"weak acyclicity", "joint acyclicity", "MFA (critical)", "analyzer (ours)"} {
		r := results[name]
		fmt.Printf("| %s | %d | %d | %d/%d |\n", name, r.accepted, r.correct, r.correct, terminating)
	}
}

func e10() {
	fmt.Println("| workload | variant | steps | atoms | atoms/ms |")
	fmt.Println("|---|---|---|---|---|")
	n := 400
	if *quick {
		n = 100
	}
	onto := workload.Ontology(n, 1)
	exch := workload.Exchange(n, 1)
	for _, w := range []struct {
		name string
		prog *parser.Program
	}{{"ontology", onto}, {"exchange", exch.Program}} {
		for _, v := range []chase.Variant{chase.Restricted, chase.SemiOblivious, chase.Oblivious} {
			start := time.Now()
			run := chase.RunChase(w.prog.Database, w.prog.TGDs, chase.Options{Variant: v, MaxSteps: 500000, DropSteps: true})
			el := time.Since(start)
			rate := float64(run.Final.Len()) / (float64(el.Microseconds())/1000 + 1e-9)
			fmt.Printf("| %s(%d) | %s | %d | %d | %.1f |\n", w.name, n, v, run.StepsTaken, run.Final.Len(), rate)
		}
	}
}

// e11 runs the staged portfolio over the whole labeled corpus with one
// shared cross-run cache and aggregates which stage decides which program:
// attempts, decisions and cumulative in-stage time per stage, plus a
// drift count against the flat report (which must be zero — the cascade's
// conclusion-identity contract).
func e11() {
	cache := chase.NewCache()
	type agg struct {
		tier               int
		attempted, decided int
		elapsed            time.Duration
	}
	stages := map[string]*agg{}
	var order []string
	mismatches, undecided := 0, 0
	corpus := workload.Corpus()
	for _, l := range corpus {
		rep, err := portfolio.Report(context.Background(), l.Set, portfolio.Options{})
		if err != nil {
			fmt.Printf("portfolio.Report(%s): %v\n", l.Name, err)
			continue
		}
		res, err := portfolio.Analyze(context.Background(), l.Set, portfolio.Options{Cache: cache})
		if err != nil {
			fmt.Printf("portfolio.Analyze(%s): %v\n", l.Name, err)
			continue
		}
		if res.Conclusion != rep.Conclusion {
			mismatches++
			fmt.Printf("DRIFT on %s: cascade %v vs flat report %v\n", l.Name, res.Conclusion, rep.Conclusion)
		}
		if res.Conclusion == core.Unknown {
			undecided++
		}
		for _, s := range res.Stages {
			a := stages[s.Stage]
			if a == nil {
				a = &agg{tier: s.Tier}
				stages[s.Stage] = a
				order = append(order, s.Stage)
			}
			if s.Detail != "skipped: an earlier stage decided" {
				a.attempted++
			}
			if s.Decided {
				a.decided++
			}
			a.elapsed += s.Duration
		}
	}
	fmt.Printf("corpus: %d programs, %d undecided, %d conclusion mismatches vs the flat report (must be 0)\n\n",
		len(corpus), undecided, mismatches)
	fmt.Println("| stage | tier | attempted | decided | cumulative time |")
	fmt.Println("|---|---|---|---|---|")
	for _, name := range order {
		a := stages[name]
		fmt.Printf("| %s | %d | %d | %d | %s |\n", name, a.tier, a.attempted, a.decided, a.elapsed.Round(time.Microsecond))
	}
	st := cache.Stats()
	fmt.Printf("\nshared cache: hits=%d misses=%d entries=%d bytes=%d\n", st.Hits, st.Misses, st.Entries, st.Bytes)
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
