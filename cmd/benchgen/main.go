// Command benchgen emits workload programs from the parametric families:
//
//	benchgen -family NAME [-n N] [-db KIND] [-size N] [-seed N]
//
// Families: datalog-chain, existential-chain, linear-cycle, swap-intro,
// guarded-ladder, sticky-join, sticky-relay, exchange, ontology, stage-grid,
// key-graph. Database kinds (appended as facts): none, star, chain, random.
// The exchange, ontology, stage-grid and key-graph families generate their
// own facts (stage-grid is the 3^n-state ∀∃ search workload; feed it to
// `termcheck -exists`; key-graph is the key-constrained EGD
// workload behind BENCH_egd.json — -n nodes, a key EGD merging the invented
// values that flow along the random edges).
package main

import (
	"flag"
	"fmt"
	"os"

	"airct/internal/parser"
	"airct/internal/workload"
)

func main() {
	family := flag.String("family", "", "workload family (required)")
	n := flag.Int("n", 4, "family size parameter")
	db := flag.String("db", "none", "database kind: none, star, chain, random")
	size := flag.Int("size", 10, "database size")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	switch *family {
	case "exchange":
		sc := workload.Exchange(*size, *seed)
		fmt.Print(parser.Print(sc.Program))
		return
	case "ontology":
		fmt.Print(parser.Print(workload.Ontology(*size, *seed)))
		return
	case "stage-grid":
		fmt.Print(parser.Print(workload.StageGrid(*n)))
		return
	case "key-graph":
		fmt.Printf("# family=key-graph n=%d egds=true terminates=true fails=false\n", *n)
		fmt.Print(parser.Print(workload.KeyGraph(*n, *seed)))
		return
	}

	var l workload.Labeled
	switch *family {
	case "datalog-chain":
		l = workload.DatalogChain(*n)
	case "existential-chain":
		l = workload.ExistentialChain(*n)
	case "linear-cycle":
		l = workload.LinearCycle(*n)
	case "swap-intro":
		l = workload.SwapIntro(*n)
	case "guarded-ladder":
		l = workload.GuardedLadder(*n)
	case "sticky-join":
		l = workload.StickyJoin(*n)
	case "sticky-relay":
		l = workload.StickyRelay(*n)
	default:
		fmt.Fprintf(os.Stderr, "benchgen: unknown family %q\n", *family)
		os.Exit(3)
	}

	fmt.Printf("# family=%s n=%d guarded=%v sticky=%v linear=%v terminates=%v\n",
		l.Name, *n, l.Guarded, l.Sticky, l.Linear, l.Terminates)
	switch *db {
	case "none":
	case "star":
		for _, a := range workload.StarDatabase(firstPred(l), *size).Atoms() {
			fmt.Printf("%v.\n", a)
		}
	case "chain":
		for _, a := range workload.ChainDatabase(firstPred(l), *size).Atoms() {
			fmt.Printf("%v.\n", a)
		}
	case "random":
		for _, a := range workload.RandomDatabase(l.Set.Schema(), *size, *size/2+1, *seed).Atoms() {
			fmt.Printf("%v.\n", a)
		}
	default:
		fmt.Fprintf(os.Stderr, "benchgen: unknown db kind %q\n", *db)
		os.Exit(3)
	}
	fmt.Print(l.Source)
}

// firstPred picks a binary predicate of the family for the structured
// database generators, defaulting to the first predicate.
func firstPred(l workload.Labeled) string {
	for _, p := range l.Set.Schema().Predicates() {
		if p.Arity == 2 {
			return p.Name
		}
	}
	return l.Set.Schema().Predicates()[0].Name
}
