// Quickstart: parse a program, check all-instances restricted chase
// termination, then materialise a universal model with the restricted
// chase.
//
//	go run ./examples/quickstart
//
// Expect a class checklist ([x] guarded, [x] sticky, ...), the verdict
// "terminates" with the deciding conditions, and the 4-atom universal
// model of the Example 3.2 program.
package main

import (
	"context"
	"fmt"
	"log"

	"airct/internal/chase"
	"airct/internal/core"
	"airct/internal/logic"
	"airct/internal/parser"
	"airct/internal/portfolio"
)

const program = `
	# A tiny HR database…
	Emp(alice, it).
	Emp(bob, hr).

	# …and its constraints: every employee's department is a department
	# with some manager, and managers are employees of that department.
	emp_dept: Emp(X, D) -> Dept(D).
	dept_mgr: Dept(D) -> Mgr(D, M).
	mgr_emp:  Mgr(D, M) -> Emp(M, D).
`

func main() {
	prog, err := parser.Parse(program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %d facts and %d TGDs\n\n", prog.Database.Len(), prog.TGDs.Len())

	// 1. Static analysis: does the restricted chase terminate on *every*
	// database, under *every* trigger order?
	report, err := portfolio.Report(context.Background(), prog.TGDs, portfolio.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("termination analysis:")
	fmt.Print(report.Summary())

	if report.Conclusion != core.Terminates {
		log.Fatal("not materialisable — aborting")
	}

	// 2. Materialise: the chase result is a universal model.
	run := chase.RunChase(prog.Database, prog.TGDs, chase.Options{Variant: chase.Restricted})
	fmt.Printf("\nuniversal model (%d atoms, %d invented nulls):\n", run.Final.Len(), run.Final.NullCount())
	atoms := run.Final.Atoms()
	logic.SortAtoms(atoms)
	for _, a := range atoms {
		fmt.Printf("  %v\n", a)
	}

	// 3. Query it: who manages IT? (conjunctive query via homomorphism)
	q := []logic.Atom{logic.MustAtom("Mgr", logic.Const("it"), logic.Var("M"))}
	h := logic.FindHomomorphism(q, nil, run.Final)
	if h == nil {
		log.Fatal("no IT manager derived")
	}
	fmt.Printf("\nIT manager: %v (a labeled null: the model is universal, not arbitrary)\n",
		h.ApplyTerm(logic.Var("M")))
}
