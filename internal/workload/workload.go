// Package workload generates the labeled TGD families and databases behind
// the experiment suite (docs/CLI.md, "experiments — the paper-reproduction
// suite"): parametric guarded/sticky families with known CT^res_∀∀ ground
// truth, database generators (star, chain, random), a data-exchange
// scenario, and a small ontology workload. All generators are
// deterministic given their parameters and seed.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/parser"
	"airct/internal/tgds"
)

// Labeled is a TGD set with its ground truth and class annotations.
type Labeled struct {
	Name string
	// Source is the program text (rules only).
	Source string
	Set    *tgds.Set
	// Guarded/Sticky/Linear record the intended classes (validated by
	// tests against the class checkers).
	Guarded bool
	Sticky  bool
	Linear  bool
	// Terminates is the CT^res_∀∀ ground truth, by construction.
	Terminates bool
}

func mustLabeled(name, src string, guarded, sticky, linear, terminates bool) Labeled {
	set, err := parser.ParseTGDs(src)
	if err != nil {
		panic(fmt.Sprintf("workload: %s: %v", name, err))
	}
	return Labeled{
		Name: name, Source: src, Set: set,
		Guarded: guarded, Sticky: sticky, Linear: linear, Terminates: terminates,
	}
}

// DatalogChain is A_1(X) → A_2(X) → … → A_n(X): terminating, in every
// class, weakly acyclic.
func DatalogChain(n int) Labeled {
	var b strings.Builder
	for i := 1; i < n+1; i++ {
		fmt.Fprintf(&b, "A%d(X) -> A%d(X).\n", i, i+1)
	}
	return mustLabeled(fmt.Sprintf("datalog-chain-%d", n), b.String(), true, true, true, true)
}

// ExistentialChain interleaves existentials that are consumed once:
// A_i(X) → ∃Y R_i(X,Y); R_i(X,Y) → A_{i+1}(Y). Terminating (weakly
// acyclic), guarded, sticky, linear.
func ExistentialChain(n int) Labeled {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "A%d(X) -> R%d(X,Y).\n", i, i)
		fmt.Fprintf(&b, "R%d(X,Y) -> A%d(Y).\n", i, i+1)
	}
	return mustLabeled(fmt.Sprintf("existential-chain-%d", n), b.String(), true, true, true, true)
}

// LinearCycle is R_1(X,Y) → ∃Z R_2(Y,Z) → … → R_n(X,Y) → ∃Z R_1(Y,Z):
// diverging (the invented value feeds the next existential forever),
// guarded, sticky, linear.
func LinearCycle(n int) Labeled {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		next := i%n + 1
		fmt.Fprintf(&b, "R%d(X,Y) -> R%d(Y,Z).\n", i, next)
	}
	return mustLabeled(fmt.Sprintf("linear-cycle-%d", n), b.String(), true, true, true, false)
}

// SwapIntro layers the swap+intro pattern: T_i(X,Y) → ∃W T_i(X,W) (always
// pre-satisfied by its own trigger atom) plus T_i(X,Y) → T_i(Y,X), bridged
// by T_i(X,Y) → T_{i+1}(X,Y). Terminating on every database and in every
// derivation order, yet NOT weakly acyclic — the family where the
// restricted-chase analysis genuinely beats the acyclicity baselines.
func SwapIntro(n int) Labeled {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "T%d(X,Y) -> T%d(X,W).\n", i, i)
		fmt.Fprintf(&b, "T%d(X,Y) -> T%d(Y,X).\n", i, i)
		if i < n {
			fmt.Fprintf(&b, "T%d(X,Y) -> T%d(X,Y).\n", i, i+1)
		}
	}
	return mustLabeled(fmt.Sprintf("swap-intro-%d", n), b.String(), true, true, true, true)
}

// GuardedLadder is the diverging guarded (non-linear) family with a side
// atom: G_i(X,Y), S(Y) → ∃Z G_{i+1}(Y,Z); G_n feeds G_1; S holds the side
// tokens and every invented value gets one: G_i(X,Y) → S(Y) would
// terminate, so the ladder instead reuses the guard value. Diverging,
// guarded, not linear.
func GuardedLadder(n int) Labeled {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		next := i%n + 1
		fmt.Fprintf(&b, "G%d(X,Y), S(X) -> G%d(Y,Z).\n", i, next)
		fmt.Fprintf(&b, "G%d(X,Y) -> S(Y).\n", i)
	}
	src := b.String()
	l := mustLabeled(fmt.Sprintf("guarded-ladder-%d", n), src, true, false, false, false)
	return l
}

// StickyJoin is the paper's Section 2 sticky example scaled: join rules
// whose marked variables occur once. Terminating (the T-atoms are
// consumed once; heads are satisfied after one round).
func StickyJoin(n int) Labeled {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "T%d(X,Y,Z) -> S%d(Y,W).\n", i, i)
		fmt.Fprintf(&b, "R%d(X,Y), P%d(Y,Z) -> T%d(X,Y,W).\n", i, i, i)
	}
	return mustLabeled(fmt.Sprintf("sticky-join-%d", n), b.String(), false, true, false, true)
}

// StickyRelay is a diverging sticky family with an n-hop relay:
// B_1(X) → ∃Y R(X,Y); R(X,Y) → B_2(Y); B_i → B_{i+1}; B_n → B_1.
func StickyRelay(n int) Labeled {
	var b strings.Builder
	b.WriteString("B1(X) -> R(X,Y).\n")
	b.WriteString("R(X,Y) -> B2(Y).\n")
	for i := 2; i <= n; i++ {
		fmt.Fprintf(&b, "B%d(X) -> B%d(X).\n", i, i%n+1)
	}
	return mustLabeled(fmt.Sprintf("sticky-relay-%d", n), b.String(), true, true, true, false)
}

// Corpus returns the labeled corpus used by the coverage experiment (E9):
// hand-written programs (the paper's examples among them) plus the
// parametric families at small sizes.
func Corpus() []Labeled {
	out := []Labeled{
		mustLabeled("intro-example", `R(X,Y) -> R(X,Z).`, true, true, true, true),
		mustLabeled("example-3.2", `
			P(X,Y) -> R(X,Y).
			P(X,Y) -> S(X).
			R(X,Y) -> S(X).
			S(X) -> R(X,Y).`, true, true, true, true),
		mustLabeled("example-5.6", `
			S(X,Y) -> T(X).
			R(X,Y), T(Y) -> P(X,Y).
			P(X,Y) -> P(Y,Z).`, true, false, false, false),
		mustLabeled("ladder", `
			S(X) -> R(X,Y).
			R(X,Y) -> S(Y).`, true, true, true, false),
		mustLabeled("self-satisfied", `R(X,Y) -> R(Z,Y).`, true, true, true, true),
		mustLabeled("swap-intro", `
			T(X,Y) -> T(X,W).
			T(X,Y) -> T(Y,X).`, true, true, true, true),
		mustLabeled("transitive-closure", `E(X,Y), E(Y,Z) -> E(X,Z).`, false, false, false, true),
		mustLabeled("paper-sticky", `
			T(X,Y,Z) -> S(Y,W).
			R(X,Y), P(Y,Z) -> T(X,Y,W).`, false, true, false, true),
	}
	for _, n := range []int{2, 4} {
		out = append(out,
			DatalogChain(n),
			ExistentialChain(n),
			LinearCycle(n),
			SwapIntro(n),
			StickyJoin(n),
			StickyRelay(n),
			GuardedLadder(n),
		)
	}
	return out
}

// StarDatabase returns {R(hub, leaf_1), …, R(hub, leaf_n)}.
func StarDatabase(pred string, n int) *instance.Database {
	db := instance.NewDatabase()
	for i := 0; i < n; i++ {
		mustAdd(db, logic.MustAtom(pred, logic.Const("hub"), logic.Const(fmt.Sprintf("leaf%d", i))))
	}
	return db
}

// ChainDatabase returns {R(c_0,c_1), …, R(c_{n-1},c_n)}.
func ChainDatabase(pred string, n int) *instance.Database {
	db := instance.NewDatabase()
	for i := 0; i < n; i++ {
		mustAdd(db, logic.MustAtom(pred, logic.Const(fmt.Sprintf("c%d", i)), logic.Const(fmt.Sprintf("c%d", i+1))))
	}
	return db
}

// RandomDatabase draws nAtoms atoms over the schema with nConsts constants,
// deterministically from the seed.
func RandomDatabase(schema *logic.Schema, nAtoms, nConsts int, seed int64) *instance.Database {
	rng := rand.New(rand.NewSource(seed))
	preds := schema.Predicates()
	db := instance.NewDatabase()
	if len(preds) == 0 || nConsts <= 0 {
		return db
	}
	for i := 0; i < nAtoms; i++ {
		p := preds[rng.Intn(len(preds))]
		args := make([]logic.Term, p.Arity)
		for j := range args {
			args[j] = logic.Const(fmt.Sprintf("d%d", rng.Intn(nConsts)))
		}
		mustAdd(db, logic.NewAtom(p, args...))
	}
	return db
}

func mustAdd(db *instance.Database, a logic.Atom) {
	if err := db.Add(a); err != nil {
		panic(err)
	}
}

// ExchangeScenario is a data-exchange workload: weakly-acyclic
// source-to-target TGDs plus a generated source database.
type ExchangeScenario struct {
	Program *parser.Program
}

// Exchange builds a scenario with n source tuples: Emp(X,Y) maps to
// a target with an invented department, departments get references.
func Exchange(n int, seed int64) *ExchangeScenario {
	src := `
		emp_to_tgt: Emp(X,Y) -> TgtEmp(X,Y,D).
		dept_ref:   TgtEmp(X,Y,D) -> Dept(D).
		dept_head:  Dept(D) -> Head(D,H).
		head_person: Head(D,H) -> Person(H).
	`
	prog, err := parser.Parse(src)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		mustAdd(prog.Database, logic.MustAtom("Emp",
			logic.Const(fmt.Sprintf("e%d", i)),
			logic.Const(fmt.Sprintf("m%d", rng.Intn(n/2+1)))))
	}
	return &ExchangeScenario{Program: prog}
}

// Ontology builds a small guarded ontology (university flavoured) with n
// students and n/4 professors; every TGD is guarded and the set terminates.
func Ontology(n int, seed int64) *parser.Program {
	src := `
		prof_person:    Professor(X) -> Person(X).
		student_person: Student(X) -> Person(X).
		person_member:  Person(X) -> MemberOf(X,Y).
		member_org:     MemberOf(X,Y) -> Org(Y).
		teach_course:   Teaches(X,Y) -> Course(Y).
		teach_prof:     Teaches(X,Y) -> Professor(X).
		advise:         Advises(X,Y), Student(Y) -> Mentor(X).
		mentor_person:  Mentor(X) -> Person(X).
	`
	prog, err := parser.Parse(src)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	profs := n/4 + 1
	for i := 0; i < profs; i++ {
		mustAdd(prog.Database, logic.MustAtom("Professor", logic.Const(fmt.Sprintf("prof%d", i))))
	}
	for i := 0; i < n; i++ {
		mustAdd(prog.Database, logic.MustAtom("Student", logic.Const(fmt.Sprintf("stud%d", i))))
		p := fmt.Sprintf("prof%d", rng.Intn(profs))
		mustAdd(prog.Database, logic.MustAtom("Advises", logic.Const(p), logic.Const(fmt.Sprintf("stud%d", i))))
		if i%3 == 0 {
			mustAdd(prog.Database, logic.MustAtom("Teaches", logic.Const(p), logic.Const(fmt.Sprintf("course%d", i))))
		}
	}
	return prog
}

// KeyGraph builds the key-constrained EGD workload (BENCH_egd.json): a
// random graph of n nodes where every node receives an invented f-value
// (f_intro), the value propagates along edges (f_copy), and a key EGD makes
// F functional — so the chase keeps merging each node's accumulated values
// down to one, with equalities cascading transitively along edge chains. No
// ground F facts are seeded, so every unification is null-with-null and the
// chase never fails; the TGD part is weakly acyclic, so the set terminates
// under the EGD-sound acyclicity argument. Deterministic given (n, seed).
func KeyGraph(n int, seed int64) *parser.Program {
	src := `
		f_intro: Node(X) -> F(X,V).
		f_copy:  Edge(X,Y), F(X,V) -> F(Y,V).
		f_key:   F(X,U), F(X,V) -> U = V.
	`
	prog, err := parser.Parse(src)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	node := func(i int) logic.Term { return logic.Const(fmt.Sprintf("v%d", i)) }
	for i := 0; i < n; i++ {
		mustAdd(prog.Database, logic.MustAtom("Node", node(i)))
	}
	// ~1.5 random edges per node: enough convergence that most nodes see a
	// second value and the key fires, without densifying the join.
	for i := 0; i < n; i++ {
		mustAdd(prog.Database, logic.MustAtom("Edge", node(i), node(rng.Intn(n))))
		if i%2 == 0 {
			mustAdd(prog.Database, logic.MustAtom("Edge", node(rng.Intn(n)), node(i)))
		}
	}
	return prog
}

// StageGrid builds the ∀∃ search's scaling workload: n independent facts
// P(c_i), each advancing through two datalog stages (P → +Q → +R), so the
// reachable state space has exactly 3^n distinct instances and a single
// fixpoint — the full closure. A derivation search must sweep essentially
// the whole space before the fixpoint is expanded, making the family a pure
// states/sec measurement for the exists-search benchmarks
// (BENCH_exists.json, BENCH_delta.json). Terminating; weakly acyclic.
func StageGrid(n int) *parser.Program {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "P(c%d).\n", i)
	}
	b.WriteString("s1: P(X) -> Q(X).\n")
	b.WriteString("s2: Q(X) -> R(X).\n")
	prog, err := parser.Parse(b.String())
	if err != nil {
		panic(err)
	}
	return prog
}
