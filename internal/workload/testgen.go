package workload

// Random generators behind the property-test suites, promoted here from
// per-package quick_test.go files (chase, buchi) so every package draws its
// conformance inputs from one shared, seed-deterministic source — the same
// generators the conformance corpus and the cross-run cache property tests
// (warm ≡ cold Decide) run on. RandomTGDSet (random.go) is the third member
// of the family; guarded's property tests already use it.

import (
	"fmt"
	"math/rand"
	"strings"

	"airct/internal/buchi"
	"airct/internal/parser"
	"airct/internal/tgds"
)

// RepeatedDecideRequests models the serving workload behind the cross-run
// chase cache (internal/chase.Cache): k independent requests carrying the
// SAME program, each parsed fresh — as a server handling repeated queries
// would hold k distinct Set values of identical content, so any reuse must
// key on content fingerprints, never on pointers. The base family is
// SwapIntro(n): guarded, terminating, and NOT weakly acyclic, so every
// request re-generates and re-chases the full seed pool unless a cache
// steps in.
func RepeatedDecideRequests(n, k int) []*tgds.Set {
	src := SwapIntro(n).Source
	out := make([]*tgds.Set, k)
	for i := range out {
		set, err := parser.ParseTGDs(src)
		if err != nil {
			panic(err)
		}
		out[i] = set
	}
	return out
}

// RandomDatalogProgram generates a random datalog program (no existentials,
// so every chase terminates) with a random database, deterministically from
// the seed. Promoted from internal/chase's quick_test.go; the rng draw
// sequence is preserved, so historic seeds reproduce historic programs.
func RandomDatalogProgram(seed int64) *parser.Program {
	rng := rand.New(rand.NewSource(seed))
	nPreds := 3 + rng.Intn(3)
	arity := func(p int) int { return 1 + (p % 2) }
	var b strings.Builder
	vars := []string{"X", "Y", "Z"}
	atom := func(p int, pool []string) string {
		args := make([]string, arity(p))
		for i := range args {
			args[i] = pool[rng.Intn(len(pool))]
		}
		return fmt.Sprintf("P%d(%s)", p, strings.Join(args, ","))
	}
	nRules := 2 + rng.Intn(4)
	for r := 0; r < nRules; r++ {
		nBody := 1 + rng.Intn(2)
		pool := vars[:1+rng.Intn(len(vars))]
		var body []string
		used := map[string]bool{}
		for i := 0; i < nBody; i++ {
			a := atom(rng.Intn(nPreds), pool)
			body = append(body, a)
			for _, v := range pool {
				if strings.Contains(a, v) {
					used[v] = true
				}
			}
		}
		// Head variables drawn from the variables the body actually uses:
		// genuinely no existentials.
		var usedPool []string
		for _, v := range pool {
			if used[v] {
				usedPool = append(usedPool, v)
			}
		}
		fmt.Fprintf(&b, "%s -> %s.\n", strings.Join(body, ", "), atom(rng.Intn(nPreds), usedPool))
	}
	nFacts := 1 + rng.Intn(5)
	consts := []string{"a", "b", "cc"}
	for f := 0; f < nFacts; f++ {
		p := rng.Intn(nPreds)
		args := make([]string, arity(p))
		for i := range args {
			args[i] = consts[rng.Intn(len(consts))]
		}
		fmt.Fprintf(&b, "P%d(%s).\n", p, strings.Join(args, ","))
	}
	prog, err := parser.Parse(b.String())
	if err != nil {
		panic(err)
	}
	return prog
}

// RandomExistentialProgram generates a random single-head TGD set with
// existential variables plus a database, deterministically from the seed.
// Promoted from internal/chase's triggerindex_test.go (the index-repair
// property's workload generator alongside RandomDatalogProgram); the rng
// draw sequence is preserved.
func RandomExistentialProgram(seed int64) *parser.Program {
	rng := rand.New(rand.NewSource(seed))
	nPreds := 2 + rng.Intn(3)
	arity := func(p int) int { return 1 + (p % 2) }
	var b strings.Builder
	vars := []string{"X", "Y"}
	exist := []string{"V", "W"}
	nRules := 2 + rng.Intn(3)
	for r := 0; r < nRules; r++ {
		bp := rng.Intn(nPreds)
		hp := rng.Intn(nPreds)
		bodyArgs := make([]string, arity(bp))
		for i := range bodyArgs {
			bodyArgs[i] = vars[rng.Intn(len(vars))]
		}
		headArgs := make([]string, arity(hp))
		usedBody := false
		for i := range headArgs {
			if !usedBody || rng.Intn(2) == 0 {
				// Frontier variable: must occur in the body.
				headArgs[i] = bodyArgs[rng.Intn(len(bodyArgs))]
				usedBody = true
			} else {
				headArgs[i] = exist[rng.Intn(len(exist))]
			}
		}
		fmt.Fprintf(&b, "r%d: P%d(%s) -> P%d(%s).\n", r, bp, strings.Join(bodyArgs, ","), hp, strings.Join(headArgs, ","))
	}
	nFacts := 1 + rng.Intn(3)
	for f := 0; f < nFacts; f++ {
		p := rng.Intn(nPreds)
		args := make([]string, arity(p))
		for i := range args {
			args[i] = fmt.Sprintf("c%d", rng.Intn(3))
		}
		fmt.Fprintf(&b, "P%d(%s).\n", p, strings.Join(args, ","))
	}
	return parser.MustParse(b.String())
}

// RandomAutomaton builds a random deterministic Büchi automaton with
// nStates states over a binary alphabet, deterministically from the seed.
// Promoted from internal/buchi's quick_test.go; the rng draw sequence is
// preserved.
func RandomAutomaton(seed int64, nStates int) *buchi.Automaton {
	rng := rand.New(rand.NewSource(seed))
	type key struct{ state, sym int }
	trans := make(map[key]int)
	accepting := make([]bool, nStates)
	for s := 0; s < nStates; s++ {
		for a := 0; a < 2; a++ {
			if rng.Intn(10) == 0 {
				continue // reject sink
			}
			trans[key{s, a}] = rng.Intn(nStates)
		}
		accepting[s] = rng.Intn(4) == 0
	}
	return &buchi.Automaton{
		Alphabet: []string{"0", "1"},
		Initial:  0,
		Step: func(state, sym int) (int, bool) {
			next, ok := trans[key{state, sym}]
			return next, ok
		},
		Accepting: func(state int) bool { return accepting[state] },
	}
}

// ServeRequest is one request of a serving workload: which endpoint of the
// analysis daemon it targets and the .chase program text it carries.
type ServeRequest struct {
	// Endpoint is "decide", "decide-portfolio" or "exists".
	Endpoint string
	// Source is the full program text (facts + TGDs).
	Source string
}

// RepeatedMixedRequests models a termination-analysis daemon's steady
// state: k rounds over a fixed mixed pool of programs sized by n — plain
// ∀∀ decides, portfolio decides and ∀∃ searches, terminating and diverging
// families alike. Every round repeats the same programs (as monitoring,
// CI and retry traffic do), so under ONE shared cross-run cache round 1 is
// cold and rounds 2..k replay; without one, every round pays full price.
// The serving benchmarks (internal/serve) measure that gap end to end.
func RepeatedMixedRequests(n, k int) []ServeRequest {
	grid := StageGrid(n)
	var gridSrc strings.Builder
	for _, a := range grid.Database.Atoms() {
		gridSrc.WriteString(a.String())
		gridSrc.WriteString(".\n")
	}
	for _, t := range grid.TGDs.TGDs {
		gridSrc.WriteString(t.String())
		gridSrc.WriteString(".\n")
	}
	base := []ServeRequest{
		{Endpoint: "decide", Source: SwapIntro(n).Source},
		{Endpoint: "decide-portfolio", Source: SwapIntro(n).Source},
		{Endpoint: "decide", Source: GuardedLadder(n).Source},
		{Endpoint: "decide-portfolio", Source: LinearCycle(n).Source},
		{Endpoint: "decide-portfolio", Source: StickyRelay(n).Source},
		{Endpoint: "exists", Source: gridSrc.String()},
	}
	out := make([]ServeRequest, 0, len(base)*k)
	for round := 0; round < k; round++ {
		out = append(out, base...)
	}
	return out
}

// BurstyMixedRequests models bursty daemon traffic: the same mixed pool as
// RepeatedMixedRequests, but each program arrives in back-to-back bursts of
// `burst` identical requests (a monitoring fleet firing on the same tick, a
// CI matrix fanning out one change) instead of an evenly interleaved
// round-robin. Tail latency separates the two shapes: the first request of
// a cold burst pays the full analysis while its burst-mates queue behind
// the same flight, so p99 tracks the cost of the heaviest program — which
// is exactly what the serving benchmarks' percentile columns measure.
func BurstyMixedRequests(n, k, burst int) []ServeRequest {
	if burst < 1 {
		burst = 1
	}
	base := RepeatedMixedRequests(n, 1)
	out := make([]ServeRequest, 0, len(base)*k*burst)
	for round := 0; round < k; round++ {
		for _, r := range base {
			for i := 0; i < burst; i++ {
				out = append(out, r)
			}
		}
	}
	return out
}
