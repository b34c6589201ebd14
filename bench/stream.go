package main

// Workload streams. A stream is an endless sequence of blocks; each block is
// a seeded shuffle of a deck whose mix proportions are exact, so a run that
// stops on a block boundary has exactly the workload's mix. Every request's
// predicates are renamed with a suffix (`Ident(` → `Ident_r<k>(`): the
// verdict is invariant under renaming, but the fingerprints are not, so a
// "new" program really misses every cache. repeat-warm's pool programs are
// renamed once, by pool index, so their repeats hit.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"regexp"

	"airct/internal/parser"
	"airct/internal/workload"
)

const (
	epDecide    = "decide"
	epPortfolio = "decide-portfolio"
	epExists    = "exists"
)

// program is one base program with its ground truth ("" for no claim).
type program struct {
	name   string
	source string
	truth  string
}

// item is one deck entry. key names the rename suffix of a pool program;
// empty means a fresh suffix per request.
type item struct {
	endpoint string
	prog     program
	key      string
}

// request is one generated request.
type request struct {
	endpoint string
	name     string
	program  string
	truth    string
}

// catalog holds every base program the decks draw from.
type catalog struct {
	portfolio []program // workload.Corpus() plus the 7 families at n ∈ [2,12]
	flat      []program // the corpus' hand-written programs plus the families at n ≤ 4
	grid      map[int]program
	found     []program // conformance programs marked exists=found
	budget    []program // conformance programs marked exists=budget
}

// The programs the traffic draws from are pinned here by name, so a program
// later added to workload.Corpus() or testdata/conformance does not change
// what the bench sends. A pinned program that is gone fails the run.
var (
	// corpusNames is workload.Corpus() in its order: handWritten programs,
	// then family members at n = 2 and 4.
	corpusNames = []string{
		"intro-example", "example-3.2", "example-5.6", "ladder",
		"self-satisfied", "swap-intro", "transitive-closure", "paper-sticky",
		"datalog-chain-2", "existential-chain-2", "linear-cycle-2", "swap-intro-2",
		"sticky-join-2", "sticky-relay-2", "guarded-ladder-2",
		"datalog-chain-4", "existential-chain-4", "linear-cycle-4", "swap-intro-4",
		"sticky-join-4", "sticky-relay-4", "guarded-ladder-4",
	}
	// foundNames and budgetNames are conformance programs marked exists=found
	// and exists=budget.
	foundNames  = []string{"egd-tgd-control", "intro", "multihead", "stage-grid-3", "swap-intro", "transitive-closure"}
	budgetNames = []string{"example56", "guard-chain-pump", "ladder", "relay-pump", "sticky-relay-2"}
)

const handWritten = 8

var families = []func(int) workload.Labeled{
	workload.DatalogChain,
	workload.ExistentialChain,
	workload.LinearCycle,
	workload.SwapIntro,
	workload.GuardedLadder,
	workload.StickyJoin,
	workload.StickyRelay,
}

func labeled(l workload.Labeled) program {
	truth := "diverges"
	if l.Terminates {
		truth = "terminates"
	}
	return program{name: l.Name, source: l.Source, truth: truth}
}

func newCatalog(root string) (*catalog, error) {
	c := &catalog{grid: map[int]program{}}
	corpus := map[string]workload.Labeled{}
	for _, l := range workload.Corpus() {
		corpus[l.Name] = l
	}
	for i, name := range corpusNames {
		l, ok := corpus[name]
		if !ok {
			return nil, fmt.Errorf("workload.Corpus() has no program %q", name)
		}
		c.portfolio = append(c.portfolio, labeled(l))
		if i < handWritten {
			c.flat = append(c.flat, labeled(l))
		}
	}
	for _, f := range families {
		for n := 2; n <= 12; n++ {
			c.portfolio = append(c.portfolio, labeled(f(n)))
			if n <= 4 {
				c.flat = append(c.flat, labeled(f(n)))
			}
		}
	}
	for n := 5; n <= 8; n++ {
		c.grid[n] = program{name: fmt.Sprintf("stage-grid-%d", n), source: parser.Print(workload.StageGrid(n)), truth: "found"}
	}
	conf, err := loadConformance(root)
	if err != nil {
		return nil, err
	}
	byName := map[string]conformanceProgram{}
	for _, cp := range conf {
		byName[cp.name] = cp
	}
	// A program's truth is its exists= mark when the mark is a verdict;
	// exists=budget records where the search stopped and claims nothing.
	pick := func(names []string) ([]program, error) {
		out := make([]program, 0, len(names))
		for _, name := range names {
			cp, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("testdata/conformance has no program %q", name)
			}
			p := program{name: name, source: cp.source}
			if mark := cp.expect["exists"]; decidedVerdicts[mark] {
				p.truth = mark
			}
			out = append(out, p)
		}
		return out, nil
	}
	if c.found, err = pick(foundNames); err != nil {
		return nil, err
	}
	if c.budget, err = pick(budgetNames); err != nil {
		return nil, err
	}
	return c, nil
}

var predicateRE = regexp.MustCompile(`([\w']+)\(`)

// rename suffixes every predicate of src with _<key>.
func rename(src, key string) string {
	return predicateRE.ReplaceAllString(src, "${1}_"+key+"(")
}

// stream generates one workload's blocks from its seed.
type stream struct {
	wl     string
	cat    *catalog
	rng    *rand.Rand
	pool   []item // repeat-warm's pool
	seq    int
	blocks int
}

func newStream(wl string, cat *catalog, seed int64) (*stream, error) {
	s := &stream{wl: wl, cat: cat, rng: rand.New(rand.NewSource(seed))}
	switch wl {
	case "first-contact", "exists-search":
	case "repeat-warm":
		s.pool = s.makePool("p", 48, 24, []program{cat.grid[5], cat.grid[6], cat.grid[7], cat.grid[8]}, 3, 6, 6)
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	return s, nil
}

// spaced returns k programs of ps spread evenly over it (k ≤ len(ps)).
func spaced(ps []program, k int) []program {
	out := make([]program, k)
	for i := range out {
		out[i] = ps[i*len(ps)/k]
	}
	return out
}

// cycled returns k programs of ps, cycling through it from offset from.
// Decks take their programs with spaced and cycled, from the block number,
// never from the seed: a run's make-up, and with it the workload's cost,
// is the same for every seed. The seed only orders and names the requests.
func cycled(ps []program, k, from int) []program {
	out := make([]program, k)
	for i := range out {
		out[i] = ps[(from+i)%len(ps)]
	}
	return out
}

// makePool builds a pool: nPort portfolio decides, nFlat flat decides, each
// grid program gridReps times, nFound exists=found and nBudget
// exists=budget programs. Pool entry i is renamed with prefix+i.
func (s *stream) makePool(prefix string, nPort, nFlat int, grids []program, gridReps, nFound, nBudget int) []item {
	var pool []item
	add := func(ep string, ps ...program) {
		for _, p := range ps {
			pool = append(pool, item{endpoint: ep, prog: p, key: fmt.Sprintf("%s%d", prefix, len(pool))})
		}
	}
	add(epPortfolio, spaced(s.cat.portfolio, nPort)...)
	add(epDecide, spaced(s.cat.flat, nFlat)...)
	for r := 0; r < gridReps; r++ {
		add(epExists, grids...)
	}
	add(epExists, cycled(s.cat.found, nFound, 0)...)
	add(epExists, cycled(s.cat.budget, nBudget, 0)...)
	return pool
}

// deck returns the next block's entries, before shuffling.
func (s *stream) deck() []item {
	c, b := s.cat, s.blocks
	var d []item
	add := func(ep string, ps ...program) {
		for _, p := range ps {
			d = append(d, item{endpoint: ep, prog: p})
		}
	}
	switch s.wl {
	case "first-contact":
		// 100 portfolio : 25 flat = 80% : 20%.
		add(epPortfolio, c.portfolio...)
		add(epPortfolio, cycled(c.portfolio, 1, b)...)
		add(epDecide, cycled(c.flat, 25, 25*b)...)
	case "repeat-warm":
		d = append(d, s.pool...)
	case "exists-search":
		// 48 grid : 6 found : 6 budget = 80% : 10% : 10%.
		for r := 0; r < 12; r++ {
			add(epExists, c.grid[5], c.grid[6], c.grid[7], c.grid[8])
		}
		add(epExists, cycled(c.found, 6, 0)...)
		add(epExists, cycled(c.budget, 6, b)...)
	}
	s.blocks++
	return d
}

// block returns the next block's requests.
func (s *stream) block() []request {
	d := s.deck()
	s.rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	reqs := make([]request, len(d))
	for i, it := range d {
		key := it.key
		if key == "" {
			key = fmt.Sprintf("r%d", s.seq)
		}
		reqs[i] = it.request(key)
		s.seq++
	}
	return reqs
}

func (it item) request(key string) request {
	return request{endpoint: it.endpoint, name: it.prog.name, program: rename(it.prog.source, key), truth: it.prog.truth}
}

// poolRequests returns every pool program once, renamed as in the stream:
// repeat-warm's pre-warm pass.
func (s *stream) poolRequests() []request {
	out := make([]request, len(s.pool))
	for i, it := range s.pool {
		out[i] = it.request(it.key)
	}
	return out
}

// streamHash digests the first n blocks of a stream: equal seeds must give
// equal hashes.
func streamHash(wl string, cat *catalog, seed int64, n int) (string, error) {
	s, err := newStream(wl, cat, seed)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for b := 0; b < n; b++ {
		for _, r := range s.block() {
			fmt.Fprintf(h, "%s\x00%s\x00", r.endpoint, r.program)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// trafficBlocks is how many blocks a results file's stream hashes digest:
// enough for every deck to cycle through all of its programs.
const trafficBlocks = 16

// streamHashes digests each workload's stream at seed. compare judges two
// sets of results only when their streams agree seed for seed.
func streamHashes(cat *catalog, seed int64, wls []string) (map[string]string, error) {
	out := make(map[string]string, len(wls))
	for _, wl := range wls {
		h, err := streamHash(wl, cat, seed, trafficBlocks)
		if err != nil {
			return nil, err
		}
		out[wl] = h
	}
	return out, nil
}
