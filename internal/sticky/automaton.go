package sticky

import (
	"fmt"
	"slices"

	"airct/internal/buchi"
	"airct/internal/etypes"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// The product automaton A_{e₀,Π₀} = A_pc × A_qc × A_cc of Appendix D.2
// runs on integer identity. A path state holds
//
//   - the equality type of the current path atom (A_pc);
//   - the stop-tracking set Θ (A_qc): every previous body atom α_i,
//     abstracted relative to the current atom α_j (the T_j-equality type
//     of Appendix A / Lemma D.3) as its equality type plus, per position,
//     the current-atom class holding the same term, or 0 when the term
//     left the path. Everything needed to evaluate α_i ≺s α_{j+k} later is
//     there — Lemma D.3's point;
//   - the relay-position sets Π1 ⊆ Π2 and the acceptance flag (A_cc).
//
// Equality types, tracked types and path states are uint32 tuples interned
// in logic.TupleTables, and a tracked set is its sorted, deduplicated
// tracked-type IDs, so a transition builds no string and no map. A Büchi
// state is compared only for identity: this encoding is injective, hence
// explores the same state graph in the same BFS order as any other.

// etypeInfo is an interned equality type (tuple [pred, rep...]).
type etypeInfo struct {
	pred int      // predicate index (machine.predIndex)
	rep  []uint32 // rep[i]: 0-based first position of position i's class
	self int32    // tracked-type ID of the atom relative to itself; -1 until needed
}

// compiledSymbol is one letter (σ, γ, P) of Λ_T, laid out for step: γ's
// variable pattern, the head's variable pattern, and which head positions
// are frontier, immortal or pass-on.
type compiledSymbol struct {
	gammaPred int
	gvar      []int32 // γ position -> γ variable index
	nvars     int
	headPred  int
	headVar   []int32 // head position -> head variable index
	headGV    []int32 // head position -> γ variable index, or -1 (leg-bound or existential)
	frontier  []bool  // head position holds a frontier variable
	immortal  []bool  // head position holds an unmarked frontier variable
	pass      []uint32
}

// stepCtx is the part of a transition fixed by (current equality type,
// symbol): the successor equality type and how current classes survive.
type stepCtx struct {
	next          int32    // successor equality type; -1 when γ does not map onto the current atom
	oldToNew      []uint32 // current class (1-based) -> new class (1-based), 0 if the term leaves
	frontierClass []bool   // new class (1-based) -> holds a propagated (frontier) term
}

// machine is A_T compiled for one sticky set: the marking-derived symbol
// layouts are computed once and shared by every component automaton;
// equality and tracked types are interned for the whole decision, path
// states per component.
type machine struct {
	keys      []string
	syms      []compiledSymbol
	predIndex map[logic.Predicate]int

	etypeTab *logic.TupleTable
	etypes   []etypeInfo
	trackTab *logic.TupleTable // tracked types: [etype, label per position...]
	states   *logic.TupleTable // path states: [etype, accept, |Θ|, Θ..., |Π1|, Π1..., Π2...]

	ctxIndex []int32 // etype*len(syms) + symbol -> index into ctxs; -1 not yet computed
	ctxs     []stepCtx

	// The decoded current state: Explore asks for every symbol of one
	// state in a row.
	curID          int
	curEtype       uint32
	curTracked     []uint32
	curPi1, curPi2 []uint32

	buf, lbl, tracked, d1, d2, d12, pi1, pi2 []uint32
	hv, target                               []int32
	inVars                                   []bool
}

// newMachine compiles A_T for a sticky set from its marking.
func newMachine(set *tgds.Set, marking *tgds.Marking) *machine {
	alphabet := Alphabet(set)
	m := &machine{
		keys:      make([]string, len(alphabet)),
		syms:      make([]compiledSymbol, len(alphabet)),
		predIndex: make(map[logic.Predicate]int),
		etypeTab:  logic.NewTupleTable(64),
		trackTab:  logic.NewTupleTable(256),
		states:    logic.NewTupleTable(256),
		curID:     -1,
	}
	for i, s := range alphabet {
		m.keys[i] = s.Key()
		m.syms[i] = m.compileSymbol(set, marking, s)
	}
	return m
}

func (m *machine) pred(p logic.Predicate) int {
	i, ok := m.predIndex[p]
	if !ok {
		i = len(m.predIndex)
		m.predIndex[p] = i
	}
	return i
}

func (m *machine) compileSymbol(set *tgds.Set, marking *tgds.Marking, s Symbol) compiledSymbol {
	t := set.TGDs[s.TGDIndex]
	gamma := t.Body[s.Gamma]
	head := t.HeadAtom()
	frontier := t.Frontier()
	cs := compiledSymbol{
		gammaPred: m.pred(gamma.Pred),
		gvar:      make([]int32, len(gamma.Args)),
		headPred:  m.pred(head.Pred),
		headVar:   make([]int32, len(head.Args)),
		headGV:    make([]int32, len(head.Args)),
		frontier:  make([]bool, len(head.Args)),
		immortal:  make([]bool, len(head.Args)),
	}
	gv := make(map[logic.Term]int32)
	for p, v := range gamma.Args {
		i, ok := gv[v]
		if !ok {
			i = int32(len(gv))
			gv[v] = i
		}
		cs.gvar[p] = i
	}
	cs.nvars = len(gv)
	hvars := make(map[logic.Term]int32)
	for p, v := range head.Args {
		i, ok := hvars[v]
		if !ok {
			i = int32(len(hvars))
			hvars[v] = i
		}
		cs.headVar[p] = i
		cs.headGV[p] = -1
		if g, ok := gv[v]; ok {
			cs.headGV[p] = g
		}
		cs.frontier[p] = frontier.Has(v)
		cs.immortal[p] = marking.ImmortalHeadPosition(s.TGDIndex, p+1)
	}
	for _, p := range s.P {
		cs.pass = append(cs.pass, uint32(p))
	}
	if cs.nvars > len(m.hv) {
		m.hv = make([]int32, cs.nvars)
		m.inVars = make([]bool, cs.nvars)
	}
	if n := len(head.Args) + 1; n > len(m.target) {
		m.target = make([]int32, n)
	}
	return cs
}

// internEtype interns an equality type tuple [pred, rep...].
func (m *machine) internEtype(tuple []uint32) uint32 {
	id, isNew := m.etypeTab.Intern(tuple)
	if isNew {
		m.etypes = append(m.etypes, etypeInfo{pred: int(tuple[0]), rep: slices.Clone(tuple[1:]), self: -1})
		for range m.syms {
			m.ctxIndex = append(m.ctxIndex, -1)
		}
	}
	return uint32(id)
}

func (m *machine) etypeOf(e etypes.EType) uint32 {
	m.buf = append(m.buf[:0], uint32(m.pred(e.Pred)))
	for p := 1; p <= e.Pred.Arity; p++ {
		m.buf = append(m.buf, uint32(e.ClassOf(p)-1))
	}
	return m.internEtype(m.buf)
}

// automaton returns the component A_{e₀,Π₀} for the seed. Its states are
// the machine's path-state IDs, minted densely in first-visit order, so
// the automaton invalidates any automaton an earlier call returned.
func (m *machine) automaton(seed Seed) *buchi.Automaton {
	m.states.Reset()
	m.curID = -1
	e := m.etypeOf(seed.EType)
	m.buf = append(m.buf[:0], e, 0, 0, uint32(len(seed.Pi0)))
	for _, p := range seed.Pi0 {
		m.buf = append(m.buf, uint32(p))
	}
	for _, p := range seed.Pi0 {
		m.buf = append(m.buf, uint32(p))
	}
	initial, _ := m.states.Intern(m.buf)
	return &buchi.Automaton{
		Alphabet:  m.keys,
		Initial:   int(initial),
		Step:      m.step,
		Accepting: m.accepting,
	}
}

func (m *machine) accepting(state int) bool { return m.states.Tuple(logic.TupleID(state))[1] == 1 }

func (m *machine) decode(state int) {
	if state == m.curID {
		return
	}
	tup := m.states.Tuple(logic.TupleID(state))
	m.curID = state
	m.curEtype = tup[0]
	nt := int(tup[2])
	m.curTracked = append(m.curTracked[:0], tup[3:3+nt]...)
	rest := tup[3+nt:]
	n1 := int(rest[0])
	m.curPi1 = append(m.curPi1[:0], rest[1:1+n1]...)
	m.curPi2 = append(m.curPi2[:0], rest[1+n1:]...)
}

// ctx returns the memoised step context of (equality type, symbol).
func (m *machine) ctx(e uint32, sym int) *stepCtx {
	slot := int(e)*len(m.syms) + sym
	if i := m.ctxIndex[slot]; i >= 0 {
		return &m.ctxs[i]
	}
	c := m.computeCtx(e, &m.syms[sym])
	m.ctxIndex[slot] = int32(len(m.ctxs))
	m.ctxs = append(m.ctxs, c)
	return &m.ctxs[len(m.ctxs)-1]
}

// computeCtx is A_pc's transition: the homomorphism of γ onto the
// canonical atom of the current equality type, then the new equality type
// δet(e, (σ,γ,·)) over the head positions — same class iff same head
// variable, or both variables γ-bound to the same current class. Frontier
// variables bound by leg atoms, and existential variables, are
// pairwise-distinct fresh symbols (freeness).
func (m *machine) computeCtx(e uint32, cs *compiledSymbol) stepCtx {
	cur := &m.etypes[e]
	if cur.pred != cs.gammaPred {
		return stepCtx{next: -1}
	}
	hv := m.hv[:cs.nvars] // γ variable -> current class (1-based)
	for i := range hv {
		hv[i] = -1
	}
	for p, v := range cs.gvar {
		c := int32(cur.rep[p]) + 1
		if hv[v] < 0 {
			hv[v] = c
		} else if hv[v] != c {
			return stepCtx{next: -1} // γ repeats a variable across distinct classes
		}
	}
	mh := len(cs.headVar)
	m.buf = append(m.buf[:0], uint32(cs.headPred))
	for i := 0; i < mh; i++ {
		r := uint32(i)
		for j := 0; j < i; j++ {
			same := cs.headVar[i] == cs.headVar[j]
			if !same && cs.headGV[i] >= 0 && cs.headGV[j] >= 0 {
				same = hv[cs.headGV[i]] == hv[cs.headGV[j]]
			}
			if same {
				r = m.buf[1+j]
				break
			}
		}
		m.buf = append(m.buf, r)
	}
	c := stepCtx{
		oldToNew:      make([]uint32, len(cur.rep)+1),
		frontierClass: make([]bool, mh+1),
	}
	for p := 0; p < mh; p++ {
		nc := m.buf[1+p] + 1
		if g := cs.headGV[p]; g >= 0 {
			c.oldToNew[hv[g]] = nc
		}
		if cs.frontier[p] {
			c.frontierClass[nc] = true
		}
	}
	c.next = int32(m.internEtype(m.buf))
	return c
}

// step implements the product transition δ = (δet, δΘ, δcc) of Appendix
// D.2 over state IDs and symbol indices; ok = false is the reject sink.
func (m *machine) step(state, sym int) (int, bool) {
	m.decode(state)
	cs := &m.syms[sym]
	c := m.ctx(m.curEtype, sym)
	if c.next < 0 {
		return 0, false
	}

	// --- A_cc: relay propagation δpos and immortality.
	m.d1 = m.dpos(cs, m.curPi1, m.d1[:0])
	if len(m.d1) == 0 {
		return 0, false // the current relay term died before the next pass-on
	}
	m.d2 = m.dpos(cs, m.curPi2, m.d2[:0])
	for _, i := range m.d2 {
		if cs.immortal[i-1] {
			return 0, false // a relay term reached an immortal position
		}
	}

	// --- A_qc: advance Θ and the current atom's own type (Lemma D.3).
	ne := &m.etypes[c.next]
	m.tracked = m.tracked[:0]
	for _, t := range m.curTracked {
		id, ok := m.advance(t, c, ne)
		if !ok {
			return 0, false // a previous atom stops the new one
		}
		m.tracked = append(m.tracked, id)
	}
	id, ok := m.advance(m.selfType(m.curEtype), c, ne)
	if !ok {
		return 0, false
	}
	m.tracked = append(m.tracked, id)
	slices.Sort(m.tracked)
	m.tracked = slices.Compact(m.tracked)

	// --- A_cc: pass-on bookkeeping.
	accept := uint32(0)
	if len(cs.pass) > 0 {
		m.pi1 = append(m.pi1[:0], cs.pass...)
		m.d12 = union(m.d12[:0], m.d1, m.d2)
		m.pi2 = union(m.pi2[:0], cs.pass, m.d12)
		accept = 1
	} else {
		m.pi1 = append(m.pi1[:0], m.d1...)
		m.pi2 = union(m.pi2[:0], m.d1, m.d2)
	}
	m.buf = append(m.buf[:0], uint32(c.next), accept, uint32(len(m.tracked)))
	m.buf = append(m.buf, m.tracked...)
	m.buf = append(m.buf, uint32(len(m.pi1)))
	m.buf = append(m.buf, m.pi1...)
	m.buf = append(m.buf, m.pi2...)
	next, _ := m.states.Intern(m.buf)
	return int(next), true
}

// dpos is δpos: the head positions (1-based, ascending) carrying a γ
// variable that sits at one of the current positions pi.
func (m *machine) dpos(cs *compiledSymbol, pi, out []uint32) []uint32 {
	in := m.inVars[:cs.nvars]
	for i := range in {
		in[i] = false
	}
	for _, j := range pi {
		if int(j) <= len(cs.gvar) {
			in[cs.gvar[j-1]] = true
		}
	}
	for i, g := range cs.headGV {
		if g >= 0 && in[g] {
			out = append(out, uint32(i+1))
		}
	}
	return out
}

// selfType is the tracked type of the current atom relative to itself:
// every class labeled by itself.
func (m *machine) selfType(e uint32) uint32 {
	info := &m.etypes[e]
	if info.self < 0 {
		m.lbl = append(m.lbl[:0], e)
		for _, r := range info.rep {
			m.lbl = append(m.lbl, r+1)
		}
		id, _ := m.trackTab.Intern(m.lbl)
		info.self = id
	}
	return uint32(info.self)
}

// advance relabels the tracked type t through the step's class map and
// interns the result; ok = false when the previous atom it abstracts stops
// the new atom of type ne.
func (m *machine) advance(t uint32, c *stepCtx, ne *etypeInfo) (uint32, bool) {
	tup := m.trackTab.Tuple(logic.TupleID(t))
	m.lbl = append(m.lbl[:0], tup[0])
	for _, l := range tup[1:] {
		if l != 0 {
			l = c.oldToNew[l]
		}
		m.lbl = append(m.lbl, l)
	}
	if m.stops(&m.etypes[tup[0]], m.lbl[1:], ne, c.frontierClass) {
		return 0, false
	}
	id, _ := m.trackTab.Intern(m.lbl)
	return uint32(id), true
}

// stops decides whether the previous atom abstracted by (te, labels) stops
// the new atom of type ne: a homomorphism h′ from the new atom onto the old
// one must map each new-atom class consistently and fix the frontier
// classes — the old atom's class at a frontier position must be labeled
// with exactly that new-atom class.
func (m *machine) stops(te *etypeInfo, labels []uint32, ne *etypeInfo, frontierClass []bool) bool {
	if te.pred != ne.pred {
		return false
	}
	target := m.target[:len(ne.rep)] // new class rep -> old class rep
	for i := range target {
		target[i] = -1
	}
	for p, nc := range ne.rep {
		oc := int32(te.rep[p])
		if target[nc] < 0 {
			target[nc] = oc
		} else if target[nc] != oc {
			return false // inconsistent: one new term would map to two old terms
		}
	}
	for p, nc := range ne.rep {
		if frontierClass[nc+1] && labels[te.rep[p]] != nc+1 {
			return false // frontier term not fixed
		}
	}
	return true
}

// union appends the sorted union of the ascending, duplicate-free a and b
// to dst.
func union(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			dst = append(dst, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// Seed identifies a component automaton A_{e₀,Π₀}: the equality type of
// the first body atom and the class of positions carrying the first relay
// term.
type Seed struct {
	EType etypes.EType
	Pi0   []int
}

// forEachSeed calls yield with each (e₀, Π₀) pair of the union A_T —
// every equality type over sch(T) paired with each of its position classes
// — until yield returns false. Seeds are built as they are yielded: one
// n-ary predicate alone has B(n+1) − B(n) of them.
func forEachSeed(set *tgds.Set, yield func(Seed) bool) {
	for _, pred := range set.Schema().Predicates() {
		more := etypes.ForEach(pred, func(e etypes.EType) bool {
			for _, c := range e.Classes() {
				positions := []int{}
				for p := 1; p <= e.Pred.Arity; p++ {
					if e.ClassOf(p) == c {
						positions = append(positions, p)
					}
				}
				if !yield(Seed{EType: e, Pi0: positions}) {
					return false
				}
			}
			return true
		})
		if !more {
			return
		}
	}
}

// BuildAutomaton constructs the deterministic Büchi automaton A_{e₀,Π₀}
// over caterpillar words for the given seed, on a machine of its own.
func BuildAutomaton(set *tgds.Set, seed Seed) (*buchi.Automaton, error) {
	ok, marking, err := tgds.IsSticky(set)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("sticky: set is not sticky: %v", marking.Violation())
	}
	return newMachine(set, marking).automaton(seed), nil
}
