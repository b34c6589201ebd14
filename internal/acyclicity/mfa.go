package acyclicity

import (
	"airct/internal/chase"
	"airct/internal/critical"
	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// MFAResult reports the outcome of the model-faithful-style check.
type MFAResult struct {
	// Acyclic is true when the semi-oblivious chase of the critical
	// instance saturated without creating a cyclic null.
	Acyclic bool
	// CyclicNull holds the offending null when Acyclic is false and the
	// check found an ancestry cycle (same TGD and existential variable
	// nested inside itself).
	CyclicNull logic.Term
	// Steps is the number of chase steps performed.
	Steps int
}

// CheckMFA runs the MFA-style test: chase the critical instance D* with the
// semi-oblivious chase, tracking null ancestry; if a null created by
// (σ, z) has an ancestor null created by the same (σ, z), the set is
// reported cyclic. If the chase saturates first, the set is MFA and every
// chase variant terminates on every database. maxSteps bounds the search
// (0: 100_000); hitting the bound reports Acyclic = false with no witness.
//
// The chase runs in rounds. Each round takes the triggers of the instance
// as it stood when the round began, in canonical order (TGD index, then
// body bindings), and applies every one whose frontier class has not been
// applied yet; nulls are named n0, n1, … in application order. The rounds
// are semi-naive: every trigger over the instance at the start of round
// r−1 had its frontier class applied or skipped during round r−1, so the
// only triggers round r can still apply are those whose image touches an
// atom added in round r−1. Round r therefore enumerates just those
// (SlotSearch.ForEachDelta) and sorts each TGD's batch canonically, which
// applies the same triggers in the same order as re-enumerating the whole
// instance would: the null names, Steps and CyclicNull are unchanged.
func CheckMFA(set *tgds.Set, maxSteps int) MFAResult {
	if maxSteps <= 0 {
		maxSteps = 100_000
	}
	return newMFAChase(set).run(maxSteps)
}

// mfaTGD is one TGD compiled for the MFA chase: sorted body variables in
// slots 0..nBody-1, sorted existential variables after them.
type mfaTGD struct {
	nBody, nExist int
	body, head    *logic.CPattern
	frontier      []int32 // body slots of the frontier variables, ascending
	// witness is the slot of the first existential variable in head
	// order: the null the cycle test reports.
	witness int32
}

// mfaChase is the state of one CheckMFA run on the interned core.
type mfaChase struct {
	tab   *logic.Interner
	inst  *instance.Instance
	rules []mfaTGD
	front *logic.TupleTable // frontier classes [tgd, frontier TermIDs...]
	namer *logic.FreshNamer

	// Null ancestry. Every application that invents nulls records the set
	// of TGDs among its nulls' ancestors, itself included, as a bitset of
	// `words` uint64s appended to anc; appOf maps a null's TermID to that
	// record (-1 for terms that are not nulls). A new null is cyclic iff its TGD is
	// in the union of its frontier nulls' sets — the ancestor walk the
	// origin test describes, done once per application.
	//
	// Origin granularity is the creating TGD. The textbook MFA condition
	// keys on (σ, z); collapsing the existential variables of one TGD only
	// makes the cycle test fire earlier, which keeps acceptance sound (an
	// accepted set still saturated cycle-free).
	appOf []int32
	anc   []uint64
	words int
	scr   []uint64

	ss   logic.SlotSearch
	disc []uint32 // collected trigger tuples [tgd, body TermIDs...]
	offs []int32  // tuple offsets into disc, each TGD's run sorted canonically
	tup  []uint32
	bind []logic.TermID // the applied trigger's slots, nulls included
	args []logic.TermID
}

func newMFAChase(set *tgds.Set) *mfaChase {
	m := &mfaChase{
		tab:   logic.NewInterner(),
		front: logic.NewTupleTable(64),
		namer: logic.NewFreshNamer("n"),
		words: (len(set.TGDs) + 63) / 64,
	}
	m.scr = make([]uint64, m.words)
	m.inst = instance.NewWithInternerHint(m.tab, 64)
	crit := m.tab.InternTerm(critical.TheConstant)
	for _, p := range set.Schema().Predicates() {
		args := make([]logic.TermID, p.Arity)
		for i := range args {
			args[i] = crit
		}
		m.inst.AddTuple(m.tab.InternPred(p), args)
	}
	m.rules = make([]mfaTGD, len(set.TGDs))
	for i, t := range set.TGDs {
		m.rules[i] = m.compile(t)
	}
	return m
}

func (m *mfaChase) compile(t tgds.TGD) mfaTGD {
	bodyVars := t.BodyVars().Sorted()
	existVars := t.ExistentialVars().Sorted()
	slots := make(map[logic.Term]int32, len(bodyVars)+len(existVars))
	for i, v := range bodyVars {
		slots[v] = int32(i)
	}
	for k, v := range existVars {
		slots[v] = int32(len(bodyVars) + k)
	}
	slotOf := func(v logic.Term) int32 { return slots[v] }
	total := len(bodyVars) + len(existVars)
	r := mfaTGD{
		nBody:   len(bodyVars),
		nExist:  len(existVars),
		body:    logic.CompilePattern(t.Body, total, slotOf, m.tab),
		head:    logic.CompilePattern(t.Head, total, slotOf, m.tab),
		witness: -1,
	}
	frontier := t.Frontier()
	for i, v := range bodyVars {
		if frontier.Has(v) {
			r.frontier = append(r.frontier, int32(i))
		}
	}
	for _, a := range r.head.Atoms {
		for _, arg := range a.Args {
			if r.witness < 0 && arg.Slot >= int32(r.nBody) {
				r.witness = arg.Slot
			}
		}
	}
	return r
}

func (m *mfaChase) run(maxSteps int) MFAResult {
	steps := 0
	lo := int32(0) // the previous round's first new atom; 0: whole instance
	for {
		if steps >= maxSteps {
			return MFAResult{Acyclic: false, Steps: steps}
		}
		m.collect(lo)
		lo = int32(m.inst.Len())
		progressed := false
		for _, off := range m.offs {
			fired, cyclic := m.apply(off)
			if !fired {
				continue
			}
			if cyclic.IsNull() {
				return MFAResult{Acyclic: false, CyclicNull: cyclic, Steps: steps}
			}
			steps++
			progressed = true
			if steps >= maxSteps {
				return MFAResult{Acyclic: false, Steps: steps}
			}
		}
		if !progressed {
			return MFAResult{Acyclic: true, Steps: steps}
		}
	}
}

// collect gathers every trigger whose image touches an atom at insertion
// index lo or later — all triggers when lo is 0 — per TGD in canonical
// order. Every trigger is collected before any is applied, so the round
// sees exactly the instance it started on.
func (m *mfaChase) collect(lo int32) {
	m.disc, m.offs = m.disc[:0], m.offs[:0]
	for i := range m.rules {
		r := &m.rules[i]
		start := len(m.offs)
		yield := func(bind []logic.TermID) bool {
			m.offs = append(m.offs, int32(len(m.disc)))
			m.disc = append(m.disc, uint32(i))
			for _, t := range bind[:r.nBody] {
				m.disc = append(m.disc, uint32(t))
			}
			return true
		}
		m.ss.Reset(r.body)
		if lo == 0 {
			m.ss.ForEach(r.body, m.inst, yield)
		} else {
			m.ss.ForEachDelta(r.body, m.inst, lo, yield)
		}
		chase.SortTriggerTuples(m.tab, m.disc, m.offs[start:], r.nBody+1)
	}
}

// apply fires the trigger at disc[off:] unless its frontier class was
// applied before. When it fires and invents nulls whose ancestry repeats
// its TGD, it returns the first of them the head mentions and adds
// nothing; otherwise it adds the head atoms and cyclic is the zero Term.
func (m *mfaChase) apply(off int32) (fired bool, cyclic logic.Term) {
	tgd := int(m.disc[off])
	r := &m.rules[tgd]
	body := m.disc[off+1 : off+1+int32(r.nBody)]
	m.tup = append(m.tup[:0], uint32(tgd))
	for _, s := range r.frontier {
		m.tup = append(m.tup, body[s])
	}
	if _, isNew := m.front.Intern(m.tup); !isNew {
		return false, logic.Term{}
	}
	bind := m.bind[:0]
	for _, t := range body {
		bind = append(bind, logic.TermID(t))
	}
	for k := 0; k < r.nExist; k++ {
		bind = append(bind, m.tab.InternTerm(m.namer.NextNull()))
	}
	m.bind = bind
	if r.nExist > 0 {
		clear(m.scr)
		for _, s := range r.frontier {
			if a := m.app(bind[s]); a >= 0 {
				for w, bits := range m.anc[int(a)*m.words : int(a+1)*m.words] {
					m.scr[w] |= bits
				}
			}
		}
		word, bit := tgd/64, uint64(1)<<(tgd%64)
		if m.scr[word]&bit != 0 {
			return true, m.tab.Term(bind[r.witness])
		}
		m.scr[word] |= bit
		a := int32(len(m.anc) / m.words)
		m.anc = append(m.anc, m.scr...)
		for _, n := range bind[r.nBody:] {
			for int(n) >= len(m.appOf) {
				m.appOf = append(m.appOf, -1)
			}
			m.appOf[n] = a
		}
	}
	for _, h := range r.head.Atoms {
		m.args = m.args[:0]
		for _, arg := range h.Args {
			if arg.Slot < 0 {
				m.args = append(m.args, arg.ID)
			} else {
				m.args = append(m.args, bind[arg.Slot])
			}
		}
		m.inst.AddTuple(h.Pred, m.args)
	}
	return true, logic.Term{}
}

// app returns the ancestry record of the application that invented the
// term, or -1 when the term is not a null.
func (m *mfaChase) app(t logic.TermID) int32 {
	if int(t) < len(m.appOf) {
		return m.appOf[t]
	}
	return -1
}
