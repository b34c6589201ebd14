package acyclicity

import (
	"slices"
	"sync"

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
//
// The run's interner, instance, frontier table and scratch come from a
// pool and go back to it unless the instance outgrew maxPooledMFAAtoms.
func CheckMFA(set *tgds.Set, maxSteps int) MFAResult {
	if maxSteps <= 0 {
		maxSteps = 100_000
	}
	m := mfaStates.Get().(*mfaChase)
	m.load(set)
	res := m.run(maxSteps)
	releaseMFA(m)
	return res
}

// mfaTGD is one TGD compiled for the MFA chase from the set's compiled
// form: its sorted body variables in slots 0..nBody-1, its sorted
// existential variables after them.
type mfaTGD struct {
	nBody, nExist int
	body, head    logic.CPattern
	frontier      []int32 // body slots of the frontier variables, ascending
	// witness is the slot of the first existential variable in head
	// order: the null the cycle test reports.
	witness int32
}

// mfaChase is the state of one CheckMFA run on the interned core. Its
// memory is reused across runs through mfaStates; load resets it for a set.
type mfaChase struct {
	tab   *logic.Interner
	inst  *instance.Instance
	rules []mfaTGD
	front *logic.TupleTable // frontier classes [tgd, frontier TermIDs...]
	namer logic.FreshNamer

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

	ss     logic.SlotSearch
	disc   []uint32 // collected trigger tuples [tgd, body TermIDs...]
	offs   []int32  // tuple offsets into disc, each TGD's run sorted canonically
	tup    []uint32
	bind   []logic.TermID // the applied trigger's slots, nulls included
	args   []logic.TermID
	atoms  []logic.CAtom // the rules' patterns' atoms, in one slab
	cterms []logic.CTerm // their arguments, in one slab
	fronts []int32       // the rules' frontier slots, in one slab
}

// mfaStates pools the memory of finished CheckMFA runs. sync.Pool hands
// each state to one caller at a time, so every interner keeps one writer.
var mfaStates = sync.Pool{New: func() any {
	tab := logic.NewInterner()
	return &mfaChase{
		tab:   tab,
		inst:  instance.NewWithInternerHint(tab, 64),
		front: logic.NewTupleTable(64),
	}
}}

// maxPooledMFAAtoms bounds the instance a run may have built and its state
// still go back to the pool. The state keeps the capacity of its largest
// run, so without the bound one large critical-instance chase would pin
// that memory in the pool. On the first-contact workload's portfolio
// catalog (the corpus and the seven families at n = 2..12) the 41 runs the
// portfolio makes end at 4 to 289 atoms, so every one is pooled. Each step
// that invents a null adds an atom, so a run that spends the portfolio's
// 20,000-step budget on such steps ends far past the bound and is not
// pooled: the sticky cycle at n = 2,000 ends at 22,001 atoms and
// ExistentialChain(4000) at 24,001.
const maxPooledMFAAtoms = 8192

// releaseMFA returns m to the pool unless its instance outgrew
// maxPooledMFAAtoms, and reports whether it did.
func releaseMFA(m *mfaChase) bool {
	if m.inst.Len() > maxPooledMFAAtoms {
		return false
	}
	mfaStates.Put(m)
	return true
}

// load resets the state for the set: it empties the interner, the
// instance, the frontier table and the ancestry, adds the critical
// instance and compiles the rules from the set's compiled form. The
// interner takes the form's predicates first, so a form predicate ID is
// its PredID.
func (m *mfaChase) load(set *tgds.Set) {
	c := set.Compiled()
	m.tab.Reset()
	m.inst.Clear()
	m.front.Reset()
	m.namer = *logic.NewFreshNamer("n")
	m.appOf, m.anc = m.appOf[:0], m.anc[:0]
	m.words = (len(c.Rules) + 63) / 64
	m.scr = slices.Grow(m.scr[:0], m.words)[:m.words]
	crit := m.tab.InternTerm(critical.TheConstant)
	for _, p := range c.Preds {
		m.tab.InternPred(p)
	}
	for pid, p := range c.Preds {
		m.args = m.args[:0]
		for range p.Arity {
			m.args = append(m.args, crit)
		}
		m.inst.AddTuple(logic.PredID(pid), m.args)
	}
	nAtoms, nArgs, nFront := 0, 0, 0
	for _, r := range c.Rules {
		nAtoms += len(r.Body) + len(r.Head)
		for _, a := range r.Body {
			nArgs += len(a.Slots)
		}
		for _, a := range r.Head {
			nArgs += len(a.Slots)
		}
		nFront += int(r.NBody)
	}
	// Sized up front, so the rules' slices into the slabs stay valid.
	m.atoms = slices.Grow(m.atoms[:0], nAtoms)
	m.cterms = slices.Grow(m.cterms[:0], nArgs)
	m.fronts = slices.Grow(m.fronts[:0], nFront)
	m.rules = slices.Grow(m.rules[:0], len(c.Rules))
	for i := range c.Rules {
		m.rules = append(m.rules, m.compile(&c.Rules[i]))
	}
}

// compile builds the rule's MFA patterns. The compiled form's slots are
// already in the name order the canonical trigger order relies on.
func (m *mfaChase) compile(cr *tgds.Rule) mfaTGD {
	total := len(cr.Vars)
	r := mfaTGD{
		nBody:   int(cr.NBody),
		nExist:  total - int(cr.NBody),
		body:    logic.CPattern{Atoms: m.pattern(cr.Body), NSlots: total},
		head:    logic.CPattern{Atoms: m.pattern(cr.Head), NSlots: total},
		witness: -1,
	}
	from := len(m.fronts)
	for x, f := range cr.Frontier {
		if f {
			m.fronts = append(m.fronts, int32(x))
		}
	}
	r.frontier = m.fronts[from:len(m.fronts):len(m.fronts)]
	for _, a := range cr.Head {
		for _, x := range a.Slots {
			if r.witness < 0 && x >= cr.NBody {
				r.witness = x
			}
		}
	}
	return r
}

// pattern appends the atoms' compiled patterns to the slabs and returns
// them. TGDs are constant-free, so every argument is a slot.
func (m *mfaChase) pattern(as []tgds.SlotAtom) []logic.CAtom {
	from := len(m.atoms)
	for _, a := range as {
		start := len(m.cterms)
		for _, x := range a.Slots {
			m.cterms = append(m.cterms, logic.CTerm{Slot: x})
		}
		m.atoms = append(m.atoms, logic.CAtom{Pred: logic.PredID(a.Pred), Args: m.cterms[start:len(m.cterms):len(m.cterms)]})
	}
	return m.atoms[from:len(m.atoms):len(m.atoms)]
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
		m.ss.Reset(&r.body)
		if lo == 0 {
			m.ss.ForEach(&r.body, m.inst, yield)
		} else {
			m.ss.ForEachDelta(&r.body, m.inst, lo, yield)
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
