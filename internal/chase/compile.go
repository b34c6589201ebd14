package chase

import (
	"sort"

	"airct/internal/logic"
	"airct/internal/tgds"
)

// compiledTGD is the engine's slot-compiled form of one TGD. Variables map
// to dense slots — sorted body variables first (slots 0..nBody-1), then
// sorted existential head variables — so a trigger is identified by the
// TermID tuple bound to the body slots, the frontier class by the subset at
// frontierSlots, and result atoms are built straight from slot references.
// Nothing on these paths renders a string.
type compiledTGD struct {
	nBody     int
	bodyVars  []logic.Term // sorted; slot i holds bodyVars[i]
	existVars []logic.Term // sorted; slot nBody+k holds existVars[k]

	body *logic.CPattern // all body atoms
	head *logic.CPattern // head atoms: activity pattern and result template

	// frontierSlots are the body slots of frontier variables, ascending
	// (equivalently: frontier variables in sorted order).
	frontierSlots []int32
}

// compileSet compiles every TGD of the set against the interner (the
// engine's instance interner, so pattern PredIDs and the instance's posting
// lists agree).
func compileSet(set *tgds.Set, in *logic.Interner) []compiledTGD {
	out := make([]compiledTGD, len(set.TGDs))
	for i, t := range set.TGDs {
		out[i] = compileTGD(t, in)
	}
	return out
}

// compiledEGD is the engine's slot-compiled form of one EGD: the body
// pattern plus the two body slots whose bound terms the equality step
// unifies. EGD triggers share the TGD trigger machinery — their identity
// tuples carry rule index len(TGDs)+egdIndex in position 0, so one
// TupleTable dedups both kinds.
type compiledEGD struct {
	nBody    int
	bodyVars []logic.Term // sorted; slot i holds bodyVars[i]

	body *logic.CPattern

	xSlot, ySlot int32 // body slots of the equated variables
}

// compileEGDs compiles every EGD of the set against the interner.
func compileEGDs(set *tgds.Set, in *logic.Interner) []compiledEGD {
	out := make([]compiledEGD, len(set.EGDs))
	for j, e := range set.EGDs {
		ce := compiledEGD{bodyVars: e.BodyVars().Sorted()}
		ce.nBody = len(ce.bodyVars)
		slots := make(map[logic.Term]int32, ce.nBody)
		for i, v := range ce.bodyVars {
			slots[v] = int32(i)
		}
		ce.body = logic.CompilePattern(e.Body, ce.nBody, func(t logic.Term) int32 { return slots[t] }, in)
		ce.xSlot = slots[e.X]
		ce.ySlot = slots[e.Y]
		out[j] = ce
	}
	return out
}

func compileTGD(t tgds.TGD, in *logic.Interner) compiledTGD {
	ct := compiledTGD{
		bodyVars:  t.BodyVars().Sorted(),
		existVars: t.ExistentialVars().Sorted(),
	}
	ct.nBody = len(ct.bodyVars)
	slots := make(map[logic.Term]int32, ct.nBody+len(ct.existVars))
	for i, v := range ct.bodyVars {
		slots[v] = int32(i)
	}
	for k, v := range ct.existVars {
		slots[v] = int32(ct.nBody + k)
	}
	slotOf := func(t logic.Term) int32 { return slots[t] }
	total := ct.nBody + len(ct.existVars)
	ct.body = logic.CompilePattern(t.Body, total, slotOf, in)
	ct.head = logic.CompilePattern(t.Head, total, slotOf, in)
	frontier := t.Frontier()
	for i, v := range ct.bodyVars {
		if frontier.Has(v) {
			ct.frontierSlots = append(ct.frontierSlots, int32(i))
		}
	}
	return ct
}

// discSorter sorts a flat buffer of discovered trigger tuples (offsets in
// *idx, tuples of length stride in *disc) by the canonical trigger order:
// componentwise Term.Compare of the bound terms in slot order. This
// reproduces logic.SortSubstitutions over the interned representation —
// comparisons resolve terms through the interner, but no key strings are
// built. It points at its owner's live buffers (engine or searcher) so
// sorting allocates nothing.
type discSorter struct {
	itab   *logic.Interner
	disc   *[]uint32
	idx    *[]int32
	stride int32
}

func (d *discSorter) Len() int { return len(*d.idx) }

func (d *discSorter) Swap(i, j int) {
	s := *d.idx
	s[i], s[j] = s[j], s[i]
}

func (d *discSorter) Less(i, j int) bool {
	s, buf := *d.idx, *d.disc
	a := buf[s[i] : s[i]+d.stride]
	b := buf[s[j] : s[j]+d.stride]
	// a[0] and b[0] hold the TGD index and are equal within one sort.
	for k := 1; k < int(d.stride); k++ {
		if c := d.itab.CompareTermIDs(logic.TermID(a[k]), logic.TermID(b[k])); c != 0 {
			return c < 0
		}
	}
	return false
}

var _ sort.Interface = (*discSorter)(nil)

// SortTriggerTuples sorts offs — offsets into buf of trigger tuples
// [rule, body TermIDs...] of one rule, stride words each — into the
// canonical trigger order: the order AllTriggers lists one TGD's triggers
// in. It lets kernels outside the engine enumerate triggers on the
// interned core and still apply them in the engine's order.
func SortTriggerTuples(itab *logic.Interner, buf []uint32, offs []int32, stride int) {
	if len(offs) < 2 {
		return
	}
	ds := discSorter{itab: itab, disc: &buf, idx: &offs, stride: int32(stride)}
	sort.Sort(&ds)
}
