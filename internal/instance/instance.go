// Package instance implements instances (possibly infinite in the paper,
// finite here) and databases over a schema, with the indexes the chase and
// the homomorphism search need: by predicate and by (predicate, position,
// term). An Instance is a *set* of ground atoms — duplicates are silently
// merged — matching Section 2 of the paper; multiset structures live in
// ochase.
//
// Identity is interned: each instance owns a logic.Interner mapping terms
// and predicates to dense IDs, and membership is a (PredID, TermID...)
// tuple-table probe — no string keys are built on the Add/Has/Equal paths.
// An instance keeps only this ID plane; the atom-form read API (Atoms,
// AtomAt, AtomsByPredicate) materialises atoms from the identity tuples on
// each call. Atom.Key() remains available as the debug/test rendering.
//
// Concurrency contract: an Instance has a single writer. Readers may run
// concurrently with each other, but not with Add. Engines own their
// instance (RunChase chases a clone, never the caller's database).
package instance

import (
	"fmt"
	"strings"

	"airct/internal/logic"
)

// Instance is a finite set of ground atoms (constants and nulls only),
// indexed for fast trigger and homomorphism search. The zero value is not
// usable; call New.
type Instance struct {
	tab   *logic.Interner   // term/pred IDs; owned or shared (NewWithInterner)
	atoms *logic.TupleTable // (PredID, TermID...) identity; TupleID = insertion index

	byPred [][]int32 // insertion indices per predicate, indexed by PredID
	pt     ptTable   // (pred, pos, term) posting lists
	// atomLists holds each atom's (pred, pos, term) list IDs, one per
	// argument, atom after atom in insertion order, so Truncate finds the
	// lists a dropped atom is on without hashing its keys.
	atomLists []int32

	tupbuf []uint32 // scratch for tuple probes; single-writer
}

// MaxArity is the largest predicate arity an instance can hold: ptPack
// keeps a 1-based argument position in 10 bits. A wider atom's posting key
// would spill into the predicate bits and land in another predicate's
// posting list, so insertion refuses one and the parser rejects it first.
const MaxArity = 1023

// ptPack packs a (PredID, 1-based position, TermID) triple into one table
// key: 22 bits of predicate, 10 of position (at most MaxArity), 32 of term.
func ptPack(p logic.PredID, pos int, t logic.TermID) uint64 {
	return uint64(p)<<42 | uint64(pos)<<32 | uint64(t)
}

// ptTable holds the (predicate, position, term) posting lists by list ID,
// and finds a packed key's list by open addressing: a slot holds 1 + a
// list ID (0 is empty), and keys[id] is list id's key. Probing is linear
// from the top bits of the key times 2^64/φ, so one find-or-insert costs
// one probe sequence, and the table doubles past half full.
type ptTable struct {
	slots []int32
	shift uint // 64 - log2(len(slots))
	keys  []uint64
	lists [][]int32
}

func newPTTable(keysHint int) ptTable {
	size, shift := 16, uint(60)
	for size < 2*keysHint {
		size, shift = 2*size, shift-1
	}
	return ptTable{slots: make([]int32, size), shift: shift}
}

// slot returns the slot holding k's list, or the empty slot where add
// would put it, and whether k has a list.
func (t *ptTable) slot(k uint64) (int, bool) {
	mask := len(t.slots) - 1
	for i := int((k * 0x9e3779b97f4a7c15) >> t.shift); ; i = (i + 1) & mask {
		switch v := t.slots[i]; {
		case v == 0:
			return i, false
		case t.keys[v-1] == k:
			return i, true
		}
	}
}

// find returns k's posting list, or nil when k has none.
func (t *ptTable) find(k uint64) []int32 {
	if i, ok := t.slot(k); ok {
		return t.lists[t.slots[i]-1]
	}
	return nil
}

// add returns the ID of k's posting list, opening an empty one if k has
// none. A list opened after a clear reuses the array its ID had before.
func (t *ptTable) add(k uint64) int32 {
	i, ok := t.slot(k)
	if ok {
		return t.slots[i] - 1
	}
	id := int32(len(t.keys))
	t.keys = append(t.keys, k)
	t.lists = reopen(t.lists)
	t.slots[i] = id + 1
	if 2*len(t.keys) > len(t.slots) {
		t.slots = make([]int32, 2*len(t.slots))
		t.shift--
		for id, k := range t.keys {
			i, _ := t.slot(k)
			t.slots[i] = int32(id) + 1
		}
	}
	return id
}

// clear drops every key and list, keeping the capacity of the slots, of
// the key store and of every list's array, which add hands out again.
func (t *ptTable) clear() {
	clear(t.slots)
	t.keys, t.lists = t.keys[:0], t.lists[:0]
}

// reopen appends an empty list to lists. Past the length, it reuses the
// array a list had there before lists was cut back.
func reopen(lists [][]int32) [][]int32 {
	if n := len(lists); n < cap(lists) {
		lists = lists[:n+1]
		lists[n] = lists[n][:0]
		return lists
	}
	return append(lists, nil)
}

// cut drops the postings >= lo from an ascending posting list.
func cut(lst []int32, lo int32) []int32 {
	if len(lst) > 0 && lst[len(lst)-1] >= lo {
		return lst[:logic.LowerBound(lst, lo)]
	}
	return lst
}

// New returns an empty instance.
func New() *Instance {
	return NewWithInterner(logic.NewInterner())
}

// NewWithInterner returns an empty instance whose identity tables are the
// given interner, shared with the caller. Sharing one interner across many
// instances makes their TermIDs directly comparable — the ∀∃ search keys
// every explored chase state on one interner so triggers, nulls and
// fingerprint caches agree across states. The single-writer contract covers
// the interner and every instance sharing it together: one writer at a
// time across the whole group.
func NewWithInterner(tab *logic.Interner) *Instance {
	return NewWithInternerHint(tab, 16)
}

// NewWithInternerHint is NewWithInterner with a capacity hint: the identity
// table and indexes are presized for about atomsHint atoms, which removes
// the rehash-while-growing cost when the final size is known.
func NewWithInternerHint(tab *logic.Interner, atomsHint int) *Instance {
	if atomsHint < 16 {
		atomsHint = 16
	}
	return &Instance{
		tab:   tab,
		atoms: logic.NewTupleTable(atomsHint),
		pt:    newPTTable(2 * atomsHint),
	}
}

// FromAtoms returns an instance containing the given atoms (duplicates are
// merged). It panics if any atom contains a variable.
func FromAtoms(atoms ...logic.Atom) *Instance {
	inst := New()
	for _, a := range atoms {
		inst.Add(a)
	}
	return inst
}

// Interner exposes the instance's identity tables. The engine shares it to
// translate between terms and IDs; the single-writer contract extends to
// it (interning through it counts as writing).
func (in *Instance) Interner() *logic.Interner { return in.tab }

// Reset empties the instance while keeping its interner and the allocated
// capacity of every index: it is Truncate(0). The engine arena resets its
// instance this way before every run.
func (in *Instance) Reset() { in.Truncate(0) }

// Truncate drops every atom with insertion index >= n, keeping the
// interner and the allocated capacity of every index, and leaves exactly
// the instance its first n atoms make: the same identity table and the
// same posting lists. The ∀∃ search moves one scratch
// instance along its search tree this way, rewinding to a common ancestor
// and replaying only the deltas below it.
//
// Dropped atoms are visited newest first, each reading its list IDs off
// the tail of atomLists. Posting lists ascend, so a dropped atom's
// postings are the tail of each list it is on; the first visit to a list
// cuts every posting >= n at once. Keys stay, with their lists cut. Slices
// and insertion indices previously returned for dropped atoms become
// invalid.
func (in *Instance) Truncate(n int) {
	if n >= in.Len() {
		return
	}
	lo := int32(n)
	end := len(in.atomLists)
	for i := int32(in.Len() - 1); i >= lo; i-- {
		tup := in.atoms.Tuple(i)
		in.byPred[tup[0]] = cut(in.byPred[tup[0]], lo)
		start := end - (len(tup) - 1)
		for _, l := range in.atomLists[start:end] {
			in.pt.lists[l] = cut(in.pt.lists[l], lo)
		}
		end = start
	}
	in.atomLists = in.atomLists[:end]
	in.atoms.Truncate(n)
}

// Clear empties the instance and drops every index key and posting list,
// keeping the capacity of the key table and of every list, so refilling
// the instance reuses the lists' arrays instead of growing new ones. It goes with resetting the instance's interner: the keys hold IDs
// the reset invalidated, and kept, they would pile up across every
// vocabulary the instance served. Clearing the whole table costs its
// capacity, which beats cutting lists one by one unless the instance holds
// a small share of what it once held. With the keys dropped there are no
// posting lists left to cut, so only the identity table is truncated.
func (in *Instance) Clear() {
	in.byPred = in.byPred[:0]
	in.pt.clear()
	in.atomLists = in.atomLists[:0]
	in.atoms.Truncate(0)
}

// Add inserts the atom and reports whether it was new. It panics if the
// atom contains a variable: instances hold ground atoms only, and inserting
// a non-ground atom is a programming error.
func (in *Instance) Add(a logic.Atom) bool {
	if !a.IsGround() {
		panic(fmt.Sprintf("instance: non-ground atom %v", a))
	}
	pid := in.tab.InternPred(a.Pred)
	in.tupbuf = in.tupbuf[:0]
	in.tupbuf = append(in.tupbuf, uint32(pid))
	for _, t := range a.Args {
		in.tupbuf = append(in.tupbuf, uint32(in.tab.InternTerm(t)))
	}
	_, isNew := in.insert(pid, in.tupbuf)
	return isNew
}

// AddTuple inserts the atom with the given interned identity. It returns
// the atom's insertion index and whether it was new. This is the engine's
// allocation-free membership path.
func (in *Instance) AddTuple(pid logic.PredID, args []logic.TermID) (int32, bool) {
	in.tupbuf = in.tupbuf[:0]
	in.tupbuf = append(in.tupbuf, uint32(pid))
	for _, t := range args {
		in.tupbuf = append(in.tupbuf, uint32(t))
	}
	return in.insert(pid, in.tupbuf)
}

// insert stores the prepared identity tuple (pid, args...). It panics on an
// atom wider than MaxArity, whose postings ptPack cannot key.
func (in *Instance) insert(pid logic.PredID, tuple []uint32) (int32, bool) {
	if len(tuple)-1 > MaxArity {
		panic(fmt.Sprintf("instance: %s has arity %d, above MaxArity %d", in.tab.Pred(pid).Name, len(tuple)-1, MaxArity))
	}
	idx, isNew := in.atoms.Intern(tuple)
	if !isNew {
		return idx, false
	}
	for int(pid) >= len(in.byPred) {
		in.byPred = reopen(in.byPred)
	}
	in.byPred[pid] = append(in.byPred[pid], idx)
	for i, t := range tuple[1:] {
		l := in.pt.add(ptPack(pid, i+1, logic.TermID(t)))
		in.pt.lists[l] = append(in.pt.lists[l], idx)
		in.atomLists = append(in.atomLists, l)
	}
	return idx, true
}

// RewriteTerms maps every argument of every atom through ρ and rebuilds the
// instance in place — the chase engine's equality step (EGD application):
// after unifying terms in a union-find, ρ sends each merged TermID to its
// class representative. Atoms are re-inserted in their previous insertion
// order; atoms that become identical under ρ merge silently (the returned
// count is how many were removed that way). The interner is untouched —
// merged-away TermIDs remain valid interner entries, they simply no longer
// occur in the instance.
//
// A rewrite both merges duplicate atoms and moves survivors to new
// identity tuples, so rather than patching the indexes atom by atom, they
// are rebuilt from the merged atom set by re-running every insert: the
// result is exactly the instance a fresh insert of the rewritten atom set
// would build.
//
// All previously returned slices and insertion indices are invalidated,
// exactly like Reset.
func (in *Instance) RewriteTerms(ρ func(logic.TermID) logic.TermID) int {
	n := in.Len()
	if n == 0 {
		return 0
	}
	// Snapshot the identity tuples first: Reset invalidates the tuple table.
	flat := make([]uint32, 0, n*3)
	offs := make([]int32, n+1)
	for i := 0; i < n; i++ {
		tup := in.atoms.Tuple(int32(i))
		offs[i] = int32(len(flat))
		flat = append(flat, tup[0])
		for _, t := range tup[1:] {
			flat = append(flat, uint32(ρ(logic.TermID(t))))
		}
	}
	offs[n] = int32(len(flat))
	in.Reset()
	for i := 0; i < n; i++ {
		tup := flat[offs[i]:offs[i+1]]
		in.tupbuf = append(in.tupbuf[:0], tup...)
		in.insert(logic.PredID(tup[0]), in.tupbuf)
	}
	return n - in.Len()
}

// AddAll inserts every atom and returns the number that were new.
func (in *Instance) AddAll(atoms []logic.Atom) int {
	n := 0
	for _, a := range atoms {
		if in.Add(a) {
			n++
		}
	}
	return n
}

// lookupTuple builds the identity tuple for a into buf without interning;
// ok is false when some term or the predicate was never seen (so a is
// absent). The read paths pass stack-local buffers so concurrent readers
// never share scratch (in.tupbuf belongs to the writer).
func (in *Instance) lookupTuple(a logic.Atom, buf []uint32) ([]uint32, bool) {
	pid, ok := in.tab.LookupPred(a.Pred)
	if !ok {
		return nil, false
	}
	buf = append(buf, uint32(pid))
	for _, t := range a.Args {
		id, ok := in.tab.LookupTerm(t)
		if !ok {
			return nil, false
		}
		buf = append(buf, uint32(id))
	}
	return buf, true
}

// Has reports whether the atom is present. No strings, no interning: a
// probe against the identity tables. Safe for concurrent readers.
func (in *Instance) Has(a logic.Atom) bool {
	var arr [12]uint32
	tup, ok := in.lookupTuple(a, arr[:0])
	if !ok {
		return false
	}
	_, ok = in.atoms.Lookup(tup)
	return ok
}

// HasTuple reports membership of an already-interned atom identity. Safe
// for concurrent readers.
func (in *Instance) HasTuple(pid logic.PredID, args []logic.TermID) bool {
	_, ok := in.TupleIndex(pid, args)
	return ok
}

// TupleIndex returns the insertion index of the atom with the given
// interned identity, if present. Safe for concurrent readers.
func (in *Instance) TupleIndex(pid logic.PredID, args []logic.TermID) (int32, bool) {
	var arr [12]uint32
	tup := append(arr[:0], uint32(pid))
	for _, t := range args {
		tup = append(tup, uint32(t))
	}
	return in.atoms.Lookup(tup)
}

// Len returns the number of (distinct) atoms.
func (in *Instance) Len() int { return in.atoms.Len() }

// Atoms returns the atoms in insertion order, materialised afresh.
func (in *Instance) Atoms() []logic.Atom {
	out := make([]logic.Atom, in.Len())
	for i := range out {
		out[i] = in.AtomAt(i)
	}
	return out
}

// AtomAt returns the i-th inserted atom (0-based), materialised afresh
// from its identity tuple.
func (in *Instance) AtomAt(i int) logic.Atom {
	tup := in.atoms.Tuple(int32(i))
	terms := make([]logic.Term, len(tup)-1)
	for k, t := range tup[1:] {
		terms[k] = in.tab.Term(logic.TermID(t))
	}
	return logic.Atom{Pred: in.tab.Pred(logic.PredID(tup[0])), Args: terms}
}

// AtomsByPredicate implements logic.AtomSource: the atoms with predicate
// p in insertion order, materialised afresh.
func (in *Instance) AtomsByPredicate(p logic.Predicate) []logic.Atom {
	pid, ok := in.tab.LookupPred(p)
	if !ok {
		return nil
	}
	ids := in.IdxByPred(pid)
	if len(ids) == 0 {
		return nil
	}
	out := make([]logic.Atom, len(ids))
	for i, idx := range ids {
		out[i] = in.AtomAt(int(idx))
	}
	return out
}

// AtomIndexesByPredicateTerm implements logic.IndexedSource: insertion
// indices of atoms with predicate p whose (1-based) pos-th argument is t.
func (in *Instance) AtomIndexesByPredicateTerm(p logic.Predicate, pos int, t logic.Term) []int32 {
	pid, ok := in.tab.LookupPred(p)
	if !ok {
		return nil
	}
	tid, ok := in.tab.LookupTerm(t)
	if !ok {
		return nil
	}
	return in.pt.find(ptPack(pid, pos, tid))
}

// AtomByIndex implements logic.IndexedSource.
func (in *Instance) AtomByIndex(i int32) logic.Atom { return in.AtomAt(int(i)) }

// AtomArgIDs implements logic.IDSource: the raw interned argument tuple
// (each element is a logic.TermID value) of the atom at insertion index i.
func (in *Instance) AtomArgIDs(i int32) []uint32 {
	return in.atoms.Tuple(i)[1:]
}

// AtomPredID returns the interned predicate of the atom at insertion index i.
func (in *Instance) AtomPredID(i int32) logic.PredID {
	return logic.PredID(in.atoms.Tuple(i)[0])
}

// IdxByPred implements logic.IDSource.
func (in *Instance) IdxByPred(p logic.PredID) []int32 {
	if int(p) < len(in.byPred) {
		return in.byPred[p]
	}
	return nil
}

// IdxByPredTerm implements logic.IDSource.
func (in *Instance) IdxByPredTerm(p logic.PredID, pos int, t logic.TermID) []int32 {
	return in.pt.find(ptPack(p, pos, t))
}

// IdxByPredSince implements logic.DeltaSource: the insertion indices >= lo
// of atoms with predicate p. Posting lists are ascending (insertion order),
// so this is a binary-searched suffix view — no copy. It is how the
// delta-maintained trigger index reads the atoms a copy-on-write search
// state added on top of its parent: the delta of a state materialised
// parent-first is exactly the insertion-index range [parentLen, Len()).
func (in *Instance) IdxByPredSince(p logic.PredID, lo int32) []int32 {
	list := in.IdxByPred(p)
	return list[logic.LowerBound(list, lo):]
}

var _ logic.DeltaSource = (*Instance)(nil)

// Dom returns the active domain dom(I): every term occurring in the
// instance.
func (in *Instance) Dom() logic.TermSet {
	s := make(logic.TermSet)
	for i := 0; i < in.Len(); i++ {
		for _, t := range in.atoms.Tuple(int32(i))[1:] {
			s[in.tab.Term(logic.TermID(t))] = struct{}{}
		}
	}
	return s
}

// Clone returns a copy on a fresh interner. Atom insertion indices (and
// hence tuple IDs) match the original; TermIDs need not — the clone interns
// terms in atom-argument appearance order, while the original's writer may
// have interned them in another order (the engine interns nulls before the
// atoms that carry them). Never compare TermIDs across instances.
func (in *Instance) Clone() *Instance {
	out := New()
	for i := 0; i < in.Len(); i++ {
		out.Add(in.AtomAt(i))
	}
	return out
}

// Equal reports set equality of the two instances.
func (in *Instance) Equal(other *Instance) bool {
	if in.Len() != other.Len() {
		return false
	}
	return other.ContainsAll(in)
}

// ContainsAll reports whether every atom of other is present in in.
func (in *Instance) ContainsAll(other *Instance) bool {
	for i := 0; i < other.Len(); i++ {
		if !in.Has(other.AtomAt(i)) {
			return false
		}
	}
	return true
}

// NullCount returns the number of distinct nulls in the active domain.
func (in *Instance) NullCount() int {
	n := 0
	for t := range in.Dom() {
		if t.IsNull() {
			n++
		}
	}
	return n
}

// String renders the atoms sorted, one conjunction.
func (in *Instance) String() string {
	atoms := in.Atoms()
	logic.SortAtoms(atoms)
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Database is a finite set of facts: atoms whose arguments are constants
// only (no nulls, no variables). It keeps the facts' atom forms beside its
// instance, because every chase run and every search key reads them.
type Database struct {
	inst  *Instance
	facts []logic.Atom // insertion order, no duplicates
}

// NewDatabase returns an empty database.
func NewDatabase() *Database { return &Database{inst: New()} }

// DatabaseFromAtoms builds a database from facts, returning an error if any
// atom is not a fact.
func DatabaseFromAtoms(atoms ...logic.Atom) (*Database, error) {
	db := NewDatabase()
	for _, a := range atoms {
		if err := db.Add(a); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// MustDatabase is DatabaseFromAtoms that panics on error; for tests and
// examples with literal data.
func MustDatabase(atoms ...logic.Atom) *Database {
	db, err := DatabaseFromAtoms(atoms...)
	if err != nil {
		panic(err)
	}
	return db
}

// Add inserts a fact, rejecting atoms that contain nulls or variables.
func (db *Database) Add(a logic.Atom) error {
	if !a.IsFact() {
		return fmt.Errorf("instance: %v is not a fact (databases hold constants only)", a)
	}
	if db.inst.Add(a) {
		db.facts = append(db.facts, a)
	}
	return nil
}

// Instance returns a fresh Instance holding the database's facts; the chase
// mutates the copy, never the database.
func (db *Database) Instance() *Instance { return FromAtoms(db.facts...) }

// Atoms returns the facts in insertion order. The returned slice is a copy.
func (db *Database) Atoms() []logic.Atom {
	out := make([]logic.Atom, len(db.facts))
	copy(out, db.facts)
	return out
}

// Len returns the number of facts.
func (db *Database) Len() int { return db.inst.Len() }

// String renders the facts.
func (db *Database) String() string { return db.inst.String() }
