package logic

// This file provides the interned-ID identity layer: dense uint32 IDs for
// terms and predicates, handed out by an Interner, plus a TupleTable that
// interns variable-length uint32 tuples (used for ground-atom identity in
// instances and trigger identity in the chase engine).
//
// Identity throughout the hot paths of the library is ID-based: two terms
// are equal iff their TermIDs (under one Interner) are equal, and a ground
// atom or a trigger is identified by its (PredID, TermID...) tuple. The
// string Key() renderers on Atom, Substitution and Trigger remain the
// debug/test representation — they allocate and must not appear on steady-
// state engine paths.
//
// Ownership and concurrency contract: an Interner (and every structure
// holding IDs minted by it) has a single writer. Readers may run
// concurrently with each other but not with a writer. Engines and instances
// each own their interner; IDs are meaningless across owners.

// TermID is a dense identifier for a term interned in an Interner.
type TermID uint32

// PredID is a dense identifier for a predicate interned in an Interner.
type PredID uint32

// NoTermID is the sentinel for "unbound" in slot substitutions. It is never
// handed out by an Interner.
const NoTermID = TermID(0xFFFFFFFF)

// Interner maps terms and predicates to dense IDs and back. The zero value
// is not usable; call NewInterner.
type Interner struct {
	terms  []Term
	termID map[Term]TermID
	preds  []Predicate
	predID map[Predicate]PredID

	// Per-ID fingerprint caches: the content hash (HashTerm/HashPred) is
	// computed once at interning time, so instance fingerprints never hash
	// a name twice.
	termHash []Fingerprint
	predHash []Fingerprint
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{
		termID: make(map[Term]TermID),
		predID: make(map[Predicate]PredID),
	}
}

// Reset empties the interner and keeps the capacity of its tables: every
// ID it handed out becomes invalid, so whatever holds such IDs is reset
// with it. A chase arena resets its interner when it binds a new TGD set.
func (in *Interner) Reset() {
	in.terms = in.terms[:0]
	clear(in.termID)
	in.preds = in.preds[:0]
	clear(in.predID)
	in.termHash = in.termHash[:0]
	in.predHash = in.predHash[:0]
}

// InternTerm returns the ID for t, minting one if t is new.
func (in *Interner) InternTerm(t Term) TermID {
	if id, ok := in.termID[t]; ok {
		return id
	}
	id := TermID(len(in.terms))
	in.terms = append(in.terms, t)
	in.termHash = append(in.termHash, HashTerm(t))
	in.termID[t] = id
	return id
}

// HashAtomIDs returns the hash of the ground atom (pid, args...) from the
// cached per-term fingerprints; args holds TermID values in the arena's raw
// uint32 form. It agrees with HashAtom on the materialised atom.
func (in *Interner) HashAtomIDs(pid PredID, args []uint32) Fingerprint {
	h := in.predHash[pid]
	for _, a := range args {
		h = h.Mix(in.termHash[a])
	}
	return h
}

// LookupTerm returns the ID for t without interning; ok is false when t has
// never been interned.
func (in *Interner) LookupTerm(t Term) (TermID, bool) {
	id, ok := in.termID[t]
	return id, ok
}

// Term returns the term with the given ID.
func (in *Interner) Term(id TermID) Term { return in.terms[id] }

// NumTerms returns how many distinct terms have been interned.
func (in *Interner) NumTerms() int { return len(in.terms) }

// InternPred returns the ID for p, minting one if p is new.
func (in *Interner) InternPred(p Predicate) PredID {
	if id, ok := in.predID[p]; ok {
		return id
	}
	id := PredID(len(in.preds))
	in.preds = append(in.preds, p)
	in.predHash = append(in.predHash, HashPred(p))
	in.predID[p] = id
	return id
}

// LookupPred returns the ID for p without interning.
func (in *Interner) LookupPred(p Predicate) (PredID, bool) {
	id, ok := in.predID[p]
	return id, ok
}

// Pred returns the predicate with the given ID.
func (in *Interner) Pred(id PredID) Predicate { return in.preds[id] }

// NumPreds returns how many distinct predicates have been interned.
func (in *Interner) NumPreds() int { return len(in.preds) }

// CompareTermIDs orders two interned terms by Term.Compare. IDs are dense
// interning-order handles, so ID order is NOT term order; deterministic
// orderings resolve through this comparison (string comparison, but no
// construction).
func (in *Interner) CompareTermIDs(a, b TermID) int {
	if a == b {
		return 0
	}
	return in.terms[a].Compare(in.terms[b])
}
