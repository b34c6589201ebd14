package logic

// This file provides the 128-bit fingerprint layer: strong content hashes
// for terms, predicates and atoms, and an order-independent combine for
// whole instances. A fingerprint identifies a *set* of ground atoms: the
// per-atom hashes are combined with 128-bit addition, which is commutative
// and associative, so the fingerprint of an instance does not depend on the
// order its atoms were inserted. The ∀∃ derivation search merges each
// successor's new atoms into its parent's fingerprint and memoises visited
// chase states by it instead of rendering sorted key strings
// (internal/chase/search.go).
//
// Hash identity is content-based: a term hashes by (kind, name), so equal
// instances built through different interners agree. The search names each
// invented null once per trigger, so equal states carry equal null names.
//
// Collisions: fingerprints are 128 bits built from independently seeded,
// splitmix-finalised halves; callers treat fingerprint equality as state
// equality. At the search's scale (≤ millions of states) the collision
// probability is ~n²/2¹²⁸ and is accepted by design, like any hash-consed
// identity.

import (
	"fmt"
	"math/bits"
)

// Fingerprint is a 128-bit hash value. The zero value is the fingerprint of
// the empty instance. Fingerprint is comparable and is used as a map key.
type Fingerprint struct {
	Hi, Lo uint64
}

// String renders the fingerprint as 32 hex digits; debug output only.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x%016x", f.Hi, f.Lo) }

// Merge combines two fingerprints commutatively (128-bit addition): the
// fingerprint of a disjoint union of atom sets is the Merge of their
// fingerprints. Merging the same atom hash twice is NOT idempotent —
// callers must combine each distinct atom exactly once.
func (f Fingerprint) Merge(g Fingerprint) Fingerprint {
	lo, carry := bits.Add64(f.Lo, g.Lo, 0)
	hi, _ := bits.Add64(f.Hi, g.Hi, carry)
	return Fingerprint{Hi: hi, Lo: lo}
}

// Mix combines two fingerprints order-sensitively: f.Mix(g) != g.Mix(f) in
// general. It is the tuple-hashing step behind atom and rule hashes.
func (f Fingerprint) Mix(g Fingerprint) Fingerprint {
	return Fingerprint{
		Hi: mix64(f.Hi ^ (g.Hi + 0x9e3779b97f4a7c15)),
		Lo: mix64(f.Lo ^ (g.Lo + 0xc2b2ae3d27d4eb4f)),
	}
}

// MixUint64 mixes a raw 64-bit value into the fingerprint, order-sensitively.
func (f Fingerprint) MixUint64(x uint64) Fingerprint {
	return Fingerprint{
		Hi: mix64(f.Hi ^ (x + 0x9e3779b97f4a7c15)),
		Lo: mix64(f.Lo ^ (x*0xff51afd7ed558ccd + 0xc2b2ae3d27d4eb4f)),
	}
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnv64 hashes a kind byte plus a string with FNV-1a from the given seed.
func fnv64(seed uint64, kind byte, s string) uint64 {
	h := seed
	h ^= uint64(kind)
	h *= 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// HashTerm returns the content hash of a term: a function of its kind and
// name only. Interners cache this per TermID.
func HashTerm(t Term) Fingerprint {
	return Fingerprint{
		Hi: mix64(fnv64(1469598103934665603, byte(t.Kind), t.Name)),
		Lo: mix64(fnv64(0x27d4eb2f165667c5, byte(t.Kind)+0x40, t.Name)),
	}
}

// HashPred returns the content hash of a predicate: name and arity.
func HashPred(p Predicate) Fingerprint {
	return Fingerprint{
		Hi: mix64(fnv64(1469598103934665603, byte(p.Arity), p.Name)),
		Lo: mix64(fnv64(0x27d4eb2f165667c5, byte(p.Arity)+0x80, p.Name)),
	}
}

// HashAtom returns the content hash of an atom: the predicate hash mixed
// with each argument's term hash in order. For ground atoms it agrees with
// Interner.HashAtomIDs.
func HashAtom(a Atom) Fingerprint {
	h := HashPred(a.Pred)
	for _, t := range a.Args {
		h = h.Mix(HashTerm(t))
	}
	return h
}

// FingerprintAtoms returns the order-independent fingerprint of a *set* of
// atoms given as a duplicate-free slice, using content hashes throughout.
// It equals the Merge of Interner.HashAtomIDs over the same atoms' tuples.
// Callers must deduplicate: Merge is not idempotent.
func FingerprintAtoms(atoms []Atom) Fingerprint {
	var f Fingerprint
	for _, a := range atoms {
		f = f.Merge(HashAtom(a))
	}
	return f
}

// ruleSeed starts every rule fingerprint; distinct from the atom-hash
// domain by construction.
var ruleSeed = Fingerprint{Hi: 0x8f14e45fceea1671, Lo: 0x9b05688c2b3e6c1f}

// FingerprintRule returns an order-sensitive fingerprint of one rule
// (body → head) together with its label — the letter a TGD contributes to a
// set-level fingerprint (tgds.Set.Fingerprint). Atom order, variable names
// and the label all participate: two rules fingerprint equal exactly when
// they behave identically in a chase AND render identically in evidence and
// witness strings, which is the identity cross-run caches
// (internal/chase.Cache) key verdicts on. Mixing (not merging) is
// deliberate: a rule is a sequence, not a set.
func FingerprintRule(label string, body, head []Atom) Fingerprint {
	h := ruleSeed.Mix(Fingerprint{
		Hi: mix64(fnv64(1469598103934665603, 'L', label)),
		Lo: mix64(fnv64(0x27d4eb2f165667c5, 'L', label)),
	})
	h = h.MixUint64(uint64(len(body)))
	for _, a := range body {
		h = h.Mix(HashAtom(a))
	}
	h = h.MixUint64(uint64(len(head)))
	for _, a := range head {
		h = h.Mix(HashAtom(a))
	}
	return h
}
