package logic

// TupleID is a dense identifier for a tuple interned in a TupleTable, in
// interning order: the i-th distinct tuple gets ID i.
type TupleID = int32

// TupleTable interns variable-length uint32 tuples to dense IDs with an
// open-addressing hash table over a flat arena. It is the identity
// structure behind instance membership ((PredID, args...) tuples) and
// trigger dedup ((TGD index, bound TermIDs...) tuples): Intern is one probe
// with zero allocations in steady state, and its isNew result doubles as
// the "seen before?" answer, so no secondary set is needed.
//
// Single writer; concurrent readers allowed only without a writer.
type TupleTable struct {
	arena []uint32 // concatenated tuples
	off   []uint32 // off[i] is the start of tuple i; off[len] is the arena end
	tab   []int32  // open addressing; -1 = empty slot, else a TupleID
	mask  uint32
}

// NewTupleTable returns an empty table sized for about capHint tuples.
func NewTupleTable(capHint int) *TupleTable {
	size := uint32(16)
	for int(size)*3 < capHint*4 { // initial load factor headroom
		size *= 2
	}
	t := &TupleTable{
		off:  make([]uint32, 1, capHint+1),
		tab:  make([]int32, size),
		mask: size - 1,
	}
	for i := range t.tab {
		t.tab[i] = -1
	}
	return t
}

// Len returns the number of interned tuples.
func (t *TupleTable) Len() int { return len(t.off) - 1 }

// Reset empties the table while retaining its allocated capacity, so a
// caller can reuse one table as a scratch identity arena instead of
// allocating per use. Previously returned Tuple slices become invalid.
func (t *TupleTable) Reset() { t.Truncate(0) }

// Truncate drops every tuple with ID >= n, keeping the capacity: the table
// then holds exactly what interning its first n tuples into an empty table
// of the same size would, so Lookup misses the dropped tuples and
// re-interning them mints the same IDs. Slots are emptied newest first,
// which is exact without tombstones: under linear probing with no other
// deletions, a tuple's probe ran only over slots taken by older tuples, so
// no older tuple's probe ever ran past a younger tuple's slot (grow
// re-inserts in ID order, so this survives a rehash). Truncate(0) sweeps
// every slot instead. Previously returned Tuple slices of dropped tuples
// become invalid.
func (t *TupleTable) Truncate(n int) {
	if n >= t.Len() {
		return
	}
	if n == 0 {
		for i := range t.tab {
			t.tab[i] = -1
		}
	} else {
		for id := TupleID(t.Len() - 1); int(id) >= n; id-- {
			i := uint32(hashTuple(t.Tuple(id))) & t.mask
			for t.tab[i] != id {
				i = (i + 1) & t.mask
			}
			t.tab[i] = -1
		}
	}
	t.arena = t.arena[:t.off[n]]
	t.off = t.off[:n+1]
}

// Tuple returns the interned tuple with the given ID. The slice aliases the
// arena; callers must not mutate or retain it across Intern calls.
func (t *TupleTable) Tuple(id TupleID) []uint32 {
	return t.arena[t.off[id]:t.off[id+1]]
}

func hashTuple(tuple []uint32) uint64 {
	// FNV-1a over the 4-byte words: cheap, and good enough for dense,
	// low-entropy ID tuples.
	h := uint64(1469598103934665603)
	for _, w := range tuple {
		h ^= uint64(w)
		h *= 1099511628211
	}
	return h
}

func (t *TupleTable) equal(id TupleID, tuple []uint32) bool {
	got := t.arena[t.off[id]:t.off[id+1]]
	if len(got) != len(tuple) {
		return false
	}
	for i, w := range got {
		if w != tuple[i] {
			return false
		}
	}
	return true
}

// Lookup returns the ID of the tuple if it was interned before.
func (t *TupleTable) Lookup(tuple []uint32) (TupleID, bool) {
	i := uint32(hashTuple(tuple)) & t.mask
	for {
		id := t.tab[i]
		if id < 0 {
			return 0, false
		}
		if t.equal(id, tuple) {
			return id, true
		}
		i = (i + 1) & t.mask
	}
}

// Intern returns the ID for the tuple, minting one if it is new. The input
// slice is copied; the caller may reuse it.
func (t *TupleTable) Intern(tuple []uint32) (TupleID, bool) {
	i := uint32(hashTuple(tuple)) & t.mask
	for {
		id := t.tab[i]
		if id < 0 {
			break
		}
		if t.equal(id, tuple) {
			return id, false
		}
		i = (i + 1) & t.mask
	}
	id := TupleID(len(t.off) - 1)
	t.arena = append(t.arena, tuple...)
	t.off = append(t.off, uint32(len(t.arena)))
	t.tab[i] = id
	if uint32(t.Len())*4 >= (t.mask+1)*3 { // load factor 3/4
		t.grow()
	}
	return id, true
}

func (t *TupleTable) grow() {
	size := (t.mask + 1) * 2
	tab := make([]int32, size)
	for i := range tab {
		tab[i] = -1
	}
	mask := size - 1
	for id := TupleID(0); int(id) < t.Len(); id++ {
		i := uint32(hashTuple(t.Tuple(id))) & mask
		for tab[i] >= 0 {
			i = (i + 1) & mask
		}
		tab[i] = id
	}
	t.tab, t.mask = tab, mask
}
