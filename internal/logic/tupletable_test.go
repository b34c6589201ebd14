package logic

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestTupleTableTruncateQuick: intern random tuples, then truncate to a
// random n and again to a random smaller one. Each time the slot array must
// equal that of a fresh table fed the first n tuples and grown to the same
// size, the kept tuples must keep their IDs and the dropped ones must miss;
// re-interning the dropped ones in order must mint the same IDs and restore
// the untruncated slot array.
func TestTupleTableTruncateQuick(t *testing.T) {
	f := func(seed int64, count, cut1, cut2 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTupleTable(4)
		var tuples [][]uint32 // the distinct tuples, in ID order
		for i := 0; i < int(count%400); i++ {
			tup := make([]uint32, 1+rng.Intn(4))
			for j := range tup {
				tup[j] = uint32(rng.Intn(6))
			}
			if _, isNew := tab.Intern(tup); isNew {
				tuples = append(tuples, tup)
			}
		}
		full := slices.Clone(tab.tab)
		check := func(n int) bool {
			tab.Truncate(n)
			fresh := NewTupleTable(4)
			for _, tup := range tuples[:n] {
				fresh.Intern(tup)
			}
			for fresh.mask < tab.mask {
				fresh.grow()
			}
			if tab.Len() != n || !slices.Equal(fresh.tab, tab.tab) ||
				!slices.Equal(fresh.arena, tab.arena) || !slices.Equal(fresh.off, tab.off) {
				t.Logf("seed %d: table truncated to %d differs from a fresh table of its first %d tuples", seed, n, n)
				return false
			}
			for id, tup := range tuples {
				got, ok := tab.Lookup(tup)
				if ok != (id < n) || (ok && got != TupleID(id)) {
					t.Logf("seed %d: after Truncate(%d), Lookup of tuple %d = (%d, %v)", seed, n, id, got, ok)
					return false
				}
			}
			return true
		}
		n1 := int(cut1) % (len(tuples) + 1)
		n2 := int(cut2) % (n1 + 1)
		if !check(n1) || !check(n2) {
			return false
		}
		for id, tup := range tuples[n2:] {
			if got, isNew := tab.Intern(tup); !isNew || got != TupleID(n2+id) {
				t.Logf("seed %d: re-interning tuple %d minted (%d, %v)", seed, n2+id, got, isNew)
				return false
			}
		}
		return slices.Equal(full, tab.tab)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
