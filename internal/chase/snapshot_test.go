package chase

// Unit tests for the persistent cache tier: a snapshot must round-trip
// every entry kind by value, produce deterministic bytes, refuse foreign
// headers cleanly, and degrade per-entry — never crash, never poison the
// cache — under byte-level corruption.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"airct/internal/logic"
	"airct/internal/parser"
)

// populateAllKinds stores one entry of each of the two kinds and returns
// the stored values for later comparison.
func populateAllKinds(c *Cache) (*StageOutcomes, *ExistsOutcome) {
	set, inst := fpOf("set"), fpOf("inst")
	sg := &StageOutcomes{Verdict: "terminating", DecidedBy: "probe", Records: []StageRecord{
		{Stage: "full-set", Tier: 0, Decided: false, Verdict: "unknown", Detail: "not full", Steps: 1, DurationNS: 12345},
		{Stage: "probe", Tier: 1, Decided: true, Verdict: "terminating", Detail: "saturated", Steps: 9, DurationNS: 6789, Seeds: 4, Saturated: 4, Depth: 3, Evidence: "σ2 guard-chain pump"},
	}}
	c.StoreStageOutcomes(set, 0xBEEF, sg)
	eo := &ExistsOutcome{Found: true, Budget: 500, StatesVisited: 37,
		Derivation: []ExistsStep{{
			TGD:  1,
			Vars: []logic.Term{logic.Var("V1"), logic.Var("V2")},
			Vals: []logic.Term{logic.Const("a"), logic.NewNull("n3")},
		}},
		Stats: SearchStats{StatesExpanded: 36, MemoHits: 2, PeakFrontier: 5, IndexRepairs: 30, IndexRebuilds: 1, ActivityRechecks: 7}}
	c.StoreExistsOutcome(set, inst, 200, eo)
	return sg, eo
}

func TestSnapshotRoundTripAllKinds(t *testing.T) {
	c := NewCache()
	sg, eo := populateAllKinds(c)
	set, inst := fpOf("set"), fpOf("inst")

	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	c2, rep, err := LoadCache(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadCache: %v", err)
	}
	if rep.Restored != 2 || rep.Skipped != 0 || rep.Truncated {
		t.Fatalf("LoadReport = %+v, want 2 restored, clean", rep)
	}

	if got, ok := c2.LookupStageOutcomes(set, 0xBEEF); !ok || !reflect.DeepEqual(got, sg) {
		t.Errorf("StageOutcomes round-trip = %+v, %v; want %+v", got, ok, sg)
	}
	if got, ok := c2.LookupExistsOutcome(set, inst, 200, 500); !ok || !reflect.DeepEqual(got, eo) {
		t.Errorf("ExistsOutcome round-trip = %+v, %v; want %+v", got, ok, eo)
	}

	// Restored entries went through the normal store path: entry and byte
	// accounting must match the source cache exactly.
	a, b := c.Stats(), c2.Stats()
	if a.Entries != b.Entries || a.Bytes != b.Bytes {
		t.Errorf("accounting drifted across round-trip: source %d entries/%dB, restored %d entries/%dB",
			a.Entries, a.Bytes, b.Entries, b.Bytes)
	}
}

// TestSnapshotDeterministicBytes: equal contents stored in different orders
// must snapshot to identical bytes (entries are sorted by key on write).
func TestSnapshotDeterministicBytes(t *testing.T) {
	mk := func(reverse bool) []byte {
		c := NewCache()
		keys := []int{100, 200, 300}
		if reverse {
			keys = []int{300, 100, 200}
		}
		for _, salt := range keys {
			c.StoreStageOutcomes(fpOf("set"), uint64(salt), &StageOutcomes{Verdict: "terminates", DecidedBy: fmt.Sprint(salt)})
		}
		c.StoreExistsOutcome(fpOf("other"), fpOf("inst"), 99, &ExistsOutcome{Exhausted: true, Budget: 7})
		var buf bytes.Buffer
		if err := c.Snapshot(&buf); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		return buf.Bytes()
	}
	a, b := mk(false), mk(true)
	if !bytes.Equal(a, b) {
		t.Errorf("snapshots of equal caches differ: %d vs %d bytes", len(a), len(b))
	}
}

func TestSnapshotEmptyCacheRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := NewCache().Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	c, rep, err := LoadCache(bytes.NewReader(buf.Bytes()))
	if err != nil || rep.Restored != 0 || rep.Skipped != 0 || rep.Truncated {
		t.Fatalf("empty round-trip: report %+v, err %v", rep, err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("empty snapshot restored %d entries", st.Entries)
	}
}

// TestSnapshotRefusesForeignHeaders: a bad magic or an unknown version is
// an ErrSnapshotFormat refusal before any entry is restored.
func TestSnapshotRefusesForeignHeaders(t *testing.T) {
	c := NewCache()
	populateAllKinds(c)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:10],
		"bad magic": append([]byte("notacsnp"), good[8:]...),
		"foreign version": func() []byte {
			b := bytes.Clone(good)
			binary.LittleEndian.PutUint32(b[8:12], snapshotVersion+1)
			return b
		}(),
	}
	for name, b := range cases {
		c2 := NewCache()
		rep, err := c2.Restore(bytes.NewReader(b))
		if !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("%s: err = %v, want ErrSnapshotFormat", name, err)
		}
		if rep.Restored != 0 {
			t.Errorf("%s: restored %d entries from a refused stream", name, rep.Restored)
		}
		if st := c2.Stats(); st.Entries != 0 {
			t.Errorf("%s: refused stream left %d entries in the cache", name, st.Entries)
		}
	}
}

// TestSnapshotSkipsRetiredKind: a v3 snapshot written by an older build
// can carry frames of the retired kinds — 1 (guarded seed outcomes), 2 (the
// engine's root trigger index), 3 (guarded seed pools), 5 (sticky Büchi
// verdicts) and 7 (the portfolio cost model). Such a frame loads as an
// unknown kind — skipped, never fatal — and every other frame restores.
func TestSnapshotSkipsRetiredKind(t *testing.T) {
	c := NewCache()
	populateAllKinds(c)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	frame := func(payload []byte) []byte {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		return append(hdr[:], payload...)
	}
	key := func(tag uint64) []byte {
		k := make([]byte, 40)
		binary.LittleEndian.PutUint64(k[32:40], tag<<56)
		return k
	}
	// The old kind-1 body: the divergence flag, method, evidence, steps
	// and pump depth of one seed's battery.
	outcome := appendBool(key(1), true)
	outcome = appendString(outcome, "divergence-witness")
	outcome = appendString(outcome, "guard-chain pump")
	outcome = appendInt(outcome, 17)
	outcome = appendInt(outcome, 5)
	// The old kind-2 body: a trigger count, then per trigger the TGD
	// index, the birth-activity flag and the body bindings.
	index := binary.AppendUvarint(key(2), 1)
	index = appendInt(index, 0)
	index = appendBool(index, true)
	index = appendTerms(index, []logic.Term{logic.Const("a")})
	// The old kind-3 body: a seed count, then per seed an atom count and
	// each atom's predicate name, arity and arguments.
	pool := binary.AppendUvarint(key(3), 1)
	pool = binary.AppendUvarint(pool, 1)
	pool = appendString(pool, "S")
	pool = appendInt(pool, 1)
	pool = appendTerms(pool, []logic.Term{logic.Const("c")})
	// The old kind-5 body: the verdict flags and method, the states
	// explored, the witness seed index and the lasso's prefix and cycle
	// keys, then its gap.
	verdict := appendBool(key(5), false)
	verdict = appendString(verdict, "buchi-witness")
	verdict = appendBool(verdict, true)
	verdict = appendInt(verdict, 42)
	verdict = appendInt(verdict, 0)
	for _, keys := range [][]string{{"0/0/2"}, {"1/0/"}} {
		verdict = binary.AppendUvarint(verdict, uint64(len(keys)))
		for _, k := range keys {
			verdict = appendString(verdict, k)
		}
	}
	verdict = appendInt(verdict, 1)
	// The old kind-7 body: class label, then a stage count and per stage a
	// name and four integers (EWMA cost, attempts, decisions, EWMA depth).
	cost := appendString(key(7), "g1s0f0:b2")
	cost = binary.AppendUvarint(cost, 1)
	cost = appendString(cost, "probe")
	for _, v := range []int64{350_000, 9, 8, 21} {
		cost = appendInt(cost, v)
	}

	stream := bytes.Clone(buf.Bytes()[:16])
	for _, payload := range [][]byte{outcome, index, pool, verdict, cost} {
		stream = append(stream, frame(payload)...)
	}
	stream = append(stream, buf.Bytes()[16:]...)

	c2, rep, err := LoadCache(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("LoadCache: %v", err)
	}
	if rep.Restored != 2 || rep.Skipped != 5 || rep.Truncated {
		t.Errorf("LoadReport = %+v, want 2 restored and the five retired-kind frames skipped", rep)
	}
	if a, b := c.Stats(), c2.Stats(); a.Entries != b.Entries || a.Bytes != b.Bytes {
		t.Errorf("accounting drifted: source %d entries/%dB, restored %d entries/%dB",
			a.Entries, a.Bytes, b.Entries, b.Bytes)
	}
}

// TestSnapshotCorruptionIsContained: a flipped payload byte fails that
// entry's CRC and skips it — the frames after it still restore. Truncation
// mid-frame stops cleanly with the prior entries intact. A nonsense frame
// length desynchronises and stops. None of it errors or panics.
func TestSnapshotCorruptionIsContained(t *testing.T) {
	c := NewCache()
	populateAllKinds(c)
	total := int(c.Stats().Entries)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	good := buf.Bytes()

	t.Run("flipped byte", func(t *testing.T) {
		b := bytes.Clone(good)
		// 16-byte header, 8-byte first frame header, then the payload: flip
		// a byte inside the first entry's key.
		b[16+8+3] ^= 0xFF
		c2 := NewCache()
		rep, err := c2.Restore(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if rep.Skipped != 1 || rep.Restored != total-1 || rep.Truncated {
			t.Errorf("report = %+v, want 1 skipped, %d restored, not truncated", rep, total-1)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		c2 := NewCache()
		rep, err := c2.Restore(bytes.NewReader(good[:len(good)-5]))
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if !rep.Truncated || rep.Restored != total-1 {
			t.Errorf("report = %+v, want truncated with %d restored", rep, total-1)
		}
	})

	t.Run("nonsense frame length", func(t *testing.T) {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint32(b[16:20], 1<<30)
		c2 := NewCache()
		rep, err := c2.Restore(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if !rep.Truncated || rep.Restored != 0 {
			t.Errorf("report = %+v, want truncated, 0 restored", rep)
		}
	})

	// Every-offset fuzz: flipping any single byte anywhere in the stream
	// must never panic and never error beyond a format refusal.
	t.Run("every offset", func(t *testing.T) {
		for i := 0; i < len(good); i++ {
			b := bytes.Clone(good)
			b[i] ^= 0xFF
			c2 := NewCache()
			if _, err := c2.Restore(bytes.NewReader(b)); err != nil && !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("offset %d: unexpected error %v", i, err)
			}
		}
	})
}

// TestSnapshotFileSaveLoad exercises the atomic file helpers, including the
// missing-file path callers use to detect a cold start.
func TestSnapshotFileSaveLoad(t *testing.T) {
	c := NewCache()
	populateAllKinds(c)
	path := t.TempDir() + "/cache.snap"

	if _, _, err := LoadCacheFile(path); err == nil {
		t.Fatal("LoadCacheFile on a missing path succeeded")
	}
	if err := SaveCacheFile(c, path); err != nil {
		t.Fatalf("SaveCacheFile: %v", err)
	}
	c2, rep, err := LoadCacheFile(path)
	if err != nil {
		t.Fatalf("LoadCacheFile: %v", err)
	}
	if rep.Restored != int(c.Stats().Entries) || rep.Skipped != 0 || rep.Truncated {
		t.Errorf("LoadReport = %+v, want all %d restored", rep, c.Stats().Entries)
	}
	if a, b := c.Stats(), c2.Stats(); a.Entries != b.Entries || a.Bytes != b.Bytes {
		t.Errorf("file round-trip drifted: %d/%dB vs %d/%dB", a.Entries, a.Bytes, b.Entries, b.Bytes)
	}
}

// TestSnapshotExistsLadderRoundTrip pins the ∀∃ ladder's frame (ROADMAP
// 5c): a key holding both a decisive and a deep inconclusive rung writes
// one frame carrying both, restores to a ladder serving the same queries,
// restores to the same byte accounting, and re-snapshots to identical
// bytes.
func TestSnapshotExistsLadderRoundTrip(t *testing.T) {
	c := NewCache()
	set, inst := fpOf("ladder-set"), fpOf("ladder-inst")
	dec := &ExistsOutcome{Found: true, Budget: 2000, StatesVisited: 37,
		Derivation: []ExistsStep{{
			TGD:  0,
			Vars: []logic.Term{logic.Var("X")},
			Vals: []logic.Term{logic.NewNull("n1")},
		}},
		Stats: SearchStats{StatesExpanded: 36, PeakFrontier: 4}}
	inc := &ExistsOutcome{Budget: 1000, StatesVisited: 1000,
		Stats: SearchStats{StatesExpanded: 999, PeakFrontier: 12}}
	c.StoreExistsOutcome(set, inst, 80, inc)
	c.StoreExistsOutcome(set, inst, 80, dec)

	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	c2, rep, err := LoadCache(bytes.NewReader(buf.Bytes()))
	if err != nil || rep.Restored != 1 || rep.Skipped != 0 {
		t.Fatalf("restore: report %+v, err %v (want 1 frame for the whole ladder)", rep, err)
	}
	if got, ok := c2.LookupExistsOutcome(set, inst, 80, 2500); !ok || !reflect.DeepEqual(got, dec) {
		t.Errorf("decisive rung round-trip = %+v, %v; want %+v", got, ok, dec)
	}
	if got, ok := c2.LookupExistsOutcome(set, inst, 80, 500); !ok || !reflect.DeepEqual(got, inc) {
		t.Errorf("inconclusive rung round-trip = %+v, %v; want %+v", got, ok, inc)
	}
	a, b := c.Stats(), c2.Stats()
	if a.Entries != b.Entries || a.Bytes != b.Bytes {
		t.Errorf("accounting drifted: source %d entries/%dB, restored %d entries/%dB",
			a.Entries, a.Bytes, b.Entries, b.Bytes)
	}
	var buf2 bytes.Buffer
	if err := c2.Snapshot(&buf2); err != nil {
		t.Fatalf("re-snapshot: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("re-snapshot differs: %d vs %d bytes", buf.Len(), buf2.Len())
	}
}

// retiredTags are the kind tags cache-v3.snap holds frames of that this
// build no longer reads: 2, the engine's root trigger index, and 1, 3 and
// 5, the guarded seed outcomes, the guarded seed pools and the sticky
// Büchi verdicts.
var retiredTags = map[uint64]bool{1: true, 2: true, 3: true, 5: true}

// TestSnapshotGoldenV3 loads testdata/cache-v3.snap, written by the build
// that still had the seed-index kind: `termcheck -cache-file` in flat,
// -portfolio and -exists mode over testdata/conformance/{swap-intro,
// guard-chain-pump,sticky-relay-2,stage-grid-3,intro}.chase. It holds
// frames of all six kinds that build stored. The frames of the four
// retired kinds are skipped and counted, the stage ledgers and ∀∃ ladders
// restore, and the re-snapshot is the golden with exactly the retired
// frames removed, byte for byte.
func TestSnapshotGoldenV3(t *testing.T) {
	golden, err := os.ReadFile("testdata/cache-v3.snap")
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(golden[:16])
	tags := map[uint64]int{}
	frames, retired := 0, 0
	for off := 16; off < len(golden); frames++ {
		n := int(binary.LittleEndian.Uint32(golden[off:]))
		frame := golden[off : off+8+n]
		off += 8 + n
		tag := binary.LittleEndian.Uint64(frame[8+32:]) >> 56
		tags[tag]++
		if retiredTags[tag] {
			retired++
		} else {
			want = append(want, frame...)
		}
	}
	if len(tags) != 6 || frames != 36 || retired != 26 {
		t.Fatalf("golden frames per tag = %v (%d frames, %d retired), want all six kinds, 36 frames, 26 retired", tags, frames, retired)
	}

	c, rep, err := LoadCache(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("LoadCache: %v", err)
	}
	if rep.Skipped != retired || rep.Restored != frames-retired || rep.Truncated {
		t.Errorf("LoadReport = %+v, want %d restored and the %d retired-kind frames skipped", rep, frames-retired, retired)
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("re-snapshot (%d bytes) differs from the golden without its retired-kind frames (%d bytes)", buf.Len(), len(want))
	}
}

// TestRestoreSkipsUnreplayableBodies: a frame with a valid CRC whose body
// its replay would panic on is skipped, never restored, and the same value
// stored in-process is never served. Each case would otherwise reach a
// panic in the substitution pairing of the ∀∃ replay.
func TestRestoreSkipsUnreplayableBodies(t *testing.T) {
	set, inst := fpOf("set"), fpOf("inst")
	step := func(st ExistsStep) func(c *Cache) bool {
		return func(c *Cache) bool {
			c.StoreExistsOutcome(set, inst, 20, &ExistsOutcome{Found: true, Budget: 10, Derivation: []ExistsStep{st}})
			_, ok := c.LookupExistsOutcome(set, inst, 20, 10)
			return ok
		}
	}
	cases := map[string]func(c *Cache) bool{
		"exists step with unequal vars and vals": step(ExistsStep{
			Vars: []logic.Term{logic.Var("X"), logic.Var("Y")}, Vals: []logic.Term{logic.Const("a")},
		}),
		"exists step with a negative TGD index": step(ExistsStep{TGD: -1}),
	}
	for name, storeAndLookup := range cases {
		t.Run(name, func(t *testing.T) {
			c := NewCache()
			if storeAndLookup(c) {
				t.Error("an in-process store of the value is served")
			}
			var buf bytes.Buffer
			if err := c.Snapshot(&buf); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			_, rep, err := LoadCache(bytes.NewReader(buf.Bytes()))
			if err != nil || rep.Restored != 0 || rep.Skipped != 1 || rep.Truncated {
				t.Errorf("LoadCache = %+v, %v; want the frame skipped", rep, err)
			}
		})
	}
}

// TestExistsReplayOfUnfitTGDIndexRecomputes: a cached ∀∃ outcome whose
// step names a TGD the set does not have — a fingerprint collision or a
// foreign snapshot frame; no search of this set records it — is a miss:
// the search runs and answers as cold.
func TestExistsReplayOfUnfitTGDIndexRecomputes(t *testing.T) {
	prog := parser.MustParse(`
		P(c).
		s1: P(X) -> Q(X).
	`)
	opts := SearchOptions{MaxStates: 100, MaxAtoms: 20}
	cold := mustSearch(t, prog.Database, prog.TGDs, opts)
	opts.Cache = NewCache()
	opts.Cache.StoreExistsOutcome(prog.TGDs.Fingerprint(), logic.FingerprintAtoms(prog.Database.Atoms()),
		opts.MaxAtoms, &ExistsOutcome{Found: true, Budget: 100, Derivation: []ExistsStep{{TGD: 5}}})
	got := mustSearch(t, prog.Database, prog.TGDs, opts)
	if got.Replayed || got.Found != cold.Found || got.StatesVisited != cold.StatesVisited ||
		got.Stats != cold.Stats || len(got.Derivation) != len(cold.Derivation) {
		t.Errorf("unfit replay drifted: cold %+v, got %+v", cold, got)
	}
}

// FuzzRestore: restoring any byte stream never panics and fails only with
// ErrSnapshotFormat, and what it restored reaches a fixed point — the
// snapshot of the restored cache restores cleanly and re-snapshots to the
// same bytes.
func FuzzRestore(f *testing.F) {
	golden, err := os.ReadFile("testdata/cache-v3.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	c := NewCache()
	populateAllKinds(c)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		c, _, err := LoadCache(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("Restore failed with %v, want ErrSnapshotFormat", err)
			}
			return
		}
		var first bytes.Buffer
		if err := c.Snapshot(&first); err != nil {
			t.Fatal(err)
		}
		c2, rep, err := LoadCache(bytes.NewReader(first.Bytes()))
		if err != nil || rep.Skipped != 0 || rep.Truncated {
			t.Fatalf("re-restore = %+v, %v; want clean", rep, err)
		}
		var second bytes.Buffer
		if err := c2.Snapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("re-snapshot differs: %d vs %d bytes", first.Len(), second.Len())
		}
	})
}
