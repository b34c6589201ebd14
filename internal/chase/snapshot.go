package chase

// The persistent cache tier: a versioned, checksummed binary snapshot of
// the cross-run cache. A cache entry already is its snapshot body (the
// kind codecs at the end of this file), interner-free by construction —
// strings and terms by value — so Snapshot writes the stored
// bytes unchanged, and warm wins compound across process restarts
// (`termcheck -cache-file`) and between machines (ship the snapshot,
// warm-start a fleet).
//
// Format (all integers little-endian; varints are encoding/binary uvarints,
// signed values zigzag-folded):
//
//	header  = magic [8]byte "airctcsn" | version uint32 | reserved uint32
//	entry   = payloadLen uint32 | crc32 uint32 (IEEE, over payload) | payload
//	payload = key (Set.Hi, Set.Lo, Inst.Hi, Inst.Lo, Salt — 5×uint64)
//	        | kind-specific body (kind = Salt>>56)
//
// Robustness contract: a wrong magic or version is refused cleanly with an
// error before any entry is read (no cross-version decoding is attempted).
// Within a well-versioned stream, corruption never crashes and never
// poisons the cache — an entry whose CRC, kind, or body fails to decode is
// skipped (counted in LoadReport.Skipped) and loading continues at the next
// frame; a stream that ends mid-frame stops cleanly with
// LoadReport.Truncated set. Entries are written sorted by key, so equal
// caches snapshot to identical bytes.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"airct/internal/logic"
)

// snapshotMagic identifies a cache snapshot stream; snapshotVersion is the
// format version this build reads and writes. A version bump invalidates
// old snapshots wholesale — the loader refuses rather than guess at a
// foreign layout.
const (
	snapshotMagic = "airctcsn"
	// Version 3 added the ∀∃ frame that carries the key's whole two-rung
	// ladder (a rung count, then each outcome), and the pump depth of the
	// since retired seed-outcome kind.
	snapshotVersion = 3

	// maxEntryLen bounds a single entry frame; a larger declared length is
	// treated as corruption (the whole remaining stream is untrustworthy).
	maxEntryLen = 1 << 26
)

// ErrSnapshotFormat reports a stream that is not a cache snapshot or whose
// format version this build does not read.
var ErrSnapshotFormat = errors.New("chase: unrecognised cache snapshot format")

// LoadReport summarises a snapshot load: how many entries were restored,
// how many were skipped (bad CRC, an unknown or retired kind, a body its
// kind's decoder refuses), and whether the stream ended mid-frame.
type LoadReport struct {
	Restored  int
	Skipped   int
	Truncated bool
}

// Snapshot writes every cache entry — its key and stored body — to w in
// the versioned snapshot format, sorted by key, so two caches with equal
// contents produce identical bytes. Counters are not part of a snapshot —
// they describe a process's run, not the cached knowledge.
func (c *Cache) Snapshot(w io.Writer) error {
	type kv struct {
		k    CacheKey
		body []byte
	}
	var entries []kv
	c.forEachEntry(func(k CacheKey, body []byte) { entries = append(entries, kv{k, body}) })
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].k, entries[j].k
		switch {
		case a.Set.Hi != b.Set.Hi:
			return a.Set.Hi < b.Set.Hi
		case a.Set.Lo != b.Set.Lo:
			return a.Set.Lo < b.Set.Lo
		case a.Inst.Hi != b.Inst.Hi:
			return a.Inst.Hi < b.Inst.Hi
		case a.Inst.Lo != b.Inst.Lo:
			return a.Inst.Lo < b.Inst.Lo
		default:
			return a.Salt < b.Salt
		}
	})

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], snapshotVersion)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}

	var frame [48]byte // payload length, CRC, then the 40-byte key
	for _, e := range entries {
		key := frame[8:]
		binary.LittleEndian.PutUint64(key[0:8], e.k.Set.Hi)
		binary.LittleEndian.PutUint64(key[8:16], e.k.Set.Lo)
		binary.LittleEndian.PutUint64(key[16:24], e.k.Inst.Hi)
		binary.LittleEndian.PutUint64(key[24:32], e.k.Inst.Lo)
		binary.LittleEndian.PutUint64(key[32:40], e.k.Salt)
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(key)+len(e.body)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Update(crc32.ChecksumIEEE(key), crc32.IEEETable, e.body))
		if _, err := bw.Write(frame[:]); err != nil {
			return err
		}
		if _, err := bw.Write(e.body); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Restore reads a snapshot stream into the cache, handing each frame to
// its kind's restore (eviction accounting intact). A bad magic or version
// returns ErrSnapshotFormat before anything is restored; per-entry
// corruption is skipped, not fatal — see LoadReport.
func (c *Cache) Restore(r io.Reader) (LoadReport, error) {
	var rep LoadReport
	br := bufio.NewReader(r)

	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return rep, fmt.Errorf("%w: short header", ErrSnapshotFormat)
	}
	if string(hdr[:8]) != snapshotMagic {
		return rep, fmt.Errorf("%w: bad magic", ErrSnapshotFormat)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != snapshotVersion {
		return rep, fmt.Errorf("%w: version %d (want %d)", ErrSnapshotFormat, v, snapshotVersion)
	}

	var frame [8]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			if err != io.EOF {
				rep.Truncated = true
			}
			return rep, nil
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		want := binary.LittleEndian.Uint32(frame[4:8])
		if n > maxEntryLen {
			// A nonsense length desynchronises framing; nothing after it
			// can be trusted.
			rep.Truncated = true
			return rep, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			rep.Truncated = true
			return rep, nil
		}
		if crc32.ChecksumIEEE(payload) != want || len(payload) < 40 {
			rep.Skipped++
			continue
		}
		k := CacheKey{
			Set:  logic.Fingerprint{Hi: binary.LittleEndian.Uint64(payload[0:8]), Lo: binary.LittleEndian.Uint64(payload[8:16])},
			Inst: logic.Fingerprint{Hi: binary.LittleEndian.Uint64(payload[16:24]), Lo: binary.LittleEndian.Uint64(payload[24:32])},
			Salt: binary.LittleEndian.Uint64(payload[32:40]),
		}
		if restore := kinds[k.Salt>>56<<56]; restore != nil && restore(c, k, payload[40:]) {
			rep.Restored++
		} else {
			rep.Skipped++
		}
	}
}

// LoadCache builds a new default-limit cache from a snapshot stream.
func LoadCache(r io.Reader) (*Cache, LoadReport, error) {
	c := NewCache()
	rep, err := c.Restore(r)
	if err != nil {
		return nil, rep, err
	}
	return c, rep, nil
}

// SaveCacheFile snapshots the cache to path atomically: the snapshot is
// written to a temporary file in path's directory and renamed over path, so
// a concurrent reader sees either the old snapshot or the new one, never a
// torn write.
func SaveCacheFile(c *Cache, path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".cache-snapshot-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := c.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadCacheFile builds a new default-limit cache from a snapshot file.
func LoadCacheFile(path string) (*Cache, LoadReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, LoadReport{}, err
	}
	defer f.Close()
	return LoadCache(f)
}

// --- entry kinds ---

// kinds registers each live entry kind under its salt tag: Restore routes a
// frame to its kind's restore by the tag in the key's top byte. Retired
// tags (cache.go) have no entry, so their frames are skipped.
var kinds = map[uint64]func(c *Cache, k CacheKey, body []byte) bool{
	kindStageOutcomes: stageOutcomes.restore,
	kindExistsOutcome: existsLadders.restore,
}

var stageOutcomes = &kind[*StageOutcomes]{
	encode: func(b []byte, o *StageOutcomes) []byte {
		b = appendString(b, o.Verdict)
		b = appendString(b, o.DecidedBy)
		b = binary.AppendUvarint(b, uint64(len(o.Records)))
		for _, r := range o.Records {
			b = appendString(b, r.Stage)
			b = appendInt(b, int64(r.Tier))
			b = appendBool(b, r.Decided)
			b = appendString(b, r.Verdict)
			b = appendString(b, r.Detail)
			b = appendString(b, r.Evidence)
			b = appendInt(b, int64(r.Steps))
			b = appendInt(b, r.DurationNS)
			b = appendInt(b, int64(r.Seeds))
			b = appendInt(b, int64(r.Saturated))
			b = appendInt(b, int64(r.Depth))
		}
		return b
	},
	decode: func(d *decoder) *StageOutcomes {
		o := &StageOutcomes{
			Verdict:   d.string(),
			DecidedBy: d.string(),
		}
		n := d.count()
		o.Records = sized[StageRecord](n)
		for i := 0; i < n && d.err == nil; i++ {
			o.Records = append(o.Records, StageRecord{
				Stage:      d.string(),
				Tier:       int(d.int()),
				Decided:    d.bool(),
				Verdict:    d.string(),
				Detail:     d.string(),
				Evidence:   d.string(),
				Steps:      int(d.int()),
				DurationNS: d.int(),
				Seeds:      int(d.int()),
				Saturated:  int(d.int()),
				Depth:      int(d.int()),
			})
		}
		return o
	},
}

// existsLadders stores a key's whole ladder: a rung count, then each rung,
// decisive first. Decoding folds the rungs through the ladder's merge, so
// a frame rebuilds the ladder it was written from.
var existsLadders = &kind[*existsLadder]{
	encode: func(b []byte, l *existsLadder) []byte {
		rungs := l.rungs()
		b = binary.AppendUvarint(b, uint64(len(rungs)))
		for _, o := range rungs {
			b = appendExistsOutcome(b, o)
		}
		return b
	},
	decode: func(d *decoder) *existsLadder {
		l := &existsLadder{}
		n := d.count()
		if n == 0 || n > 2 {
			d.fail()
		}
		for i := 0; i < n && d.err == nil; i++ {
			l.merge(decodeExistsOutcome(d))
		}
		return l
	},
	merge: (*existsLadder).absorb,
}

func appendExistsOutcome(b []byte, e *ExistsOutcome) []byte {
	b = appendBool(b, e.Found)
	b = appendBool(b, e.Exhausted)
	b = appendInt(b, int64(e.Budget))
	b = appendInt(b, int64(e.StatesVisited))
	b = binary.AppendUvarint(b, uint64(len(e.Derivation)))
	for _, st := range e.Derivation {
		b = appendInt(b, int64(st.TGD))
		b = appendTerms(b, st.Vars)
		b = appendTerms(b, st.Vals)
	}
	b = appendInt(b, int64(e.Stats.StatesExpanded))
	b = appendInt(b, int64(e.Stats.MemoHits))
	b = appendInt(b, int64(e.Stats.PeakFrontier))
	b = appendInt(b, int64(e.Stats.IndexRepairs))
	b = appendInt(b, int64(e.Stats.IndexRebuilds))
	return appendInt(b, int64(e.Stats.ActivityRechecks))
}

// decodeExistsOutcome refuses a step with a negative TGD index or unequal
// variable and value lists: replay pairs them into a substitution.
func decodeExistsOutcome(d *decoder) *ExistsOutcome {
	o := &ExistsOutcome{
		Found:         d.bool(),
		Exhausted:     d.bool(),
		Budget:        int(d.int()),
		StatesVisited: int(d.int()),
	}
	n := d.count()
	o.Derivation = sized[ExistsStep](n)
	for i := 0; i < n && d.err == nil; i++ {
		st := ExistsStep{
			TGD:  int32(d.int()),
			Vars: d.terms(),
			Vals: d.terms(),
		}
		if st.TGD < 0 || len(st.Vars) != len(st.Vals) {
			d.fail()
		}
		o.Derivation = append(o.Derivation, st)
	}
	o.Stats = SearchStats{
		StatesExpanded:   int(d.int()),
		MemoHits:         int(d.int()),
		PeakFrontier:     int(d.int()),
		IndexRepairs:     int(d.int()),
		IndexRebuilds:    int(d.int()),
		ActivityRechecks: int(d.int()),
	}
	return o
}

// sized returns an empty slice with room for n decoded elements (nil for
// none), capped so that a corrupt count cannot size a large allocation.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, min(n, 64))
}

// --- scalar codecs ---

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendInt zigzag-folds so small negatives stay one byte.
func appendInt(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendTerms(b []byte, ts []logic.Term) []byte {
	b = binary.AppendUvarint(b, uint64(len(ts)))
	for _, t := range ts {
		b = append(b, byte(t.Kind))
		b = appendString(b, t.Name)
	}
	return b
}

// decoder reads the scalar codecs back out of a payload. The first
// malformed read sets err and every later read returns a zero value, so
// kind decoders can run straight-line and check err once.
type decoder struct {
	b   []byte
	off int
	err error
	// validate skips copying strings out (they read as ""): the body is
	// being checked, not read.
	validate bool
}

var errCorrupt = errors.New("corrupt entry")

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errCorrupt
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) int() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a slice length and bounds it by the bytes remaining — every
// element costs at least one byte, so a larger count is corruption, caught
// before it sizes an allocation.
func (d *decoder) count() int {
	v := d.uvarint()
	if d.err == nil && v > uint64(len(d.b)-d.off) {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) || d.b[d.off] > 1 {
		d.fail()
		return false
	}
	d.off++
	return d.b[d.off-1] == 1
}

func (d *decoder) string() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	var s string
	if !d.validate {
		s = string(d.b[d.off : d.off+n])
	}
	d.off += n
	return s
}

func (d *decoder) terms() []logic.Term {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	ts := make([]logic.Term, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		if d.off >= len(d.b) || d.b[d.off] > byte(logic.Variable) {
			d.fail()
			return ts
		}
		kind := logic.TermKind(d.b[d.off])
		d.off++
		ts = append(ts, logic.Term{Kind: kind, Name: d.string()})
	}
	return ts
}
