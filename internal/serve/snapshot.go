package serve

// The background snapshotter: termcheckd snapshots the daemon's cache on a
// ticker and once more on graceful shutdown, so a crash loses at most one
// interval of warm work. (termcheck needs no cadence: a run stores its one
// entry when its one analysis returns and saves once, at exit.) Every save
// goes through chase.SaveCacheFile's atomic temp-file rename, so a reader
// (or a killed writer) always sees a complete snapshot.

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"airct/internal/chase"
)

// Snapshotter periodically saves one cache to one path. Create with
// NewSnapshotter; Close stops the loop and writes a final snapshot.
type Snapshotter struct {
	cache *chase.Cache
	path  string
	every time.Duration
	logf  func(format string, args ...any)

	stop      chan struct{}
	loopDone  chan struct{}
	closeOnce sync.Once

	// saveMu serialises saves: a ticker save racing the final Close save
	// would waste work (the rename itself is already atomic).
	saveMu sync.Mutex
	saves  atomic.Int64
	errs   atomic.Int64
	last   atomic.Int64 // unix milliseconds of the last successful save
}

// NewSnapshotter starts a snapshotter for the cache. every <= 0 disables
// the ticker — Close still writes the final snapshot, a save at exit only
// (termcheckd -cache-save-every 0). logf (optional) receives save
// errors; ticker saves never abort the loop on error, since a transient
// full disk must not kill the cadence.
func NewSnapshotter(cache *chase.Cache, path string, every time.Duration, logf func(format string, args ...any)) *Snapshotter {
	s := &Snapshotter{
		cache: cache,
		path:  path,
		every: every,
		logf:  logf,
		stop:  make(chan struct{}),
	}
	if every > 0 {
		s.loopDone = make(chan struct{})
		go s.loop()
	}
	return s
}

func (s *Snapshotter) loop() {
	defer close(s.loopDone)
	t := time.NewTicker(s.every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if err := s.Save(); err != nil && s.logf != nil {
				s.logf("cache snapshot to %s failed: %v", s.path, err)
			}
		}
	}
}

// Save writes one snapshot now.
func (s *Snapshotter) Save() error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	if err := chase.SaveCacheFile(s.cache, s.path); err != nil {
		s.errs.Add(1)
		return err
	}
	s.saves.Add(1)
	s.last.Store(time.Now().UnixMilli())
	return nil
}

// Close stops the ticker loop and writes a final snapshot, returning the
// final save's error. Safe to call more than once; only the first call
// saves.
func (s *Snapshotter) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.stop)
		if s.loopDone != nil {
			<-s.loopDone
		}
		err = s.Save()
	})
	return err
}

// Stats snapshots the snapshotter's counters for /v1/stats.
func (s *Snapshotter) Stats() SnapshotStats {
	return SnapshotStats{
		Path:       s.path,
		EveryMS:    s.every.Milliseconds(),
		Saves:      s.saves.Load(),
		Errors:     s.errs.Load(),
		LastUnixMS: s.last.Load(),
	}
}

// OpenCacheFile loads the snapshot at path into a fresh cache: a missing
// file starts cold silently, a corrupt or version-mismatched one is
// reported through logf and ignored (the next save overwrites it), and a
// partial load is reported with its count of skipped frames, corrupt or
// of a retired kind, which the next save drops — the
// shared loader of termcheck and termcheckd, where persistence must never
// turn a servable request into an error.
func OpenCacheFile(path string, logf func(format string, args ...any)) *chase.Cache {
	if path == "" {
		return chase.NewCache()
	}
	loaded, rep, err := chase.LoadCacheFile(path)
	switch {
	case err == nil:
		if (rep.Skipped > 0 || rep.Truncated) && logf != nil {
			logf("cache file %s: restored %d entries, skipped %d (corrupt or of a retired kind), truncated=%t",
				path, rep.Restored, rep.Skipped, rep.Truncated)
		}
		return loaded
	case os.IsNotExist(err):
		// First run: start cold, save later.
	default:
		if logf != nil {
			logf("ignoring cache file %s: %v", path, err)
		}
	}
	return chase.NewCache()
}
