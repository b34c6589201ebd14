package serve

// The singleflight table: concurrent identical requests — same TGD-set
// fingerprint, same question and budgets, and for exists the same instance
// fingerprint — share ONE underlying analysis instead of racing N copies
// of it. A decide reads only the rules, so its key leaves the instance
// fingerprint zero and decides that differ only in facts share a flight. The table is
// the serving-side complement of the cross-run cache: the cache dedups
// across time (a finished answer is replayed), the flight table dedups
// across concurrency (an unfinished answer is joined). A thundering herd of
// k identical decides therefore costs one decide cold and one cache probe
// each warm.
//
// Lifecycle: the first caller for a key becomes the LEADER — it claims an
// admission slot (followers never consume one), runs the work on a context
// detached from its own request, and publishes the result to everyone who
// joined. Followers wait on the flight's done channel with their own
// request contexts, so a follower that disconnects stops waiting without
// disturbing the flight. The flight's context is refcounted: when the last
// interested caller has gone, the flight is cancelled — the engine/search/
// Decide context plumbing (RunChaseContext, DecideContext,
// portfolio.Analyze) then stops the underlying work promptly, and nothing
// is stored in the cache for it. A finished flight is removed from the
// table; later identical requests are served by the cache, not the table.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"airct/internal/logic"
)

// flightKey identifies one unit of deduplicatable work. Salt folds the
// question kind and every verdict-relevant budget (the same rule as the
// cross-run cache keys); timeouts are deliberately excluded — a follower
// with a shorter timeout than the leader's simply stops waiting early.
type flightKey struct {
	set  logic.Fingerprint
	inst logic.Fingerprint
	salt uint64
}

// flight is one in-progress computation.
type flight struct {
	done   chan struct{}
	cancel context.CancelFunc
	val    any
	err    error
	// waiters counts callers still interested in the result; guarded by
	// the owning table's mutex. The flight is cancelled when it drops to
	// zero before completion.
	waiters int
}

type flightTable struct {
	mu sync.Mutex
	m  map[flightKey]*flight
}

// doFlight deduplicates fn across concurrent callers of the same key. It
// returns fn's result, whether this caller joined another caller's flight
// (shared), and an error: errShed when the caller would have led but no
// admission slot was free, ctx.Err() when the caller stopped waiting, or
// fn's own error. fn runs on a context derived from the server's base
// context (NOT the caller's), bounded by timeout when timeout > 0.
func (s *Server) doFlight(ctx context.Context, key flightKey, timeout time.Duration, fn func(ctx context.Context) (any, error)) (any, bool, error) {
	t := &s.flights
	t.mu.Lock()
	if f, ok := t.m[key]; ok {
		f.waiters++
		t.mu.Unlock()
		s.metrics.flightsDeduped.Add(1)
		return s.waitFlight(ctx, f, true)
	}
	// Leader path: claim an admission slot without queuing — a full pool
	// sheds the request instead of building an unbounded backlog.
	select {
	case s.gate <- struct{}{}:
	default:
		t.mu.Unlock()
		s.metrics.requestsShed.Add(1)
		return nil, false, errShed
	}
	fctx, cancel := context.WithCancel(s.baseCtx)
	runCtx, timeoutCancel := fctx, context.CancelFunc(func() {})
	if timeout > 0 {
		runCtx, timeoutCancel = context.WithTimeout(fctx, timeout)
	}
	f := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	if t.m == nil {
		t.m = make(map[flightKey]*flight)
	}
	t.m[key] = f
	t.mu.Unlock()
	s.metrics.flightsStarted.Add(1)

	go func() {
		defer func() { <-s.gate }()
		val, err := s.runFlight(runCtx, fn)
		if runCtx.Err() != nil {
			// The underlying work was stopped by cancellation (every
			// interested client left, the flight timed out, or the server
			// is shutting down) rather than running to completion.
			s.metrics.flightsCancelled.Add(1)
		}
		timeoutCancel()
		t.mu.Lock()
		delete(t.m, key)
		f.val, f.err = val, err
		close(f.done)
		t.mu.Unlock()
	}()
	return s.waitFlight(ctx, f, false)
}

// errFlightPanic marks a flight whose work panicked; the request is
// answered 500.
var errFlightPanic = errors.New("serve: analysis panicked")

// runFlight runs a flight's work and contains a panic in it: the flight
// then fails with errFlightPanic instead of taking the daemon and every
// other in-flight request down, its admission slot is released as usual,
// and /v1/stats counts the panic.
func (s *Server) runFlight(ctx context.Context, fn func(ctx context.Context) (any, error)) (val any, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.metrics.flightPanics.Add(1)
			if s.cfg.Logf != nil {
				s.cfg.Logf("serve: flight panicked: %v\n%s", p, debug.Stack())
			}
			val, err = nil, fmt.Errorf("%w: %v", errFlightPanic, p)
		}
	}()
	return fn(ctx)
}

// waitFlight blocks until the flight publishes or the caller's own context
// fires. A departing caller decrements the refcount and cancels the flight
// when it was the last one interested.
func (s *Server) waitFlight(ctx context.Context, f *flight, shared bool) (any, bool, error) {
	select {
	case <-f.done:
		return f.val, shared, f.err
	case <-ctx.Done():
		s.flights.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			select {
			case <-f.done:
			default:
				f.cancel()
			}
		}
		s.flights.mu.Unlock()
		return nil, shared, ctx.Err()
	}
}
