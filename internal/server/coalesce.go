package server

import (
	"context"
	"sync"
	"sync/atomic"

	"spes/internal/engine"
	"spes/internal/fault"
)

// coalescer deduplicates identical verifications that are in flight at
// the same time: concurrent requests for the same pair share one engine
// verification instead of racing N copies of the same proof.
//
// Flights are keyed by the request text, the pair of SQL strings as
// received. A server verifies against one catalog, so the text fixes the
// plans, and a Go map compares the whole key, so no request is ever handed
// another pair's verdict. The key is a [2]string rather than the two
// strings joined: the lexer skips a -- comment to the end of the line,
// NUL bytes included, so a joined string can read the same for two pairs
// that build to different plans.
//
// Entries live only while the leader runs — they are removed before the
// waiters wake — so nothing is ever cached at this layer. That is
// deliberate: an indefinite verdict (timeout, cancellation) held in a
// cache would keep answering "not proved" long after the engine could
// prove the pair. Definite cross-request reuse belongs to the engine's
// obligation cache, which stores only definite solver outcomes. Waiters
// that were already sharing a leader do receive the leader's timeout
// verdict (sound: a timeout only ever degrades Equivalent to NotProved),
// but a leader aborted by cancellation signals its waiters to retry
// rather than propagate a verdict that exists only because some other
// client hung up.
type coalescer struct {
	mu sync.Mutex
	m  map[[2]string]*flight
	// waiters counts followers currently blocked on a leader (tests use it
	// to know every concurrent request has joined a flight).
	waiters atomic.Int64
	// onPanic, when set, is called once per panic recovered in lead. The
	// engine recovers (and counts) its own panics before they reach fn's
	// return, so anything arriving here escaped from the glue between the
	// handler and the engine; the server wires its panic counter in.
	onPanic func()
}

type flight struct {
	done chan struct{}
	// set by the leader before close(done):
	res   engine.Result
	retry bool // leader was cancelled; its verdict reflects someone else's abort
}

func newCoalescer() *coalescer {
	return &coalescer{m: make(map[[2]string]*flight)}
}

// do executes fn once per concurrent identical (sql1, sql2): the first
// caller becomes the leader and runs it, the rest wait and share the
// result. coalesced reports whether this caller was a follower. The wait
// respects ctx; fn itself must carry its own context (the leader's
// verification must not die just because one waiter hung up).
func (c *coalescer) do(ctx context.Context, sql1, sql2 string, fn func() engine.Result) (res engine.Result, coalesced bool, err error) {
	key := [2]string{sql1, sql2}
	for {
		c.mu.Lock()
		if f, ok := c.m[key]; ok {
			c.waiters.Add(1)
			c.mu.Unlock()
			select {
			case <-f.done:
				c.waiters.Add(-1)
				if f.retry {
					continue // leader aborted by cancellation; take the lead ourselves
				}
				return f.res, true, nil
			case <-ctx.Done():
				c.waiters.Add(-1)
				return engine.Result{}, true, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		c.m[key] = f
		c.mu.Unlock()

		return c.lead(key, f, fn), false, nil
	}
}

// lead runs fn as the leader of flight f. Completion — publishing the
// result, removing the flight, waking the waiters — is deferred, so a
// panicking fn can no longer leak the flight and strand every waiter on a
// channel that never closes (the pre-fix bug: remove/close ran inline
// after fn, and a panic skipped straight past them). A cancelled or
// panicked leader publishes retry, so waiters re-claim the pair instead
// of inheriting a verdict that exists only because of someone else's
// abort; the leader's own caller gets the recovered panic as a
// NotProved/internal_error verdict.
func (c *coalescer) lead(key [2]string, f *flight, fn func() engine.Result) (res engine.Result) {
	finished := false
	defer func() {
		if !finished {
			res = engine.PanicResult("", recover())
			if c.onPanic != nil {
				c.onPanic()
			}
		}
		f.res = res
		f.retry = res.Cancelled || res.Panicked
		c.mu.Lock()
		delete(c.m, key)
		c.mu.Unlock()
		close(f.done)
	}()
	fault.Inject(fault.CoalesceLeader) // cancel outcome: ignored; cancellation flows through fn's ctx
	res = fn()
	finished = true
	return res
}

// inFlight returns the number of distinct verifications currently being
// led through the coalescer (for tests and debugging).
func (c *coalescer) inFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
