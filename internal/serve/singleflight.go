package serve

import (
	"context"
	"sync"
)

// flightGroup deduplicates concurrent executions of the same key. The
// first caller for a key becomes the leader: its work runs in a
// dedicated goroutine under a context owned by the group, detached from
// any single HTTP request, so the run survives the leader client
// hanging up as long as at least one follower still wants the answer.
// Waiter counts are tracked per key; when the last waiter abandons the
// flight its context is cancelled and the computation is torn down.
// V is what one flight produces; the server's flights produce an answer,
// one response per format.
//
// This is a hand-rolled stand-in for x/sync/singleflight (the module is
// dependency-free), extended with the ref-counted cancellation that the
// stock package lacks.
type flightGroup[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

// flightCall is one in-flight computation.
type flightCall[V any] struct {
	cancel  context.CancelFunc
	done    chan struct{}
	waiters int
	val     V
}

func newFlightGroup[V any]() *flightGroup[V] {
	return &flightGroup[V]{calls: make(map[string]*flightCall[V])}
}

// Do returns the value for key, executing fn in a group-owned goroutine
// if no flight for key exists yet, or joining the existing flight
// otherwise. publish runs exactly once per flight, under the group lock,
// before any waiter is released — the server uses it to install the
// responses in the cache. A caller that missed the cache while a flight
// was running may reach Do after that flight has gone, so before it
// starts a new flight Do asks cached, under the same lock, for what a
// finished flight published; a value found there is returned as shared.
// shared reports whether the caller got a flight started by someone
// else. If ctx expires first, Do abandons the flight (the computation
// keeps running for remaining waiters, or is cancelled if this was the
// last one) and returns the context error.
func (g *flightGroup[V]) Do(ctx context.Context, key string, cached func() (V, bool), fn func(context.Context) V, publish func(V)) (val V, shared bool, err error) {
	g.mu.Lock()
	c, ok := g.calls[key]
	if !ok {
		if cached != nil {
			if v, hit := cached(); hit {
				g.mu.Unlock()
				return v, true, nil
			}
		}
		runCtx, cancel := context.WithCancel(context.Background())
		c = &flightCall[V]{cancel: cancel, done: make(chan struct{})}
		g.calls[key] = c
		go func() {
			v := fn(runCtx)
			g.mu.Lock()
			c.val = v
			// Publish under the lock: by the time any later request
			// misses the flight map, the cache already has the answer.
			if publish != nil {
				publish(v)
			}
			if g.calls[key] == c {
				delete(g.calls, key)
			}
			g.mu.Unlock()
			cancel()
			close(c.done)
		}()
	}
	c.waiters++
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, ok, nil
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		// The flight is still in the map exactly while it runs.
		abandon := c.waiters == 0 && g.calls[key] == c
		if abandon {
			// Last waiter gone and the computation hasn't finished:
			// tear it down and clear the slot so a future request
			// starts fresh instead of joining a cancelled corpse.
			delete(g.calls, key)
		}
		g.mu.Unlock()
		if abandon {
			c.cancel()
		}
		return val, ok, ctx.Err()
	}
}
