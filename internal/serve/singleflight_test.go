package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightGroupDeduplicates(t *testing.T) {
	t.Parallel()
	g := newFlightGroup[*response]()
	var runs, published int32
	block := make(chan struct{})
	fn := func(context.Context) *response {
		atomic.AddInt32(&runs, 1)
		<-block
		return &response{status: 200, body: []byte("x")}
	}
	publish := func(*response) { atomic.AddInt32(&published, 1) }

	const n = 50
	results := make([]*response, n)
	shareds := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, shared, err := g.Do(context.Background(), "k", nil, fn, publish)
			if err != nil {
				t.Errorf("Do %d: %v", i, err)
			}
			results[i], shareds[i] = r, shared
		}(i)
	}
	// Release fn only once every caller has joined the flight; a caller
	// arriving after the flight completed would start a second run.
	deadline := time.Now().Add(10 * time.Second)
	for {
		g.mu.Lock()
		w := 0
		if c := g.calls["k"]; c != nil {
			w = c.waiters
		}
		g.mu.Unlock()
		if w == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers joined the flight", w, n)
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()

	if got := atomic.LoadInt32(&runs); got != 1 {
		t.Fatalf("fn ran %d times for %d concurrent callers, want 1", got, n)
	}
	if got := atomic.LoadInt32(&published); got != 1 {
		t.Fatalf("publish ran %d times, want exactly 1", got)
	}
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("caller %d got a different response pointer", i)
		}
	}
}

func TestFlightGroupSequentialRunsAreIndependent(t *testing.T) {
	t.Parallel()
	g := newFlightGroup[*response]()
	var runs int32
	fn := func(context.Context) *response {
		atomic.AddInt32(&runs, 1)
		return &response{status: 200}
	}
	for i := 0; i < 3; i++ {
		if _, shared, err := g.Do(context.Background(), "k", nil, fn, nil); err != nil || shared {
			t.Fatalf("run %d: shared=%v err=%v, want fresh flight", i, shared, err)
		}
	}
	if got := atomic.LoadInt32(&runs); got != 3 {
		t.Fatalf("fn ran %d times across sequential calls, want 3 (flights must not linger)", got)
	}
}

// TestFlightGroupRechecksTheCache: a caller that finds no flight takes
// what a finished flight published instead of starting a new one.
func TestFlightGroupRechecksTheCache(t *testing.T) {
	t.Parallel()
	g := newFlightGroup[*response]()
	published := &response{status: 200, body: []byte("published")}
	fn := func(context.Context) *response {
		t.Error("fn ran although a finished flight had published the value")
		return nil
	}
	got, shared, err := g.Do(context.Background(), "k",
		func() (*response, bool) { return published, true }, fn, nil)
	if err != nil || !shared || got != published {
		t.Fatalf("Do = %v, shared=%v, err=%v; want the published value, shared", got, shared, err)
	}
}

func TestFlightGroupLastWaiterCancelsTheRun(t *testing.T) {
	t.Parallel()
	g := newFlightGroup[*response]()
	started := make(chan struct{})
	sawCancel := make(chan struct{})
	fn := func(ctx context.Context) *response {
		close(started)
		<-ctx.Done()
		close(sawCancel)
		return &response{status: StatusClientClosedRequest}
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", nil, fn, nil)
		errc <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("Do returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do did not return after its context was cancelled")
	}
	select {
	case <-sawCancel:
		// The run context was cancelled once the last waiter left.
	case <-time.After(10 * time.Second):
		t.Fatal("the abandoned run's context was never cancelled")
	}
}

func TestFlightGroupSurvivesLeaderHangup(t *testing.T) {
	t.Parallel()
	g := newFlightGroup[*response]()
	started := make(chan struct{})
	block := make(chan struct{})
	var runs int32
	fn := func(ctx context.Context) *response {
		atomic.AddInt32(&runs, 1)
		close(started)
		select {
		case <-block:
			return &response{status: 200, body: []byte("survived")}
		case <-ctx.Done():
			return &response{status: StatusClientClosedRequest}
		}
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(leaderCtx, "k", nil, fn, nil)
		leaderErr <- err
	}()
	<-started
	// A follower joins, then the leader hangs up: the run must keep
	// going because the follower still wants the answer.
	followerResp := make(chan *response, 1)
	go func() {
		r, _, _ := g.Do(context.Background(), "k", nil, fn, nil)
		followerResp <- r
	}()
	// Let the follower actually register before the leader leaves.
	deadline := time.Now().Add(10 * time.Second)
	for {
		g.mu.Lock()
		w := 0
		if c := g.calls["k"]; c != nil {
			w = c.waiters
		}
		g.mu.Unlock()
		if w == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	if err := <-leaderErr; err != context.Canceled {
		t.Fatalf("leader got %v, want context.Canceled", err)
	}
	close(block)
	select {
	case r := <-followerResp:
		if r == nil || string(r.body) != "survived" {
			t.Fatalf("follower got %+v, want the completed response", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never got the response")
	}
	if got := atomic.LoadInt32(&runs); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
}
