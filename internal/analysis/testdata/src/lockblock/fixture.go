// Fixture for the lockblock pass: no sync mutex held across an RPC, a
// channel operation, a blocking select, or time.Sleep.
package lockblock

import (
	"context"
	"sync"
	"time"
)

type conn struct{}

func (c *conn) Call(ctx context.Context, req string) (string, error) {
	return req, nil
}

type server struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	net  *conn
	ch   chan int
	data map[string]int
}

// Bad: RPC while holding the lock (deferred unlock runs at return).
func (s *server) rpcUnderLock(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.net.Call(ctx, "x") // want "s.mu held across"
}

// Bad: sleeping while holding the lock.
func (s *server) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "s.mu held across time.Sleep"
	s.mu.Unlock()
}

// Bad: channel send while holding a read lock.
func (s *server) sendUnderLock() {
	s.rw.RLock()
	s.ch <- 1 // want "s.rw held across channel send"
	s.rw.RUnlock()
}

// waitOne blocks on a receive, so callers holding a lock inherit that.
func (s *server) waitOne() int {
	return <-s.ch
}

// Bad: the blocking operation is one call away.
func (s *server) transitive() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitOne() // want "which blocks on"
}

// Good: the lock is released before the RPC.
func (s *server) unlockFirst(ctx context.Context) {
	s.mu.Lock()
	s.data["k"]++
	s.mu.Unlock()
	s.net.Call(ctx, "x")
}

// Good: the early-unlock branch does not poison the fall-through path,
// and the fall-through path never blocks.
func (s *server) branchy(ctx context.Context, fast bool) {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		s.net.Call(ctx, "fast")
		return
	}
	s.data["k"]++
	s.mu.Unlock()
}

// Good: a spawned goroutine runs on its own stack and does not hold the
// spawner's lock.
func (s *server) spawn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		<-s.ch
	}()
	s.data["k"]++
}

func must(s string, err error) string { return s }

// Bad: a select clause's channel and value expressions run before the
// select picks a case, default or not — the RPC here blocks under s.mu.
func (s *server) rpcInSelectClause(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- len(must(s.net.Call(ctx, "x"))): // want "s.mu held across blocking call"
	default:
	}
}

// Bad: a select without default blocks as a whole; its clauses' own
// send and receive are that one operation, not findings of their own.
func (s *server) blockingSelect(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "s.mu held across blocking select"
	case s.ch <- 1:
	case v, ok := <-s.ch:
		_, _ = v, ok
	case <-ctx.Done():
	}
}

// Good: with a default the select never blocks, and its clauses' own
// channel operations are part of it.
func (s *server) pollUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1:
	case v := <-s.ch:
		s.data["k"] = v
	default:
	}
}

// Reason order: f calls g1 then g2, and each blocks only through a
// helper, so both become blocking in the same fixpoint round. The
// reason recorded for f must name g1 on every run.
func f() {
	g1()
	g2()
}

func g1() { h1() }
func g2() { h2() }
func h1() { time.Sleep(time.Millisecond) }
func h2() { time.Sleep(time.Millisecond) }
