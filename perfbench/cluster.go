package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rados"
	"repro/internal/wire"
)

// fabricLatency is the one-way delay injected on every hop of the
// object-rw, zlog-append and control-plane clusters — the setting of the
// repository's ZLog benches. On a shared 2-vCPU host, figures of a
// CPU-saturating loop moved by up to 45% with the neighbours' load
// between sets of runs; round-trip-bound figures held within a few
// percent. dedup-ingest stays latency-free: its per-block work is what it
// measures.
const fabricLatency = 200 * time.Microsecond

// booted holds a workload's cluster once setup has booted it.
type booted struct{ cl *core.Cluster }

func (b *booted) net() *wire.Network { return b.cl.Net }

func (b *booted) stop() {
	if b.cl != nil {
		b.cl.Stop()
	}
}

// walSet builds the journal backends of one cluster and remembers the
// newest one per daemon so their fsync counts can be read.
type walSet struct {
	mu     sync.Mutex
	live   map[int]interface{ Syncs() uint64 } // guarded by mu
	marked uint64                              // guarded by mu; syncs at mark
}

// factory returns the per-daemon backend constructor: the plain
// WALBackend, or the traced decorator around it when tr is non-nil.
//
// The journal lives in the working tree, on whatever disk that is, and
// is opened without fsync. On a shared disk an fsync costs what other
// tenants make it cost (measured ops/s varied by 40% between runs), so
// an fsync-on figure measures the disk, not the program. Everything
// else of the flush policy still runs — group-commit leadership, buffer
// flush to the kernel on every Commit, checkpoint write and rename — and
// a hard kill keeps exactly what it keeps with fsync on: what reached
// the kernel survives the process, the unflushed buffer and torn tail
// do not. What this does not measure is the fsync system call itself,
// the part tmpfs would make near free as well.
func (s *walSet) factory(opts options, rep int, tr *tracer) func(int) (rados.Backend, error) {
	return func(id int) (rados.Backend, error) {
		wb, err := rados.OpenWALBackend(walDir(opts, rep, id), rados.WALBackendOptions{NoSync: true})
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.live == nil {
			s.live = make(map[int]interface{ Syncs() uint64 })
		}
		var be interface {
			rados.Backend
			Syncs() uint64
		} = wb
		if tr != nil {
			be = &tracedBackend{inner: wb, tr: tr}
		}
		s.live[id] = be
		return be, nil
	}
}

// syncs sums the fsync batches of every live backend. Caller holds s.mu.
func (s *walSet) syncs() uint64 {
	var n uint64
	for _, b := range s.live {
		n += b.Syncs()
	}
	return n
}

// mark starts counting fsync batches for commitsPerSync.
func (s *walSet) mark() {
	s.mu.Lock()
	s.marked = s.syncs()
	s.mu.Unlock()
}

// commitsPerSync is how many traced Commit calls each fsync batch since
// mark served: above 1 means group commit is batching.
func (s *walSet) commitsPerSync(tr *tracer) float64 {
	s.mu.Lock()
	n := s.syncs() - s.marked
	s.mu.Unlock()
	if n == 0 {
		return 0
	}
	return float64(tr.count("wal.commit")) / float64(n)
}

// classWatch tracks, per daemon, the newest live version of one class.
type classWatch struct {
	name    string
	changed chan struct{} // capacity 1: a pending wake-up, not a queue

	mu   sync.Mutex
	live []uint64 // guarded by mu
}

func watchClass(osds []*rados.OSD, name string) *classWatch {
	w := &classWatch{name: name, changed: make(chan struct{}, 1), live: make([]uint64, len(osds))}
	for i, o := range osds {
		i := i
		o.OnClassLive(func(n string, v uint64) {
			if n != name {
				return
			}
			w.mu.Lock()
			if v > w.live[i] {
				w.live[i] = v
			}
			w.mu.Unlock()
			select {
			case w.changed <- struct{}{}:
			default:
			}
		})
	}
	return w
}

// minVersion is the version every daemon has made live.
func (w *classWatch) minVersion() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := w.live[0]
	for _, v := range w.live {
		if v < m {
			m = v
		}
	}
	return m
}

// waitAbove blocks until every daemon runs a version newer than v.
func (w *classWatch) waitAbove(ctx context.Context, v uint64) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for w.minVersion() <= v {
		select {
		case <-w.changed:
		case <-ctx.Done():
			return fmt.Errorf("class %s: not live on every daemon above version %d: %w", w.name, v, ctx.Err())
		}
	}
	return nil
}

// outboundCalls sums the Call delta of every caller whose address
// starts with prefix.
func outboundCalls(before, after wire.Stats, prefix string) float64 {
	var n uint64
	for addr, st := range after.Outbound {
		if strings.HasPrefix(string(addr), prefix) {
			n += st.Calls - before.Outbound[addr].Calls
		}
	}
	return float64(n)
}

// allocsPer reports the mean heap allocations of fn over runs calls,
// measured on a quiesced cluster after the timed phase.
func allocsPer(runs int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// parallel runs fn(i) for i in [0, n) on workers goroutines and waits.
func parallel(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
