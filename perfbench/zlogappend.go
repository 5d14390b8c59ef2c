package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mds"
	"repro/internal/rados"
	"repro/internal/wire"
	"repro/internal/zlog"
)

// zlog-append: the paper's round-trip-bound shared log. Three
// WAL-backed OSDs (two replicas), one MDS holding the sequencer, and a
// 200 µs injected one-way latency — the setting of the repository's
// ZLog benches, with their sequencer policy (cacheable, quota 1000,
// 1 s delay). One client appends a fixed number of entries to a fresh
// log, then starts the next log, until the measured time is used; one
// client reads acked positions and checks each entry. A fixed count per
// log, not a fixed time, keeps every log on the same growth curve: each
// append's cost grows with its stripe object, which is journaled whole.

const (
	zlogPool   = "zlog"
	entryBytes = 256
	zlogWidth  = 4 // zlog's default stripe width
)

type zlogAppend struct {
	opts options
	rep  int
	tr   *tracer
	wals walSet
	booted
	gc      *rados.Client // removes finished logs
	entries fillerPool
	logs    int // logs opened so far; the appender's alone

	mu  sync.Mutex
	cur *logState // guarded by mu; the log the appender is filling
}

// logState is one log's acked positions, shared with the reader.
type logState struct {
	name  string
	mu    sync.Mutex
	acked []ackedEntry // guarded by mu

	// retire is read-held by the reader around each read; the appender
	// write-locks it to mark the log retired before removing its objects.
	retire  sync.RWMutex
	retired bool // guarded by retire
}

type ackedEntry struct {
	pos uint64
	idx uint64 // which seeded entry was appended there
}

func newZlogAppend(opts options, rep int, tr *tracer) workload {
	return &zlogAppend{opts: opts, rep: rep, tr: tr, entries: newFillerPool(opts.seed, "zl.entry", 64, entryBytes)}
}

var seqPolicy = mds.CapPolicy{Cacheable: true, Quota: 1000, Delay: time.Second}

func (w *zlogAppend) setup(ctx context.Context) error {
	cl, err := core.Boot(ctx, core.Options{
		Mons: 1, OSDs: 3, MDSs: 1, Replicas: 2, Pools: []string{zlogPool}, Seed: w.opts.seed,
		NetLatency: fabricLatency,
		OSD:        rados.OSDConfig{CheckpointInterval: 100 * time.Millisecond},
		OSDBackend: w.wals.factory(w.opts, w.rep, w.tr),
	})
	if err != nil {
		return err
	}
	w.cl = cl
	w.gc = cl.NewRadosClient("client.pb.zl.gc")
	if err := w.gc.RefreshMap(ctx); err != nil {
		return err
	}
	watch := watchClass(cl.OSDs, zlog.ClassName)
	if err := zlog.InstallClass(ctx, cl.NewMonClient("client.pb.zl.admin")); err != nil {
		return err
	}
	return watch.waitAbove(ctx, 0)
}

func (w *zlogAppend) open(ctx context.Context, name, addr string) (*zlog.Log, error) {
	return zlog.Open(ctx, w.cl.Net, wire.Addr(addr), w.cl.MonIDs(), zlog.Options{
		Name: name, Pool: zlogPool, Width: zlogWidth, SeqPolicy: seqPolicy,
	})
}

func (w *zlogAppend) current() *logState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cur
}

func (w *zlogAppend) run(ctx context.Context, deadline time.Time, rec *recorder) {
	if rec.traced() {
		w.wals.mark()
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		w.appendLoop(ctx, deadline, rec)
	}()
	go func() {
		defer wg.Done()
		w.readLoop(ctx, done, rec)
	}()
	wg.Wait()
	w.mu.Lock()
	last := w.cur
	w.cur = nil
	w.mu.Unlock()
	if last != nil {
		w.retireLog(ctx, last, rec)
	}
	if rec.traced() {
		rec.set("wal.commits_per_sync", w.wals.commitsPerSync(rec.tr))
	}
}

// retireLog removes a finished log's stripe objects once no read is in
// flight on it. Every log then starts from the same cluster state, and
// neither the heap nor the checkpoints grow with the number of logs a
// run fits in.
func (w *zlogAppend) retireLog(ctx context.Context, st *logState, rec *recorder) {
	st.retire.Lock()
	st.retired = true
	st.retire.Unlock()
	for i := 0; i < zlogWidth; i++ {
		obj := fmt.Sprintf("%s.%d", st.name, i)
		if err := w.gc.Remove(ctx, zlogPool, obj); err != nil {
			rec.fail("remove %s: %v", obj, err)
		}
	}
}

// quarterGrowth holds one log's per-quarter append latency and CPU.
type quarterGrowth struct{ lat, cpu [4]float64 }

func (w *zlogAppend) appendLoop(ctx context.Context, deadline time.Time, rec *recorder) {
	writes, _ := rec.client()
	n := w.opts.scale.zlogEntries
	var growth []quarterGrowth
	var local, remote int64
	appended := 0
	for time.Now().Before(deadline) {
		k := w.logs
		w.logs++
		st := &logState{name: fmt.Sprintf("pb-%s-%d-%d", seedTag(w.opts.seed), w.rep, k)}
		l, err := w.open(ctx, st.name, fmt.Sprintf("client.pb.zl.a.%d", k))
		rec.attempted.Add(1)
		if err != nil {
			rec.fail("open log %s: %v", st.name, err)
			return
		}
		w.mu.Lock()
		prev := w.cur
		w.cur = st
		w.mu.Unlock()
		if prev != nil {
			w.retireLog(ctx, prev, rec)
		}

		var g quarterGrowth
		lats := make([]float64, 0, n)
		cpu0 := cpuTime()
		for i := 0; i < n; i++ {
			payload := w.entries.value(st.name, uint64(i))
			rec.attempted.Add(1)
			start := time.Now()
			var pos uint64
			rec.tr.time("zlog.append", func() { pos, err = l.Append(ctx, payload) })
			d := time.Since(start)
			if err != nil {
				rec.fail("append %s#%d: %v", st.name, i, err)
				continue
			}
			writes.add(d)
			lats = append(lats, float64(d)/1e3)
			rec.wrote(len(payload))
			st.mu.Lock()
			st.acked = append(st.acked, ackedEntry{pos: pos, idx: uint64(i)})
			st.mu.Unlock()
			if q := (i + 1) * 4 / n; (i+1)*4%n == 0 && q >= 1 {
				now := cpuTime()
				g.cpu[q-1] = float64(now-cpu0) / 1e3 / float64(n/4)
				cpu0 = now
			}
		}
		appended += len(lats)
		if len(lats) == n && n >= 4 {
			for q := 0; q < 4; q++ {
				g.lat[q] = median(lats[q*n/4 : (q+1)*n/4])
			}
			growth = append(growth, g)
		}
		lo, re := l.MDS().Stats()
		local += lo
		remote += re
		l.Close()
	}
	var latG, cpuG []float64
	for _, g := range growth {
		latG = append(latG, g.lat[3]/g.lat[0])
		cpuG = append(cpuG, g.cpu[3]/g.cpu[0])
	}
	if rec.traced() {
		rec.set("zlog.append_growth", median(latG))
		rec.set("zlog.append_cpu_growth", median(cpuG))
		if local+remote > 0 {
			rec.set("mds.local_grant_ratio", float64(local)/float64(local+remote))
		}
		if appended > 0 {
			rec.set("mds.remote_grants_per_entry", float64(remote)/float64(appended))
		}
	}
}

func (w *zlogAppend) readLoop(ctx context.Context, done <-chan struct{}, rec *recorder) {
	_, reads := rec.client()
	rng := rngFor(w.opts.seed, "zl.read", 0)
	var h *zlog.Log
	var hs *logState
	defer func() {
		if h != nil {
			h.Close()
		}
	}()
	// idle waits a moment for the appender to ack something; it
	// reports false once the appender has finished.
	idle := func() bool {
		t := time.NewTimer(time.Millisecond)
		defer t.Stop()
		select {
		case <-done:
			return false
		case <-t.C:
			return true
		}
	}
	for {
		select {
		case <-done:
			return
		default:
		}
		st := w.current()
		if st == nil {
			if !idle() {
				return
			}
			continue
		}
		if st != hs {
			if h != nil {
				h.Close()
			}
			var err error
			h, err = w.open(ctx, st.name, fmt.Sprintf("client.pb.zl.r.%s", st.name))
			rec.attempted.Add(1)
			if err != nil {
				rec.fail("reader open %s: %v", st.name, err)
				h = nil
				return
			}
			hs = st
		}
		st.mu.Lock()
		if len(st.acked) == 0 {
			st.mu.Unlock()
			if !idle() {
				return
			}
			continue
		}
		e := st.acked[rng.Intn(len(st.acked))]
		st.mu.Unlock()
		st.retire.RLock()
		if st.retired {
			st.retire.RUnlock()
			continue
		}
		rec.attempted.Add(1)
		start := time.Now()
		var got []byte
		var err error
		rec.tr.time("zlog.read", func() { got, err = h.Read(ctx, e.pos) })
		d := time.Since(start)
		st.retire.RUnlock()
		if err != nil || !bytes.Equal(got, w.entries.value(st.name, e.idx)) {
			rec.fail("read %s@%d: not entry %d (%v)", st.name, e.pos, e.idx, err)
			continue
		}
		reads.add(d)
		rec.read(len(got))
	}
}

func (w *zlogAppend) finish(_ context.Context, rec *recorder) {
	tr := rec.tr
	if tr == nil {
		return
	}
	entries := float64(tr.count("zlog.append"))
	if entries == 0 {
		return
	}
	// An appender handle "client.pb.zl.a.<k>" calls the MDS from its own
	// address and the OSDs from "<addr>.rados".
	b, a := rec.before.wire, rec.after.wire
	calls := func(match func(addr string) bool) float64 {
		var n float64
		for addr, st := range a.Outbound {
			if s := string(addr); strings.HasPrefix(s, "client.pb.zl.a.") && match(s) {
				n += float64(st.Calls - b.Outbound[addr].Calls)
			}
		}
		return n
	}
	rec.set("zlog.class_calls_per_entry", calls(func(s string) bool { return strings.HasSuffix(s, ".rados") })/entries)
	rec.set("zlog.seq_calls_per_entry", calls(func(s string) bool { return strings.Count(s, ".") == 4 })/entries)
}
