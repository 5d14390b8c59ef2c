package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rados"
)

// object-rw: the durable replicated write path. Three WAL-backed OSDs
// (background checkpointing on) hold three replicas of each object; two
// clients each own a disjoint set of 4 KiB objects and mix WriteFull,
// Read and a script-class omap touch. Every hop pays the fabric latency
// (see fabricLatency), so the user-visible figures count round trips —
// primary, replica fan-out — while the CPU of placement, slot lock,
// Backend.Record/Commit, checkpoints and VM dispatch shows in
// cpu_us_per_op and the per-layer spans. Reads skip the journal, so a
// write-side gain that costs reads shows. The run ends by hard-killing
// and rebuilding each OSD in turn, then reading back every acked write.

const (
	rwPool     = "data"
	touchClass = "perfbench"
	valueBytes = 4096
)

const touchScript = `
function touch(cls)
	local v = tonumber(cls.omap_get("n")) or 0
	cls.omap_set("n", tostring(v + 1))
	return tostring(v + 1)
end
`

type objectRW struct {
	opts options
	rep  int
	tr   *tracer
	wals walSet
	fill fillerPool

	booted
	clients []*rwClient
}

type rwClient struct {
	rc      *rados.Client
	objs    []string
	seq     []uint64 // last acked WriteFull sequence per object
	touches []uint64 // acked touch count per object
	rng     *rand.Rand
}

func newObjectRW(opts options, rep int, tr *tracer) workload {
	return &objectRW{opts: opts, rep: rep, tr: tr, fill: newFillerPool(opts.seed, "rw.fill", 64, valueBytes)}
}

func (w *objectRW) setup(ctx context.Context) error {
	cl, err := core.Boot(ctx, core.Options{
		Mons: 1, OSDs: 3, Replicas: 3, Pools: []string{rwPool}, Seed: w.opts.seed, NetLatency: fabricLatency,
		OSD:        rados.OSDConfig{CheckpointInterval: 100 * time.Millisecond},
		OSDBackend: w.wals.factory(w.opts, w.rep, w.tr),
	})
	if err != nil {
		return err
	}
	w.cl = cl
	watch := watchClass(cl.OSDs, touchClass)
	if err := cl.NewMonClient("client.pb.rw.admin").InstallClass(ctx, touchClass, touchScript, "other"); err != nil {
		return err
	}
	if err := watch.waitAbove(ctx, 0); err != nil {
		return err
	}
	for k := 0; k < 2; k++ {
		c := &rwClient{
			rc:      cl.NewRadosClient(fmt.Sprintf("client.pb.rw.c%d", k)),
			objs:    rwObjects(w.opts.seed, k, w.opts.scale.rwObjects),
			rng:     rngFor(w.opts.seed, "rw.mix", k),
			seq:     make([]uint64, w.opts.scale.rwObjects),
			touches: make([]uint64, w.opts.scale.rwObjects),
		}
		if err := c.rc.RefreshMap(ctx); err != nil {
			return err
		}
		w.clients = append(w.clients, c)
	}
	// Preload from a separate client with more concurrency than the
	// measured loop; the measured clients' in-flight high-water marks
	// then reflect the loop alone.
	loader := cl.NewRadosClient("client.pb.rw.load")
	if err := loader.RefreshMap(ctx); err != nil {
		return err
	}
	var mu sync.Mutex
	var firstErr error
	for _, c := range w.clients {
		c := c
		parallel(len(c.objs), 32, func(i int) {
			if err := loader.WriteFull(ctx, rwPool, c.objs[i], w.fill.value(c.objs[i], 0)); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("preload %s: %w", c.objs[i], err)
				}
				mu.Unlock()
			}
		})
	}
	return firstErr
}

func (w *objectRW) run(ctx context.Context, deadline time.Time, rec *recorder) {
	if rec.traced() {
		w.wals.mark()
	}
	var wg sync.WaitGroup
	for _, c := range w.clients {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(ctx, c, deadline, rec)
		}()
	}
	wg.Wait()
}

func (w *objectRW) loop(ctx context.Context, c *rwClient, deadline time.Time, rec *recorder) {
	writes, reads := rec.client()
	for time.Now().Before(deadline) {
		kind, i := rwOp(c.rng, len(c.objs))
		name := c.objs[i]
		key := objKey{rwPool, name}
		epoch := c.rc.MapEpoch()
		if rec.traced() {
			rec.tr.time("rados.locate", func() { _, _, _ = rados.Locate(c.rc.CachedMap(), rwPool, name) })
		}
		rec.attempted.Add(1)
		switch kind {
		case opWrite:
			val := w.fill.value(name, c.seq[i]+1)
			sp := rec.tr.begin(key)
			start := time.Now()
			err := c.rc.WriteFull(ctx, rwPool, name, val)
			d := time.Since(start)
			rec.tr.end("rados.write", key, sp)
			if err != nil {
				rec.fail("write %s: %v", name, err)
				continue
			}
			c.seq[i]++
			writes.add(d)
			rec.wrote(len(val))
		case opRead:
			sp := rec.tr.begin(key)
			start := time.Now()
			got, err := c.rc.Read(ctx, rwPool, name)
			d := time.Since(start)
			rec.tr.end("rados.read", key, sp)
			if err != nil {
				rec.fail("read %s: %v", name, err)
				continue
			}
			if !bytes.Equal(got, w.fill.value(name, c.seq[i])) {
				rec.fail("read %s: not the value of seq %d", name, c.seq[i])
				continue
			}
			reads.add(d)
			rec.read(len(got))
		case opTouch:
			sp := rec.tr.begin(key)
			start := time.Now()
			out, err := c.rc.Call(ctx, rwPool, name, touchClass, "touch", nil)
			d := time.Since(start)
			rec.tr.end("rados.call", key, sp)
			if err != nil {
				rec.fail("touch %s: %v", name, err)
				continue
			}
			if want := strconv.FormatUint(c.touches[i]+1, 10); string(out) != want {
				rec.fail("touch %s = %q, want %s", name, out, want)
				continue
			}
			c.touches[i]++
			writes.add(d)
		}
		if rec.traced() && c.rc.MapEpoch() != epoch {
			rec.tr.add("rados.map_fetches", 1)
		}
	}
}

func (w *objectRW) finish(ctx context.Context, rec *recorder) {
	if tr := rec.tr; tr != nil {
		ops := float64(rec.completed())
		clientCalls := outboundCalls(rec.before.wire, rec.after.wire, "client.pb.rw.c")
		fetches := tr.counter("rados.map_fetches")
		rec.set("rados.write_us", tr.meanUs("rados.write"))
		rec.set("rados.read_us", tr.meanUs("rados.read"))
		rec.set("rados.call_us", tr.meanUs("rados.call"))
		rec.set("rados.write_wal_share", tr.coveredShare("rados.write"))
		rec.set("rados.locate_ns", tr.meanUs("rados.locate")*1e3)
		rec.set("rados.map_fetches_per_op", fetches/ops)
		rec.set("rados.client_resends_per_op", max(0, clientCalls-ops-fetches)/ops)
		rec.set("wal.commits_per_sync", w.wals.commitsPerSync(tr))
		m := w.clients[0].rc.CachedMap()
		objs := w.clients[0].objs
		rec.set("rados.locate_allocs", allocsPer(len(objs), func(i int) { _, _, _ = rados.Locate(m, rwPool, objs[i]) }))
	}

	// Hard-kill and rebuild each daemon in turn: replay plus
	// reconciliation until it serves again.
	var restarts []float64
	var torn int64
	first := int(uint64(subSeed(w.opts.seed, "victim", 0)) % uint64(len(w.cl.OSDs)))
	for r := 0; r < w.opts.scale.restarts; r++ {
		victim := (first + r) % len(w.cl.OSDs)
		start := time.Now()
		w.cl.OSDs[victim].Crash()
		err := w.cl.RebuildOSD(ctx, victim)
		d := time.Since(start)
		rec.check(err == nil, "rebuild osd.%d: %v", victim, err)
		if err != nil {
			return
		}
		restarts = append(restarts, d.Seconds())
		torn += w.cl.OSDs[victim].ReplayReport().TornBytes
	}
	rec.set("restart_s", median(restarts))
	if tr := rec.tr; tr != nil {
		rec.set("wal.replay_s", tr.meanUs("wal.replay")/1e6)
		if n := tr.count("wal.replay"); n > 0 {
			rec.set("wal.replay_records", tr.counter("wal.replay_records")/float64(n))
		}
		rec.set("osd.torn_bytes", float64(torn))
	}

	// Every acked write and touch must have survived the kills.
	for _, c := range w.clients {
		c := c
		parallel(len(c.objs), 4, func(i int) {
			name := c.objs[i]
			got, err := c.rc.Read(ctx, rwPool, name)
			rec.check(err == nil && bytes.Equal(got, w.fill.value(name, c.seq[i])),
				"after restart: %s lost seq %d (%v)", name, c.seq[i], err)
			if c.touches[i] > 0 {
				kv, err := c.rc.OmapGet(ctx, rwPool, name, "n")
				want := strconv.FormatUint(c.touches[i], 10)
				rec.check(err == nil && string(kv["n"]) == want,
					"after restart: %s touch count %q, want %s (%v)", name, kv["n"], want, err)
			}
		})
	}
	repairs := 0
	for _, o := range w.cl.OSDs {
		repairs += o.ScrubNow()
	}
	if rec.tr != nil {
		rec.set("osd.scrub_repairs", float64(repairs))
	}
}
