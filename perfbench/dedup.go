package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cdc"
	"repro/internal/core"
	"repro/internal/rados"
	"repro/internal/types"
	"repro/internal/wire"
	corpus "repro/internal/workload"
)

// dedup-ingest: content-addressed ingest on three memory-backed OSDs
// with two replicas and no injected latency. One writer stores fresh
// seeded corpora (half their bytes repeat earlier content) with
// WriteDeduped, cycling over a fixed set of objects so the live data
// stays bounded; one reader reassembles acked objects with ReadDeduped
// and compares them byte for byte. Per-block work dominates — chunker,
// SHA-256, batched OpBlockStat, one replicated write per missing block,
// placement per block — and no journal is on the path, so WAL changes
// should not move it. The run ends with a block sweep and a refcount
// audit that must find no leaked blocks and no dangling references.

const dedupPool = "dedup"

type dedupIngest struct {
	opts options
	booted

	writer, reader *rados.Client
	names          []string

	// slots guards each object's expected content: the writer holds the
	// write lock while it overwrites, the reader a read lock while it
	// reads, so a read always has exactly one acked value to match.
	slots    []sync.RWMutex
	expected [][]byte // guarded by slots[i]
	written  int      // corpora generated so far; the writer's alone
}

func newDedupIngest(opts options, _ int, _ *tracer) workload {
	n := opts.scale.dedupSlots
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("dd.%s.%d", seedTag(opts.seed), i)
	}
	return &dedupIngest{opts: opts, names: names, slots: make([]sync.RWMutex, n), expected: make([][]byte, n)}
}

// nextCorpus generates the writer's next seeded input.
func (w *dedupIngest) nextCorpus() []byte {
	c := corpus.GenerateDupCorpus(corpusSeed(w.opts.seed, w.written),
		corpus.DupCorpusConfig{Size: w.opts.scale.corpusBytes, DupRatio: 0.5})
	w.written++
	return c
}

func (w *dedupIngest) setup(ctx context.Context) error {
	cl, err := core.Boot(ctx, core.Options{
		Mons: 1, OSDs: 3, Replicas: 2, Pools: []string{dedupPool}, Seed: w.opts.seed,
		// Overwritten corpora become garbage; the background sweeper
		// reclaims it so memory stays flat. The grace still dwarfs the
		// stat-to-manifest window of a write.
		OSD: rados.OSDConfig{GCInterval: 20 * time.Millisecond, GCGrace: 500 * time.Millisecond},
	})
	if err != nil {
		return err
	}
	w.cl = cl
	w.writer = cl.NewRadosClient("client.pb.dd.w")
	w.reader = cl.NewRadosClient("client.pb.dd.r")
	for _, c := range []*rados.Client{w.writer, w.reader} {
		if err := c.RefreshMap(ctx); err != nil {
			return err
		}
	}
	for i, name := range w.names {
		data := w.nextCorpus()
		if _, err := w.writer.WriteDeduped(ctx, dedupPool, name, data, nil); err != nil {
			return fmt.Errorf("preload %s: %w", name, err)
		}
		w.expected[i] = data
	}
	return nil
}

func (w *dedupIngest) run(ctx context.Context, deadline time.Time, rec *recorder) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		w.writeLoop(ctx, deadline, rec)
	}()
	go func() {
		defer wg.Done()
		w.readLoop(ctx, deadline, rec)
	}()
	wg.Wait()
}

func (w *dedupIngest) writeLoop(ctx context.Context, deadline time.Time, rec *recorder) {
	writes, _ := rec.client()
	var st dedupTotals
	for time.Now().Before(deadline) {
		slot := w.written % len(w.names)
		data := w.nextCorpus()
		name := w.names[slot]
		if rec.traced() {
			w.traceBlocks(rec.tr, data, &st)
		}
		before, epoch := w.calls(rec, "client.pb.dd.w"), w.writer.MapEpoch()
		rec.attempted.Add(1)
		w.slots[slot].Lock()
		sp := rec.tr.begin(objKey{dedupPool, name})
		start := time.Now()
		ds, err := w.writer.WriteDeduped(ctx, dedupPool, name, data, nil)
		d := time.Since(start)
		rec.tr.end("rados.write", objKey{dedupPool, name}, sp)
		if err == nil {
			w.expected[slot] = data
		}
		w.slots[slot].Unlock()
		if err != nil {
			rec.fail("write %s: %v", name, err)
			continue
		}
		writes.add(d)
		rec.wrote(ds.TotalBytes)
		st.add(ds, w.calls(rec, "client.pb.dd.w")-before)
		w.countMapFetch(rec, w.writer, epoch)
	}
	st.report(rec)
}

func (w *dedupIngest) readLoop(ctx context.Context, deadline time.Time, rec *recorder) {
	_, reads := rec.client()
	rng := rngFor(w.opts.seed, "dd.read", 0)
	var blocks, calls float64
	n := 0
	for time.Now().Before(deadline) {
		slot := w.lockSlotForRead(rng)
		name := w.names[slot]
		before, epoch := w.calls(rec, "client.pb.dd.r"), w.reader.MapEpoch()
		rec.attempted.Add(1)
		sp := rec.tr.begin(objKey{dedupPool, name})
		start := time.Now()
		got, err := w.reader.ReadDeduped(ctx, dedupPool, name)
		d := time.Since(start)
		rec.tr.end("rados.read", objKey{dedupPool, name}, sp)
		ok := err == nil && bytes.Equal(got, w.expected[slot])
		w.slots[slot].RUnlock()
		if !ok {
			rec.fail("read %s: content differs from the acked corpus (%v)", name, err)
			continue
		}
		reads.add(d)
		rec.read(len(got))
		n++
		calls += float64(w.calls(rec, "client.pb.dd.r") - before)
		w.countMapFetch(rec, w.reader, epoch)
		if rec.tr != nil {
			// One manifest read, then one read per distinct block.
			blocks += float64(len(uniqueBlocks(got)))
		}
	}
	if rec.traced() && n > 0 {
		rec.set("dedup.read_blocks_per_op", blocks/float64(n))
		rec.add("dedup.read_resends", max(0, calls-blocks-float64(n)))
	}
}

// calls is addr's outbound Call count in a traced run (0 otherwise: a
// Stats snapshot copies every endpoint's counters).
func (w *dedupIngest) calls(rec *recorder, addr wire.Addr) uint64 {
	if !rec.traced() {
		return 0
	}
	return w.cl.Net.Stats().Outbound[addr].Calls
}

// countMapFetch counts, in a traced run, an op during which the
// client's cached map advanced — at least one map fetch.
func (w *dedupIngest) countMapFetch(rec *recorder, c *rados.Client, epoch types.Epoch) {
	if rec.traced() && c.MapEpoch() != epoch {
		rec.tr.add("rados.map_fetches", 1)
	}
}

// lockSlotForRead read-locks a seeded random slot the writer is not
// overwriting right now.
func (w *dedupIngest) lockSlotForRead(rng *rand.Rand) int {
	for {
		slot := rng.Intn(len(w.names))
		if w.slots[slot].TryRLock() {
			return slot
		}
	}
}

// traceBlocks times the layers a deduped write crosses, outside the
// write itself: a separate cdc.Split, rados.BlockName per chunk and
// rados.Locate per block on the writer's cached map.
func (w *dedupIngest) traceBlocks(tr *tracer, data []byte, st *dedupTotals) {
	var chunks []cdc.Chunk
	tr.time("cdc.split", func() { chunks, _ = cdc.Split(data, nil) })
	names := make(map[string]bool, len(chunks))
	tr.time("dedup.blockname", func() {
		for _, c := range chunks {
			names[rados.BlockName(data[c.Off:c.Off+c.Len])] = true
		}
	})
	m := w.writer.CachedMap()
	primaries := make(map[int]bool)
	for name := range names {
		var acting []int
		tr.time("rados.locate", func() { _, acting, _ = rados.Locate(m, dedupPool, name) })
		if len(acting) > 0 {
			primaries[acting[0]] = true
		}
	}
	st.splitBytes += float64(len(data))
	st.statCalls += float64(len(primaries))
}

// uniqueBlocks returns the distinct block names of data's chunking.
func uniqueBlocks(data []byte) map[string]bool {
	chunks, _ := cdc.Split(data, nil)
	names := make(map[string]bool, len(chunks))
	for _, c := range chunks {
		names[rados.BlockName(data[c.Off:c.Off+c.Len])] = true
	}
	return names
}

// dedupTotals sums the writer's DedupStats and wire calls.
type dedupTotals struct {
	n                                      int
	total, chunks, unique, newBlocks, wire float64
	calls, splitBytes, statCalls           float64
}

func (t *dedupTotals) add(ds rados.DedupStats, calls uint64) {
	t.n++
	t.total += float64(ds.TotalBytes)
	t.chunks += float64(ds.Chunks)
	t.unique += float64(ds.UniqueBlocks)
	t.newBlocks += float64(ds.NewBlocks)
	t.wire += float64(ds.WireBytes)
	t.calls += float64(calls)
}

func (t *dedupTotals) report(rec *recorder) {
	if t.n == 0 || t.total == 0 {
		return
	}
	rec.set("stored_bytes_per_user_byte", t.wire/t.total)
	if !rec.traced() {
		return
	}
	n := float64(t.n)
	tr := rec.tr
	rec.set("cdc.chunks_per_op", t.chunks/n)
	rec.set("cdc.mean_chunk_bytes", t.total/t.chunks)
	rec.set("dedup.new_block_ratio", t.newBlocks/t.unique)
	if t.newBlocks > 0 {
		rec.set("dedup.calls_per_new_block", t.calls/t.newBlocks)
	}
	rec.set("dedup.wire_bytes_per_user_byte", t.wire/t.total)
	if us := tr.meanUs("cdc.split") * float64(tr.count("cdc.split")); us > 0 {
		rec.set("cdc.split_mb_per_s", t.splitBytes/us)
	}
	if us := tr.meanUs("dedup.blockname") * float64(tr.count("dedup.blockname")); us > 0 {
		rec.set("dedup.blockname_mb_per_s", t.splitBytes/us)
	}
	// First attempts: one OpBlockStat per primary, one write per new
	// block, one manifest write; anything beyond is a resend or a map
	// fetch (finish subtracts the fetches).
	rec.add("dedup.write_resends", max(0, t.calls-t.statCalls-t.newBlocks-n))
}

func (w *dedupIngest) finish(ctx context.Context, rec *recorder) {
	if tr := rec.tr; tr != nil {
		ops := float64(rec.completed())
		rec.set("rados.write_us", tr.meanUs("rados.write"))
		rec.set("rados.read_us", tr.meanUs("rados.read"))
		rec.set("rados.locate_ns", tr.meanUs("rados.locate")*1e3)
		fetches := tr.counter("rados.map_fetches")
		rec.set("rados.map_fetches_per_op", fetches/ops)
		rec.set("rados.client_resends_per_op", max(0, rec.get("dedup.write_resends")+rec.get("dedup.read_resends")-fetches)/ops)
		m := w.writer.CachedMap()
		var names []string
		for name := range uniqueBlocks(w.expected[0]) {
			names = append(names, name)
		}
		rec.set("rados.locate_allocs", allocsPer(len(names), func(i int) { _, _, _ = rados.Locate(m, dedupPool, names[i]) }))
	}

	// Deliver every deferred reference delta without reclaiming, repair
	// refsets against the live manifests to a fixed point, then reclaim
	// every unreferenced block and audit refcounts.
	w.quiesce(ctx, time.Hour)
	for round := 0; round < 50; round++ {
		repaired := 0
		for _, o := range w.cl.OSDs {
			repaired += o.RefScrub(dedupPool)
		}
		if repaired == 0 {
			break
		}
	}
	w.quiesce(ctx, 0)
	audit := rados.AuditDedup(w.cl.OSDs, dedupPool)
	rec.check(len(audit.Leaked) == 0, "audit: %d leaked blocks, first %v", len(audit.Leaked), first(audit.Leaked))
	rec.check(len(audit.Dangling) == 0, "audit: %d dangling references, first %v", len(audit.Dangling), first(audit.Dangling))
	if rec.tr != nil {
		rec.set("dedup.leaked_blocks", float64(len(audit.Leaked)))
		rec.set("dedup.dangling_refs", float64(len(audit.Dangling)))
	}
	for i, name := range w.names {
		got, err := w.reader.ReadDeduped(ctx, dedupPool, name)
		rec.check(err == nil && bytes.Equal(got, w.expected[i]), "after sweep: %s differs from its acked corpus (%v)", name, err)
	}
}

// quiesce sweeps every OSD, one round per 5 ms tick, until two
// consecutive rounds deliver and reclaim nothing and no reference delta
// is queued.
func (w *dedupIngest) quiesce(ctx context.Context, grace time.Duration) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for round, clean := 0, 0; clean < 2 && round < 400; round++ {
		work := 0
		for _, o := range w.cl.OSDs {
			d, r := o.SweepBlocks(grace)
			work += d + r + o.QueuedRefDeltas()
		}
		if work == 0 {
			clean++
		} else {
			clean = 0
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return
		}
	}
}

func first(s []string) []string {
	if len(s) > 3 {
		return s[:3]
	}
	return s
}
