package main

import (
	"sync"

	"repro/internal/rados"
)

// tracedBackend wraps a WAL backend for the traced run: it times
// Record, Commit, Checkpoint and Replay, counts journaled payload bytes
// and whole-object snapshot records, and joins each journal span to the
// client op span of the object it journals. Untraced runs use the plain
// WALBackend.
type tracedBackend struct {
	inner *rados.WALBackend
	tr    *tracer

	mu sync.Mutex
	// pending holds the objects recorded since the last Commit began; a
	// Commit's span is joined to those objects' op spans. Under group
	// commit a concurrent Commit may find it empty: its fsync wait is
	// still timed, just joined to no op.
	pending []objKey // guarded by mu
}

func (b *tracedBackend) Durable() bool        { return true }
func (b *tracedBackend) NeedCheckpoint() bool { return b.inner.NeedCheckpoint() }
func (b *tracedBackend) Abandon()             { b.inner.Abandon() }
func (b *tracedBackend) Close() error         { return b.inner.Close() }

func (b *tracedBackend) Record(mut rados.Mutation) {
	if !b.tr.on.Load() {
		b.inner.Record(mut)
		return
	}
	start := now()
	b.inner.Record(mut)
	key := objKey{mut.Pool, mut.Object}
	b.tr.span("wal.record", interval{start, now()},
		spanRecord{Pool: mut.Pool, Object: mut.Object, Version: mut.Version}, key)
	b.mu.Lock()
	b.pending = append(b.pending, key)
	b.mu.Unlock()
	b.tr.add("wal.records", 1)
	b.tr.add("wal.payload_bytes", float64(payloadBytes(mut)))
	if mut.Kind == rados.RecSnapshot {
		b.tr.add("wal.snapshots", 1)
	}
}

func (b *tracedBackend) Commit() error {
	if !b.tr.on.Load() {
		return b.inner.Commit()
	}
	b.mu.Lock()
	keys := b.pending
	b.pending = nil
	b.mu.Unlock()
	start := now()
	err := b.inner.Commit()
	b.tr.span("wal.commit", interval{start, now()}, spanRecord{}, keys...)
	return err
}

func (b *tracedBackend) Checkpoint(collect func() []rados.Mutation) error {
	if !b.tr.on.Load() {
		return b.inner.Checkpoint(collect)
	}
	start := now()
	err := b.inner.Checkpoint(collect)
	b.tr.span("wal.checkpoint", interval{start, now()}, spanRecord{})
	return err
}

func (b *tracedBackend) Replay(apply func(rados.Mutation)) (rados.ReplayStats, error) {
	start := now()
	st, err := b.inner.Replay(apply)
	if b.tr.on.Load() {
		b.tr.span("wal.replay", interval{start, now()}, spanRecord{})
		b.tr.add("wal.replay_records", float64(st.CheckpointRecords+st.Records))
	}
	return st, err
}

// Syncs is the wrapped log's fsync-batch count.
func (b *tracedBackend) Syncs() uint64 { return b.inner.Syncs() }

// payloadBytes counts the user-visible contents a mutation carries: its
// Data, its KV pairs, and a snapshot object's data, omap and xattrs.
func payloadBytes(m rados.Mutation) int {
	n := len(m.Data)
	for k, v := range m.KV {
		n += len(k) + len(v)
	}
	if o := m.Obj; o != nil {
		n += len(o.Data)
		for k, v := range o.Omap {
			n += len(k) + len(v)
		}
		for k, v := range o.Xattrs {
			n += len(k) + len(v)
		}
	}
	return n
}
