package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer times the benchmark's own calls into each module. Spans
// are aggregated as they close; only the most recent spanLogSize are
// kept whole, in a ring written out when a traced run ends, so a traced
// run's memory stays flat however many operations it makes.

var epoch = time.Now()

// now is a monotonic nanosecond clock shared by every span.
func now() int64 { return int64(time.Since(epoch)) }

// objKey joins spans that touch the same object: a client op span and
// the journal spans its primary and replicas record for that object.
type objKey struct{ pool, object string }

type openSpan struct {
	iv       interval
	children []interval
}

// spanRecord is one kept span. Journal spans carry the version the
// mutation stamped; client spans carry 0.
type spanRecord struct {
	Layer   string `json:"layer"`
	Pool    string `json:"pool,omitempty"`
	Object  string `json:"object,omitempty"`
	Version uint64 `json:"version,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

const spanLogSize = 4096

type layerAgg struct {
	n         int64
	totalNs   int64
	coveredNs int64
}

type tracer struct {
	// on gates recording; when false every hook is a pass-through, so the
	// untraced phase of a traced run measures the same wiring.
	on atomic.Bool

	mu       sync.Mutex
	open     map[objKey]*openSpan // guarded by mu
	layers   map[string]*layerAgg // guarded by mu
	counters map[string]float64   // guarded by mu
	ring     []spanRecord         // guarded by mu; the last spanLogSize spans
	next     int                  // guarded by mu; ring write position
}

func newTracer() *tracer {
	return &tracer{
		open:     make(map[objKey]*openSpan),
		layers:   make(map[string]*layerAgg),
		counters: make(map[string]float64),
	}
}

// begin opens a client op span on key; it returns nil when tracing is
// off (or t is nil), and end ignores a nil span.
func (t *tracer) begin(key objKey) *openSpan {
	if t == nil || !t.on.Load() {
		return nil
	}
	sp := &openSpan{iv: interval{start: now()}}
	t.mu.Lock()
	t.open[key] = sp
	t.mu.Unlock()
	return sp
}

// end closes sp under layer, crediting the time its joined children
// (journal spans of the same object) covered.
func (t *tracer) end(layer string, key objKey, sp *openSpan) {
	if sp == nil {
		return
	}
	sp.iv.end = now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.open[key] == sp {
		delete(t.open, key)
	}
	a := t.agg(layer)
	a.n++
	a.totalNs += sp.iv.end - sp.iv.start
	a.coveredNs += covered(sp.iv, sp.children)
	t.keep(spanRecord{Layer: layer, Pool: key.pool, Object: key.object, Start: sp.iv.start, End: sp.iv.end})
}

// keep appends r to the span ring. Caller holds t.mu.
func (t *tracer) keep(r spanRecord) {
	if len(t.ring) < spanLogSize {
		t.ring = append(t.ring, r)
		return
	}
	t.ring[t.next] = r
	t.next = (t.next + 1) % spanLogSize
}

// writeSpans writes the kept spans, oldest first, one JSON object per
// line.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := append(append([]spanRecord(nil), t.ring[t.next:]...), t.ring[:t.next]...)
	t.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range spans {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// span records a standalone timed call under layer and joins it to the
// open client span of each object in keys. rec is the kept record (its
// Layer, Start and End are filled in here).
func (t *tracer) span(layer string, iv interval, rec spanRecord, keys ...objKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg(layer)
	a.n++
	a.totalNs += iv.end - iv.start
	for _, k := range keys {
		if sp := t.open[k]; sp != nil {
			sp.children = append(sp.children, iv)
		}
	}
	rec.Layer, rec.Start, rec.End = layer, iv.start, iv.end
	t.keep(rec)
}

// time runs fn as a standalone span under layer when tracing is on.
func (t *tracer) time(layer string, fn func()) {
	if t == nil || !t.on.Load() {
		fn()
		return
	}
	start := now()
	fn()
	t.span(layer, interval{start, now()}, spanRecord{})
}

func (t *tracer) add(counter string, v float64) {
	t.mu.Lock()
	t.counters[counter] += v
	t.mu.Unlock()
}

// agg returns layer's aggregate. Caller holds t.mu.
func (t *tracer) agg(layer string) *layerAgg {
	a := t.layers[layer]
	if a == nil {
		a = &layerAgg{}
		t.layers[layer] = a
	}
	return a
}

// meanUs is a layer's mean span duration in microseconds (0 if unused).
func (t *tracer) meanUs(layer string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.layers[layer]
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.totalNs) / float64(a.n) / 1e3
}

// coveredShare is the fraction of a layer's span time its joined
// children covered.
func (t *tracer) coveredShare(layer string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.layers[layer]
	if a == nil || a.totalNs == 0 {
		return 0
	}
	return float64(a.coveredNs) / float64(a.totalNs)
}

func (t *tracer) count(layer string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.layers[layer]; a != nil {
		return a.n
	}
	return 0
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}
