// Command perfbench is the repository's end-to-end benchmark. It boots
// Malacology clusters in-process and drives four composed paths through
// the public APIs only — replicated durable object I/O, deduplicated
// ingest, the ZLog shared-log append path, and the control plane
// (Paxos/monitor commits, interface propagation, Mantle) — each as a
// closed loop of at most two clients that checks every output it reads.
//
// Usage (from the repository root; run.sh builds and invokes it):
//
//	perfbench --workload object-rw --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) first repeats the untraced measurement, then measures
// again with spans and counters around every call into each module, and
// reports the per-layer metrics plus trace.overhead, the throughput the
// tracing cost; the last spans it kept are written next to the journals
// as spans-<workload>-seed<n>.jsonl. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/wire"
)

// scale sizes a run. fullScale is the benchmark; tests use a minimal one.
type scale struct {
	setupReps   int // clusters booted and preloaded per run; setup_s is their median
	rwObjects   int // object-rw: objects owned by each client
	dedupSlots  int // dedup-ingest: objects the writer cycles through
	corpusBytes int // dedup-ingest: bytes per deduped write
	zlogEntries int // zlog-append: appends per fresh log
	restarts    int // object-rw: crash/rebuild cycles at the end of the run
}

var fullScale = scale{
	setupReps:   3,
	rwObjects:   500,
	dedupSlots:  8,
	corpusBytes: 2 << 20,
	zlogEntries: 1000,
	restarts:    3,
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // directory for journals, inside the working tree
	scale    scale
}

// workload is one benchmarked path. setup is timed as setup_s; run
// drives the closed loop until the deadline; finish runs the end-of-run
// checks and records workload-specific metrics.
type workload interface {
	setup(ctx context.Context) error
	run(ctx context.Context, deadline time.Time, rec *recorder)
	finish(ctx context.Context, rec *recorder)
	net() *wire.Network
	stop()
}

// workloads builds a workload for one setup repetition; tr is nil in an
// untraced run.
var workloads = map[string]func(opts options, rep int, tr *tracer) workload{
	"object-rw":     newObjectRW,
	"dedup-ingest":  newDedupIngest,
	"zlog-append":   newZlogAppend,
	"control-plane": newControlPlane,
}

// recorder accumulates one measured phase.
type recorder struct {
	tr *tracer // nil in untraced runs

	attempted  atomic.Int64
	failed     atomic.Int64
	writeBytes atomic.Int64 // acked user payload written
	readBytes  atomic.Int64 // verified user payload read

	mu        sync.Mutex
	writes    []*latencies // guarded by mu; one set per client
	reads     []*latencies // guarded by mu
	errs      []string     // guarded by mu; first few failures, for stderr
	metrics   metricValues // guarded by mu; workload-specific values
	propagate []float64    // guarded by mu; ms

	// before and after bracket the measured phase.
	before, after snapshot
}

type metricValues map[string]float64

func newRecorder(tr *tracer) *recorder { return &recorder{tr: tr, metrics: metricValues{}} }

// client registers one closed-loop client's latency sets.
func (r *recorder) client() (writes, reads *latencies) {
	writes, reads = &latencies{}, &latencies{}
	r.mu.Lock()
	r.writes = append(r.writes, writes)
	r.reads = append(r.reads, reads)
	r.mu.Unlock()
	return writes, reads
}

// fail counts one failed or wrong operation.
func (r *recorder) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// check counts an end-of-run verification as an attempted op that
// fails when ok is false.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if !ok {
		r.fail(format, args...)
	}
}

// completed counts ops that succeeded so far.
func (r *recorder) completed() int64 { return r.attempted.Load() - r.failed.Load() }

func (r *recorder) wrote(n int) { r.writeBytes.Add(int64(n)) }
func (r *recorder) read(n int)  { r.readBytes.Add(int64(n)) }

// traced reports whether spans are being recorded right now.
func (r *recorder) traced() bool { return r.tr != nil && r.tr.on.Load() }

func (r *recorder) set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] += v
	r.mu.Unlock()
}

func (r *recorder) get(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics[name]
}

// snapshot is the process-wide state diffed across a measured phase.
type snapshot struct {
	mem  runtime.MemStats
	wire wire.Stats
}

func takeSnapshot(n *wire.Network) snapshot {
	s := snapshot{wire: n.Stats()}
	runtime.ReadMemStats(&s.mem)
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase is one measured closed-loop run. Its rates are medians over
// windows of a tenth of the run, so a burst of contention from other
// tenants of a shared host moves one window, not the result.
type phase struct {
	rec        *recorder
	ops        int64 // completed logical ops
	opsPerS    float64
	cpuUsPerOp float64
	mbPerS     float64
}

// window is one slice of a measured phase.
type window struct {
	dur   time.Duration
	ops   int64
	bytes int64
	cpu   time.Duration
}

func measure(ctx context.Context, w workload, d time.Duration, tr *tracer) *phase {
	rec := newRecorder(tr)
	runtime.GC()
	rec.before = takeSnapshot(w.net())
	done := make(chan struct{})
	windows := make(chan []window, 1)
	go func() { windows <- sampleWindows(rec, d/10, done) }()
	w.run(ctx, time.Now().Add(d), rec)
	close(done)
	ws := <-windows
	rec.after = takeSnapshot(w.net())
	p := &phase{rec: rec, ops: rec.completed()}
	var rates, cpus, mbs []float64
	for _, win := range ws {
		if win.ops == 0 {
			continue
		}
		rates = append(rates, float64(win.ops)/win.dur.Seconds())
		cpus = append(cpus, float64(win.cpu)/1e3/float64(win.ops))
		mbs = append(mbs, float64(win.bytes)/1e6/win.dur.Seconds())
	}
	p.opsPerS, p.cpuUsPerOp, p.mbPerS = median(rates), median(cpus), median(mbs)
	return p
}

// sampleWindows cuts the phase into windows of length d until done is
// closed; a last window shorter than d/2 is dropped.
func sampleWindows(rec *recorder, d time.Duration, done <-chan struct{}) []window {
	tick := time.NewTicker(d)
	defer tick.Stop()
	var ws []window
	last := window{cpu: cpuTime()}
	lastAt := time.Now()
	cut := func() {
		now := window{ops: rec.completed(), bytes: rec.writeBytes.Load() + rec.readBytes.Load(), cpu: cpuTime()}
		at := time.Now()
		ws = append(ws, window{dur: at.Sub(lastAt), ops: now.ops - last.ops,
			bytes: now.bytes - last.bytes, cpu: now.cpu - last.cpu})
		last, lastAt = now, at
	}
	for {
		select {
		case <-tick.C:
			cut()
		case <-done:
			if time.Since(lastAt) >= d/2 {
				cut()
			}
			return ws
		}
	}
}

type report struct {
	tr        *tracer // nil in untraced runs
	env       map[string]any
	metrics   metricValues
	attempted int64
	failed    int64
	errs      []string
}

// runBenchmark boots, measures and checks one workload.
func runBenchmark(ctx context.Context, opts options) (*report, error) {
	mk, ok := workloads[opts.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	rep := &report{env: recordEnv(opts.root), metrics: metricValues{}}
	var tr *tracer
	if opts.trace {
		tr = newTracer()
		rep.tr = tr
	}

	// Set up several clusters and keep the last: setup_s is the median,
	// so one slow boot does not move it.
	var setups []float64
	var w workload
	for i := 0; i < opts.scale.setupReps; i++ {
		if w != nil {
			w.stop()
		}
		w = mk(opts, i, tr)
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			w.stop()
			return nil, fmt.Errorf("%s setup: %w", opts.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.stop()

	var base *phase
	if opts.trace {
		base = measure(ctx, w, opts.seconds, tr)
		tr.on.Store(true)
	}
	p := measure(ctx, w, opts.seconds, tr)
	w.finish(ctx, p.rec)
	// Background loops (gossip, GC sweeps, checkpoints) keep allocating on
	// an idle cluster, so one post-GC reading can catch a transient; the
	// median of a few spaced readings does not.
	var heaps []float64
	tick := time.NewTicker(50 * time.Millisecond)
	for i := 0; i < 5; i++ {
		<-tick.C
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, float64(ms.HeapAlloc)/1e6)
	}
	tick.Stop()

	m := rep.metrics
	for k, v := range p.rec.metrics {
		m[k] = v
	}
	// User-visible figures come from an untraced measurement: the run
	// itself, or a traced run's first phase.
	user := p
	if base != nil {
		user = base
	}
	m["setup_s"] = median(setups)
	m["ops_per_s"] = user.opsPerS
	m["user_mb_per_s"] = user.mbPerS
	m["cpu_us_per_op"] = user.cpuUsPerOp
	m["live_heap_mb"] = median(heaps)
	writes, reads := mergeSorted(user.rec.writes...), mergeSorted(user.rec.reads...)
	// A percentile with fewer than minBeyond samples past it is not
	// reported: it reads 0, and the env line says so.
	pct := func(name string, sorted []float64, q float64) {
		rep.env[name+"_samples"] = len(sorted)
		if v, ok := percentile(sorted, q); ok {
			m[name] = v
		} else {
			rep.env[name+"_unreported"] = true
		}
	}
	pct("write_p50_us", writes, 0.50)
	pct("write_p99_us", writes, 0.99)
	pct("read_p50_us", reads, 0.50)
	pct("read_p99_us", reads, 0.99)
	prop := append([]float64(nil), user.rec.propagate...)
	sort.Float64s(prop)
	pct("propagate_p50_ms", prop, 0.50)
	pct("propagate_p90_ms", prop, 0.90)

	for _, ph := range []*phase{base, p} {
		if ph != nil {
			rep.attempted += ph.rec.attempted.Load()
			rep.failed += ph.rec.failed.Load()
			rep.errs = append(rep.errs, ph.rec.errs...)
		}
	}
	if rep.attempted > 0 {
		m["error_rate"] = float64(rep.failed) / float64(rep.attempted)
	}
	if opts.trace {
		layerMetrics(m, p, tr)
		if p.opsPerS > 0 {
			m["trace.overhead"] = base.opsPerS/p.opsPerS - 1
		}
	}
	return rep, nil
}

// layerMetrics derives the per-layer metrics every workload shares:
// wire traffic and Go runtime deltas over the traced phase, plus the
// journal counters the backend decorator collected.
func layerMetrics(m metricValues, p *phase, tr *tracer) {
	ops := float64(p.ops)
	if ops == 0 {
		return
	}
	b, a := p.rec.before.wire, p.rec.after.wire
	m["wire.calls_per_op"] = float64(a.Calls-b.Calls) / ops
	m["wire.sends_per_op"] = float64(a.Sends-b.Sends) / ops
	m["wire.refused_per_op"] = float64(a.Refused-b.Refused) / ops
	m["wire.drops_per_op"] = float64(a.Drops-b.Drops) / ops
	// The high-water mark is kept since boot; only clients that called
	// during the phase count.
	var inflight uint64
	for addr, st := range a.Outbound {
		if strings.HasPrefix(string(addr), "client.") && st.Calls > b.Outbound[addr].Calls && st.MaxInflight > inflight {
			inflight = st.MaxInflight
		}
	}
	m["wire.client_max_inflight"] = float64(inflight)

	bm, am := p.rec.before.mem, p.rec.after.mem
	m["go.allocs_per_op"] = float64(am.Mallocs-bm.Mallocs) / ops
	m["go.alloc_bytes_per_op"] = float64(am.TotalAlloc-bm.TotalAlloc) / ops
	m["go.gc_per_kop"] = float64(am.NumGC-bm.NumGC) / ops * 1000

	if recs := tr.counter("wal.records"); recs > 0 {
		m["wal.record_us"] = tr.meanUs("wal.record")
		m["wal.records_per_op"] = recs / ops
		m["wal.snapshot_record_share"] = tr.counter("wal.snapshots") / recs
		m["wal.commit_us"] = tr.meanUs("wal.commit")
		m["wal.checkpoint_us"] = tr.meanUs("wal.checkpoint")
		if w := p.rec.writeBytes.Load(); w > 0 {
			m["wal.bytes_per_user_byte"] = tr.counter("wal.payload_bytes") / float64(w)
		}
	}
}

// walDir returns a fresh journal directory for one daemon of one setup.
func walDir(opts options, rep, osd int) string {
	return filepath.Join(opts.root, fmt.Sprintf("%s-%d", opts.workload, rep), fmt.Sprintf("osd.%d", osd))
}

func main() {
	workloadName := flag.String("workload", "", "workload: object-rw, dedup-ingest, zlog-append, control-plane")
	seed := flag.Int64("seed", 1, "seed every input derives from")
	seconds := flag.Int("seconds", 10, "measured seconds per phase")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	root := flag.String("workdir", filepath.Join(".bench_build", "run"), "directory for WAL journals")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	opts := options{
		workload: *workloadName,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		root:     filepath.Join(*root, fmt.Sprintf("pid%d", os.Getpid())),
		scale:    fullScale,
	}
	if err := os.MkdirAll(opts.root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// Every phase, setup and check is bounded; a wedged cluster fails the
	// run instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	rep, err := runBenchmark(ctx, opts)
	cancel()
	if rerr := os.RemoveAll(opts.root); rerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cleanup:", rerr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.tr != nil {
		path := filepath.Join(*root, fmt.Sprintf("spans-%s-seed%d.jsonl", opts.workload, opts.seed))
		if err := rep.tr.writeSpans(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			os.Exit(1)
		}
		fmt.Printf("spans %s\n", path)
	}
	if code := emit(os.Stdout, opts, rep); code != 0 {
		os.Exit(code)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the environment, every metric by name with its unit, and
// the result line. It returns a non-zero exit code when any output check
// failed.
func emit(out io.Writer, opts options, rep *report) int {
	envLine, _ := json.Marshal(rep.env)
	fmt.Fprintf(out, "env %s\n", envLine)
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := rep.metrics[d.name]; ok {
			fmt.Fprintf(out, "%-34s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	res := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: rep.metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
