package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	corpus "repro/internal/workload"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	cases := []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 samples beyond
		{999, 0.99, 990, false}, // 9 beyond
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{100, 0.90, 90, true},
		{99, 0.90, 90, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
	}
}

func TestSelfTimeSubtractsOnlyCoveredIntervals(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {50, 60}}, 80},
		{"overlap counts once", []interval{{10, 20}, {15, 30}}, 80},
		{"nested counts once", []interval{{10, 40}, {20, 30}}, 70},
		{"clipped to parent", []interval{{-5, 5}, {90, 120}}, 85},
		{"outside parent", []interval{{200, 300}, {-50, -10}}, 100},
		{"unsorted", []interval{{90, 120}, {10, 20}, {-5, 5}, {15, 30}}, 65},
		{"covers all", []interval{{-1, 101}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// inputs renders every seeded input stream of a run.
func inputs(seed int64) []any {
	fill := newFillerPool(seed, "rw.fill", 64, valueBytes)
	entries := newFillerPool(seed, "zl.entry", 64, entryBytes)
	mix := rngFor(seed, "rw.mix", 0)
	var ops [][2]int
	for i := 0; i < 200; i++ {
		k, o := rwOp(mix, 500)
		ops = append(ops, [2]int{k, o})
	}
	objs := rwObjects(seed, 1, 10)
	return []any{
		objs,
		fill.value(objs[3], 7),
		entries.value("log", 9),
		ops,
		corpus.GenerateDupCorpus(corpusSeed(seed, 4), corpus.DupCorpusConfig{Size: 64 << 10, DupRatio: 0.5}),
		serviceValue(seed, 5),
		probeClass(seed, 6),
		balancerLoads(rngFor(seed, "cp.loads", 0), balancerRanks),
		newDedupIngest(options{seed: seed, scale: scale{dedupSlots: 3}}, 0, nil).(*dedupIngest).names,
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := inputs(42), inputs(42), inputs(43)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input stream %d differs between two runs with seed 42", i)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("input stream %d is the same for seeds 42 and 43", i)
		}
	}
}

func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

var minimalScale = scale{
	setupReps:   1,
	rwObjects:   40,
	dedupSlots:  2,
	corpusBytes: 256 << 10,
	zlogEntries: 40,
	restarts:    1,
}

// TestMinimalRunEmitsEveryMetric runs each workload at minimum size,
// untraced and traced, and checks the result line: every named metric
// with its unit, no failed op, and a nonzero value for every end-to-end
// metric.
func TestMinimalRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				opts := options{workload: name, seed: 7, seconds: 1200 * time.Millisecond,
					trace: traced, root: t.TempDir(), scale: minimalScale}
				rep, err := runBenchmark(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if code := emit(&out, opts, rep); code != 0 {
					t.Fatalf("exit code %d; output:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]metricOut
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if rep.metrics["error_rate"] != 0 {
					t.Errorf("error_rate = %v", rep.metrics["error_rate"])
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}
